//! Readiness reactor: a hand-rolled epoll wrapper over `std::os::fd`.
//!
//! The server multiplexes thousands of mostly-idle archival connections
//! on a handful of shard threads; this module is the
//! only place the crate touches the OS readiness API, and the only place
//! `unsafe` is allowed (raw syscall FFI — the symbols resolve from the C
//! runtime every Rust binary already links, honouring the workspace's
//! zero-dependency rule).
//!
//! One backend behind the `Poller` API: Linux's `epoll_create1` /
//! `epoll_ctl` / `epoll_wait`, level-triggered. Level-triggering keeps the
//! shard logic simple — a socket with unread bytes or unflushed output
//! stays ready, so a loop iteration may do bounded work per event and rely
//! on the next wait to re-report whatever it left behind.
//!
//! Safety invariants, enforced by the wrapper types rather than callers:
//!
//! * The epoll fd is an `OwnedFd` — closed exactly once, on drop.
//! * Registered fds must outlive their registration; the serving layer
//!   guarantees this by deregistering in slot teardown, while the slab
//!   still holds the socket — replies in flight may keep it open longer,
//!   never shorter.
//! * `epoll_event` carries a plain `u64` token, no pointers, so a stale
//!   event can at worst name a slot whose tenant has changed (which costs
//!   the new tenant a look), never touch freed memory.

#![allow(unsafe_code)]

use std::io::{self, Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Which readiness classes a registration subscribes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub read: bool,
    /// Wake when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only — the steady state of an idle connection.
    pub(crate) const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Read and write readiness — a connection with unflushed output.
    pub(crate) const READ_WRITE: Interest = Interest {
        read: true,
        write: true,
    };
}

/// One readiness event out of `Poller::wait`.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub(crate) token: u64,
    /// The fd is readable, the peer hung up, or the fd is in an error
    /// state (all three are discovered by the next `read`).
    pub(crate) readable: bool,
    /// The fd is writable.
    pub(crate) writable: bool,
}

/// A readiness selector: registered fds plus a blocking wait.
pub(crate) struct Poller {
    sys: sys::Selector,
}

impl Poller {
    /// Creates an empty selector.
    pub(crate) fn new() -> io::Result<Self> {
        Ok(Self {
            sys: sys::Selector::new()?,
        })
    }

    /// Subscribes `fd` under `token`. One registration per fd.
    pub(crate) fn register(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.register(fd.as_raw_fd(), token, interest)
    }

    /// Replaces the interest set of an already-registered fd.
    pub(crate) fn reregister(
        &self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        self.sys.reregister(fd.as_raw_fd(), token, interest)
    }

    /// Removes a registration. Must be called before the fd is closed.
    pub(crate) fn deregister(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.sys.deregister(fd.as_raw_fd())
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` blocks indefinitely), filling `events` (cleared
    /// first). Spurious empty returns are allowed.
    pub(crate) fn wait(
        &self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<()> {
        events.clear();
        let timeout_ms: i32 = match timeout {
            None => -1,
            // Round up so a 100µs timeout is a 1ms sleep, not a spin.
            Some(t) => t.as_micros().div_ceil(1_000).min(i32::MAX as u128) as i32,
        };
        self.sys.wait(events, timeout_ms)
    }
}

/// Cross-thread wakeup for a [`Poller`]: engine workers and the acceptor
/// call [`Waker::wake`] to interrupt a shard's wait. Built on a
/// nonblocking `UnixStream` pair — safe std, real fds, no extra syscall
/// API to wrap. A full pipe means a wake is already pending, so the
/// (ignored) `WouldBlock` still guarantees delivery.
pub(crate) struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    /// Creates the pair and registers the read side under `token`.
    pub(crate) fn new(poller: &Poller, token: u64) -> io::Result<Self> {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        poller.register(&rx, token, Interest::READ)?;
        Ok(Self { rx, tx })
    }

    /// Signals the owning poller's next (or current) wait. Callable from
    /// any thread.
    pub(crate) fn wake(&self) {
        // Errors are either WouldBlock (a wake is already pending) or the
        // poller side is gone (shutdown race) — both safely ignorable.
        let _ = (&self.tx).write(&[1u8]);
    }

    /// Consumes pending wake bytes; the loop calls this once per wakeup
    /// so level-triggered readiness does not re-report old wakes.
    pub(crate) fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// The process-wide SIGTERM latch; see [`install_sigterm_flag`].
static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

/// The only async-signal-safe thing a handler may do portably: store a
/// relaxed flag. The CLI's serve command polls it.
extern "C" fn on_sigterm(_sig: i32) {
    SIGTERM_FLAG.store(true, Ordering::Relaxed);
}

/// Installs a SIGTERM handler that latches a flag (idempotent) and
/// returns the flag. The CLI's serve command watches it to start the same
/// graceful drain a SHUTDOWN op would.
pub fn install_sigterm_flag() -> &'static AtomicBool {
    const SIGTERM: i32 = 15;
    unsafe {
        // `signal` (not sigaction) is enough: we need no siginfo and the
        // One-Unix default of SA_RESTART either way only delays a poll
        // tick.
        sys::signal(SIGTERM, on_sigterm as *const () as usize);
    }
    &SIGTERM_FLAG
}

/// Raises the process `RLIMIT_NOFILE` soft limit to at least `want`
/// (clamped to the hard limit unless the process may raise that too).
/// Returns the resulting soft limit. The 10k-connection bench calls this
/// so two sockets per connection fit under conservative inherited limits.
pub fn raise_nofile_limit(want: u64) -> io::Result<u64> {
    unsafe {
        let mut lim = sys::RLimit { cur: 0, max: 0 };
        if sys::getrlimit(sys::RLIMIT_NOFILE, &mut lim) != 0 {
            return Err(io::Error::last_os_error());
        }
        if lim.cur >= want {
            return Ok(lim.cur);
        }
        let mut raised = sys::RLimit {
            cur: want.max(lim.cur),
            max: lim.max.max(want),
        };
        if sys::setrlimit(sys::RLIMIT_NOFILE, &raised) != 0 {
            // Unprivileged processes cannot raise the hard limit; retry
            // within it.
            raised = sys::RLimit {
                cur: want.min(lim.max),
                max: lim.max,
            };
            if sys::setrlimit(sys::RLIMIT_NOFILE, &raised) != 0 {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(raised.cur)
    }
}

mod sys {
    //! Linux backend: level-triggered epoll via raw FFI.

    use super::{Event, Interest};
    use std::io;
    use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};

    pub(super) const RLIMIT_NOFILE: i32 = 7;

    /// Matches the kernel's `struct rlimit` (rlim_t is 64-bit on every
    /// supported Linux ABI).
    #[repr(C)]
    pub(super) struct RLimit {
        pub cur: u64,
        pub max: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The kernel's `struct epoll_event`: packed on x86 so the 12-byte
    /// layout matches the ABI; naturally aligned (16 bytes) elsewhere.
    #[repr(C)]
    #[cfg_attr(any(target_arch = "x86", target_arch = "x86_64"), repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        pub(crate) fn signal(signum: i32, handler: usize) -> usize;
        pub(super) fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        pub(super) fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }

    pub(crate) struct Selector {
        epfd: OwnedFd,
    }

    impl Selector {
        pub(super) fn new() -> io::Result<Self> {
            let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: epoll_create1 returned a fresh fd we now own.
            Ok(Self {
                epfd: unsafe { OwnedFd::from_raw_fd(fd) },
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), op, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub(crate) fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            interest: Interest,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub(crate) fn deregister(&self, fd: RawFd) -> io::Result<()> {
            // Pre-2.6.9 kernels demanded a non-null event for DEL; every
            // kernel this runs on ignores it.
            let mut ev = EpollEvent { events: 0, data: 0 };
            let rc = unsafe { epoll_ctl(self.epfd.as_raw_fd(), EPOLL_CTL_DEL, fd, &mut ev) };
            if rc != 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(super) fn wait(&self, events: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
            let mut buf = [EpollEvent { events: 0, data: 0 }; 256];
            let n = loop {
                let n = unsafe {
                    epoll_wait(
                        self.epfd.as_raw_fd(),
                        buf.as_mut_ptr(),
                        buf.len() as i32,
                        timeout_ms,
                    )
                };
                if n >= 0 {
                    break n as usize;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
                // EINTR: retry without re-arming the timeout (close
                // enough for a readiness loop that re-checks flags
                // every iteration anyway).
            };
            for ev in &buf[..n] {
                let bits = ev.events;
                events.push(Event {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.read {
            // A half-close is news about the read side only.
            m |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::time::Instant;

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_event_fires_when_bytes_arrive() {
        let poller = Poller::new().unwrap();
        let (mut a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        poller.register(&b, 42, Interest::READ).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "no bytes yet");
        a.write_all(b"hi").unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "{events:?}"
        );
        poller.deregister(&b).unwrap();
    }

    #[test]
    fn write_interest_reports_writable_and_can_be_dropped() {
        let poller = Poller::new().unwrap();
        let (_a, b) = tcp_pair();
        b.set_nonblocking(true).unwrap();
        poller.register(&b, 7, Interest::READ_WRITE).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(
            events.iter().any(|e| e.token == 7 && e.writable),
            "{events:?}"
        );
        // Dropping write interest silences the (always-ready) writable
        // state — the write-batching rule depends on this.
        poller.reregister(&b, 7, Interest::READ).unwrap();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(!events.iter().any(|e| e.writable), "{events:?}");
    }

    #[test]
    fn waker_interrupts_a_blocking_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 99).unwrap();
        let start = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                waker.wake();
            });
            let mut events = Vec::new();
            poller
                .wait(&mut events, Some(Duration::from_secs(10)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == 99 && e.readable));
        });
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "woke early, not at timeout"
        );
        // Drained wakes do not re-fire.
        waker.drain();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert!(events.is_empty(), "{events:?}");
    }

    #[test]
    fn wake_is_idempotent_under_burst() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new(&poller, 1).unwrap();
        // Far more wakes than the pipe buffers — must never block or fail.
        for _ in 0..100_000 {
            waker.wake();
        }
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1));
        waker.drain();
    }

    #[test]
    fn nofile_limit_can_be_queried_and_raised_to_current() {
        // Raising to 1 is always a no-op returning the current limit.
        let cur = raise_nofile_limit(1).unwrap();
        assert!(cur >= 1);
    }

    #[test]
    fn sigterm_flag_installs_and_latches() {
        let flag = install_sigterm_flag();
        assert!(!flag.load(Ordering::Relaxed) || flag.load(Ordering::Relaxed));
        // Raise SIGTERM at ourselves? No — that would kill the test
        // harness if installation failed. Install twice instead: the
        // handler slot is idempotent.
        let again = install_sigterm_flag();
        assert!(std::ptr::eq(flag, again));
    }
}
