//! What the process can say about itself and its machine: which CPU it is
//! confined to, peak memory, CPU time, the environment fingerprint printed
//! with every result, and the scratch directories durable workloads write
//! into.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

// The two affinity calls of the C library std already links; the one place
// this package needs `unsafe`.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPU sets of up to 1,024 CPUs, as the kernel lays them out.
type CpuMask = [u64; 16];

/// The CPUs this process may run on (empty where the call is refused).
fn allowed_cpus() -> Vec<usize> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc != 0 {
        return vec![];
    }
    (0..1024)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Confines thread `tid` (0: the caller) to `cpu`.
fn confine_thread(tid: i32, cpu: usize) -> bool {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; the call reads it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr()) == 0 }
}

/// How long a run measures on one CPU before it moves to the next.
pub const CPU_TURN: Duration = Duration::from_secs(1);

/// Which of the allowed CPUs the process is confined to.
struct OneCpu {
    allowed: Vec<usize>,
    at: usize,
}

static ONE_CPU: Mutex<Option<OneCpu>> = Mutex::new(None);

/// Confines the process — every thread it has and every thread and child
/// process it will start — to one of the CPUs it may use, and remembers the
/// others for [`next_cpu`]. A run of a workload calls this first.
///
/// Why one CPU: with the server's threads and the clients spread over two
/// virtual CPUs, every GET makes four wake-ups that each may or may not
/// cross to a halted vCPU, which the hypervisor takes 30–100 µs to wake, and
/// which of them do changes by the second; on one CPU every hand-over is a
/// context switch. Why take turns: the host's other tenants slow one CPU at
/// a time by up to half for ten seconds and more, so the run spends a
/// second on each CPU in turn and reports what its quiet windows measured.
pub fn confine_to_one_cpu() {
    let allowed = allowed_cpus();
    let Some(&last) = allowed.last() else {
        return;
    };
    if confine_thread(0, last) {
        *ONE_CPU.lock().expect("cpu rotation") = Some(OneCpu {
            at: allowed.len() - 1,
            allowed,
        });
    }
}

/// Moves every thread of the process to the next allowed CPU. Call it
/// between passes, when the only threads alive are long-lived ones (the
/// server's): a thread started later inherits the CPU of its parent.
pub fn next_cpu() {
    let mut guard = ONE_CPU.lock().expect("cpu rotation");
    let Some(one) = guard.as_mut() else {
        return;
    };
    one.at = (one.at + 1) % one.allowed.len();
    let cpu = one.allowed[one.at];
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for tid in tasks
        .flatten()
        .filter_map(|t| t.file_name().to_string_lossy().parse::<i32>().ok())
    {
        // A thread that ended since it was listed is not an error.
        confine_thread(tid, cpu);
    }
}

/// How many CPUs the process may use, and how it uses them: "one at a time
/// of [0, 1], 1 s each" once confined.
fn cpus() -> (usize, String) {
    match ONE_CPU.lock().expect("cpu rotation").as_ref() {
        Some(one) => (
            one.allowed.len(),
            format!(
                "one at a time of {:?}, {} s each",
                one.allowed,
                CPU_TURN.as_secs_f64()
            ),
        ),
        None => (allowed_cpus().len(), "not confined".into()),
    }
}

/// Peak resident set of this process so far, MB (`VmHWM` of
/// `/proc/self/status`); 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds consumed by this process, every thread that
/// ever ran in it included (`utime` + `stime` of `/proc/self/stat`, in the
/// kernel's fixed 100 Hz user-visible ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields are counted from
    // the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(fields.next()) + ticks(fields.next())) / 100.0
}

/// Accumulates the time spent inside the program under test during
/// set-up, leaving the benchmark's own input generation out.
#[derive(Default)]
pub struct Stopwatch(Duration);

impl Stopwatch {
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0 += t0.elapsed();
        out
    }

    pub fn seconds(&self) -> f64 {
        self.0.as_secs_f64()
    }
}

/// Where durable workloads put their data: beside the running executable,
/// i.e. inside the build directory of the checkout. The benchmark may write
/// nowhere else.
pub fn scratch_base() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    exe.parent()
        .expect("executable has a directory")
        .join("bench_budget_data")
}

/// A fresh directory under [`scratch_base`], removed when dropped — on
/// success, on a failed check and on a panic that unwinds alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = scratch_base().join(format!("{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        Self(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Removes what a child process `pid` left under [`scratch_base`] (it
/// cleans up after itself unless it was killed or aborted).
pub fn remove_scratch_of(pid: u32) {
    let Ok(entries) = std::fs::read_dir(scratch_base()) else {
        return;
    };
    let prefix = format!("{pid}-");
    for entry in entries.flatten() {
        if entry.file_name().to_string_lossy().starts_with(&prefix) {
            let _ = std::fs::remove_dir_all(entry.path());
        }
    }
}

/// Sum of the lengths of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Filesystem type holding `path`, from the longest matching mount point of
/// `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, mount, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}

/// The git commit of the working directory, read from `.git` without
/// running git; "unknown" outside a repository (the driver's checkouts).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(reference) => {
            std::fs::read_to_string(Path::new(".git").join(reference)).unwrap_or_default()
        }
        None => head.to_string(),
    };
    let commit = commit.trim();
    if commit.is_empty() {
        "unknown".into()
    } else {
        commit.to_string()
    }
}

/// The conditions a number was measured under, one `key=value` per entry.
pub fn fingerprint(seed: u64) -> Vec<(&'static str, String)> {
    let base = scratch_base();
    // The base may not exist yet; its nearest existing ancestor is on the
    // same filesystem.
    let existing = base
        .ancestors()
        .find(|p| p.exists())
        .unwrap_or(Path::new("/"));
    let fs = filesystem_of(existing);
    let (nproc, confinement) = cpus();
    vec![
        ("nproc", nproc.to_string()),
        (
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .unwrap_or_default()
                .trim()
                .to_string(),
        ),
        ("git_commit", git_commit()),
        (
            "build_profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("cpus", confinement),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        ("data_dir", base.display().to_string()),
        ("data_dir_fs", fs),
        (
            "fsync",
            "off in the durable pass (DurableConfig::new_nosync)".into(),
        ),
        ("seed", seed.to_string()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_read_something() {
        assert!(peak_rss_mb() > 0.5, "VmHWM of a running test binary");
        let before = cpu_seconds();
        let mut x = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(
            cpu_seconds() - before >= 0.03,
            "60 ms of spinning shows up as CPU time"
        );
    }

    #[test]
    fn a_confined_thread_runs_on_the_cpu_it_was_given() {
        // On a thread of its own: the test harness's other threads keep
        // their CPUs.
        std::thread::spawn(|| {
            let allowed = allowed_cpus();
            assert!(!allowed.is_empty(), "sched_getaffinity answers");
            for &cpu in &allowed {
                assert!(confine_thread(0, cpu));
                assert_eq!(allowed_cpus(), [cpu]);
                let inherited = std::thread::spawn(allowed_cpus).join().unwrap();
                assert_eq!(inherited, [cpu], "a new thread inherits its parent's CPU");
            }
        })
        .join()
        .unwrap();
    }

    #[test]
    fn scratch_dir_is_removed_on_drop_and_on_panic() {
        let kept;
        {
            let d = ScratchDir::new("drop");
            kept = d.path().to_path_buf();
            std::fs::write(kept.join("f"), b"abc").unwrap();
            assert_eq!(dir_bytes(&kept), 3);
        }
        assert!(!kept.exists());
        let path = std::sync::Mutex::new(PathBuf::new());
        let outcome = std::panic::catch_unwind(|| {
            let d = ScratchDir::new("panic");
            *path.lock().unwrap() = d.path().to_path_buf();
            panic!("a failed check");
        });
        assert!(outcome.is_err());
        assert!(
            !path.lock().unwrap().exists(),
            "unwinding removed the directory"
        );
    }

    #[test]
    fn leftovers_of_a_dead_child_are_removed_by_pid() {
        let fake_pid = 4_000_000_000u32; // above any real pid
        let dir = scratch_base().join(format!("{fake_pid}-x-0"));
        std::fs::create_dir_all(&dir).unwrap();
        remove_scratch_of(fake_pid);
        assert!(!dir.exists());
    }
}
