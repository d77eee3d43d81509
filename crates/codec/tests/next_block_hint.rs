//! A next-block hint never changes a digest or a count.
//!
//! `checksum` and `append_checksummed` take an `Ahead` — where the block
//! streamed after this one lies — and only ask for its lines. Whatever the
//! hint names (nothing, the data itself, an unrelated buffer, a shorter or
//! longer one, memory already freed, or an empty slice), both kernels must
//! return the byte-serial oracle's digest, `append_checksummed` must append
//! exactly the source bytes, and `kernel.bytes_hashed` must advance by the
//! data's length and nothing else.
//!
//! One test, so one process: `kernel.bytes_hashed` is process-wide, and
//! exact deltas need nothing else hashing meanwhile.

use tornado_codec::kernels::{self, append_checksummed, checksum, scalar, Ahead};

fn hashed() -> u64 {
    kernels::metrics().bytes_hashed.get()
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn a_hint_never_changes_a_digest_or_a_count() {
    // Every length up to four 64-byte groups past 192, the seams of the
    // 4 KiB in-block prefetch and copy strip, and a 1 MiB object's block.
    let lengths: Vec<usize> = (0..=257).chain([4_095, 4_096, 4_097, 21_846]).collect();
    let unrelated = pattern(30_000, 91);
    let freed = {
        let gone = pattern(21_846, 3);
        Ahead::of(&gone)
    };
    for &len in &lengths {
        let shorter = pattern(len / 2, 5);
        let longer = pattern(2 * len + 4_096, 7);
        for offset in 0..8 {
            let backing = pattern(offset + len, 17);
            let data = &backing[offset..];
            let expect = scalar::checksum(data);
            let hints = [
                ("none", Ahead::NONE),
                ("the data itself", Ahead::of(data)),
                ("an unrelated buffer", Ahead::of(&unrelated)),
                ("a shorter buffer", Ahead::of(&shorter)),
                ("a longer buffer", Ahead::of(&longer)),
                ("a freed buffer", freed),
                ("an empty slice", Ahead::of(&longer[..0])),
            ];
            for (what, hint) in hints {
                let case = format!("len {len} offset {offset}, hint {what}");
                let before = hashed();
                assert_eq!(checksum(data, hint), expect, "checksum, {case}");
                assert_eq!(hashed() - before, len as u64, "checksum count, {case}");

                let mut out = vec![0xEE; 3];
                let before = hashed();
                assert_eq!(
                    append_checksummed(&mut out, data, hint),
                    expect,
                    "append_checksummed, {case}"
                );
                assert_eq!(
                    hashed() - before,
                    len as u64,
                    "append_checksummed count, {case}"
                );
                assert_eq!((&out[..3], &out[3..]), (&[0xEE; 3][..], data), "{case}");
            }
        }
    }
}
