//! A next-block hint never changes a digest or a count.
//!
//! `checksum`, `checksum4` and `append_checksummed` take an `Ahead` — where
//! the block streamed after this one lies — and only ask for its lines.
//! Whatever the hint names (nothing, the data itself, an unrelated buffer,
//! a shorter or longer one, memory already freed, or an empty slice), the
//! kernels must return the byte-serial oracle's digests,
//! `append_checksummed` must append exactly the source bytes, and
//! `kernel.bytes_hashed` must advance by the data's length — for
//! `checksum4`, the four blocks' summed lengths — and nothing else.
//!
//! One test, so one process: `kernel.bytes_hashed` is process-wide, and
//! exact deltas need nothing else hashing meanwhile.

#[allow(dead_code)]
mod oracle;

use oracle::scalar;
use tornado_codec::kernels::{self, append_checksummed, checksum, checksum4, Ahead};

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

    // Four blocks a pass: empty, under a group, the group and strip seams,
    // three strips and a part, and a 1 MiB object's block, four at a time
    // and unequal.
    let lengths = [0, 63, 64, 4_095, 4_097, 3 * 4_096 + 63, 21_846];
    let blocks: Vec<Vec<u8>> = (0u8..)
        .zip(lengths)
        .map(|(k, len)| pattern(len, k))
        .collect();
    for first in 0..lengths.len() {
        let four: [&[u8]; 4] =
            std::array::from_fn(|k| &blocks[(first + 2 * k) % lengths.len()][..]);
        let expect = four.map(scalar::checksum);
        let summed: usize = four.iter().map(|b| b.len()).sum();
        let hints = [
            ("none", Ahead::NONE),
            ("its own first block", Ahead::of(four[0])),
            ("an unrelated buffer", Ahead::of(&unrelated)),
            ("a freed buffer", freed),
            ("an empty slice", Ahead::of(&unrelated[..0])),
        ];
        for (what, hint) in hints {
            let case = format!(
                "checksum4 of lengths {:?}, hint {what}",
                four.map(<[u8]>::len)
            );
            let before = hashed();
            assert_eq!(checksum4(four, hint), expect, "{case}");
            assert_eq!(hashed() - before, summed as u64, "count, {case}");
        }
    }
}
