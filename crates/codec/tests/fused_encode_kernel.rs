//! The encoder's fused kernel against the sequence it replaced: a zeroed
//! accumulator, one `xor_into` per source, then `checksum` over the result.
//! Same bytes, same digest, and the same advance of both volume counters.
//!
//! One test, so one process: the counters are process-wide, and exact
//! deltas need nothing else running kernels meanwhile.

use tornado_codec::kernels::{self, scalar};

fn pattern(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i.wrapping_mul(31) ^ salt.wrapping_mul(131) ^ (i >> 8)) as u8)
        .collect()
}

fn counters() -> (u64, u64) {
    let m = kernels::metrics();
    (m.bytes_xored.get(), m.bytes_hashed.get())
}

#[test]
fn fused_xor_and_digest_equal_the_unfused_sequence() {
    const LENGTHS: [usize; 12] = [0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 21_846];
    for len in LENGTHS {
        for offset in 0..4usize {
            // Twelve sources, each starting `offset` bytes into its
            // allocation, so word loads in the fold are misaligned.
            let backing: Vec<Vec<u8>> = (0..12).map(|s| pattern(len + offset, s)).collect();
            for count in 1..=12usize {
                let sources = || backing[..count].iter().map(|b| &b[offset..]);
                let mut expect = vec![0u8; len];
                for src in sources() {
                    scalar::xor_into(&mut expect, src);
                }
                let digest = scalar::checksum(&expect);

                let before = counters();
                // Appended behind what `out` already holds.
                let mut out = vec![0xA5u8; 3];
                let got = kernels::xor_checksummed(&mut out, len, sources());
                let after = counters();

                let case = format!("len {len} offset {offset} sources {count}");
                assert_eq!(&out[..3], [0xA5; 3], "{case}");
                assert!(out[3..] == expect[..], "{case}");
                assert_eq!(got, digest, "{case}");
                assert_eq!(
                    (after.0 - before.0, after.1 - before.1),
                    ((count * len) as u64, len as u64),
                    "{case}: `len` XORed per source, `len` hashed"
                );
            }
        }
    }
    // A check with nothing to fold is a block of zeros.
    let mut out = Vec::new();
    let digest = kernels::xor_checksummed(&mut out, 100, std::iter::empty());
    assert_eq!(out, [0u8; 100]);
    assert_eq!(digest, scalar::checksum(&[0u8; 100]));
}
