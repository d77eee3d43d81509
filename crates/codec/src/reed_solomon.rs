//! Systematic Reed–Solomon erasure coding over GF(2⁸) — the baseline the
//! Tornado literature measures against.
//!
//! The paper's §2.1 rests on two published comparisons: Typhoon "found that
//! Tornado Codes encode and decode files in substantially less time than
//! Reed-Solomon codes", and Plank compared realized LDPC codes against
//! Reed–Solomon. This module provides that baseline so the claim is
//! measurable in this workspace (see the `rs_comparison` bench): a
//! systematic `(n, k)` code built from a Vandermonde-derived generator
//! matrix, encoding by dense matrix multiply (O(k) field multiplies per
//! parity byte) and decoding by Gaussian elimination over the surviving
//! rows — MDS, so *any* `k` of `n` blocks reconstruct, at quadratic cost
//! where the Tornado peeler is linear.

use crate::error::CodecError;
use crate::gf256::Gf256;

/// A systematic Reed–Solomon erasure code with `k` data and `n − k` parity
/// blocks (`n ≤ 255`).
pub struct ReedSolomon {
    k: usize,
    n: usize,
    field: Gf256,
    /// Parity rows of the generator matrix: `(n − k) × k`.
    parity_rows: Vec<Vec<u8>>,
}

/// Inverts a square GF(256) matrix by Gauss–Jordan elimination.
///
/// # Panics
/// Panics if the matrix is singular (cannot happen for the Vandermonde
/// blocks this module feeds it).
fn invert(field: &Gf256, m: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let k = m.len();
    let mut a: Vec<Vec<u8>> = m.to_vec();
    let mut inv: Vec<Vec<u8>> = (0..k)
        .map(|r| (0..k).map(|c| u8::from(r == c)).collect())
        .collect();
    for col in 0..k {
        let pivot = (col..k)
            .find(|&r| a[r][col] != 0)
            .expect("matrix is singular");
        a.swap(col, pivot);
        inv.swap(col, pivot);
        let scale = field.inv(a[col][col]);
        for c in 0..k {
            a[col][c] = field.mul(a[col][c], scale);
            inv[col][c] = field.mul(inv[col][c], scale);
        }
        let arow = a[col].clone();
        let irow = inv[col].clone();
        for r in 0..k {
            if r != col && a[r][col] != 0 {
                let factor = a[r][col];
                for c in 0..k {
                    a[r][c] = Gf256::add(a[r][c], field.mul(factor, arow[c]));
                    inv[r][c] = Gf256::add(inv[r][c], field.mul(factor, irow[c]));
                }
            }
        }
    }
    inv
}

impl ReedSolomon {
    /// Creates an `(n, k)` code (e.g. `n = 96`, `k = 48` to mirror the
    /// Tornado configuration).
    ///
    /// # Panics
    /// Panics unless `0 < k < n ≤ 255`.
    pub fn new(k: usize, n: usize) -> Self {
        assert!(k > 0 && k < n && n <= 255, "need 0 < k < n <= 255");
        let field = Gf256::new();
        // Standard systematic MDS construction: build the (n × k)
        // Vandermonde V over n distinct evaluation points, then
        // right-multiply by the inverse of its top k×k block:
        // G = V · V_top⁻¹. The top of G becomes the identity, and because
        // every k×k minor of V is non-singular (distinct points) and
        // right-multiplication by an invertible matrix preserves that,
        // any k rows of G remain independent — the MDS property.
        let v: Vec<Vec<u8>> = (0..n)
            .map(|r| (0..k).map(|c| field.pow((r + 1) as u8, c)).collect())
            .collect();
        let top_inv = invert(&field, &v[..k]);
        let parity_rows: Vec<Vec<u8>> = (k..n)
            .map(|r| {
                (0..k)
                    .map(|c| {
                        let mut acc = 0u8;
                        for (j, &coef) in v[r].iter().enumerate() {
                            acc = Gf256::add(acc, field.mul(coef, top_inv[j][c]));
                        }
                        acc
                    })
                    .collect()
            })
            .collect();
        Self {
            k,
            n,
            field,
            parity_rows,
        }
    }

    /// Number of data blocks.
    pub fn data_blocks(&self) -> usize {
        self.k
    }

    /// Total stored blocks.
    pub fn total_blocks(&self) -> usize {
        self.n
    }

    /// Encodes `k` equal-length data blocks into `n` stored blocks (data
    /// first — the code is systematic).
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodecError> {
        if data.len() != self.k {
            return Err(CodecError::WrongBlockCount {
                got: data.len(),
                expected: self.k,
            });
        }
        let block_len = data.first().map(|b| b.len()).unwrap_or(0);
        for (i, b) in data.iter().enumerate() {
            if b.len() != block_len {
                return Err(CodecError::UnequalBlockLengths {
                    index: i,
                    expected: block_len,
                    got: b.len(),
                });
            }
        }
        let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.n);
        out.extend(data.iter().cloned());
        for row in &self.parity_rows {
            let mut acc = crate::pool::with_thread_pool(|p| p.take_zeroed(block_len));
            for (c, &coef) in row.iter().enumerate() {
                self.field.mul_acc(&mut acc, &data[c], coef);
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Row of the effective generator matrix for stored block `i`: identity
    /// rows for data blocks, parity rows after.
    fn generator_row(&self, i: usize) -> Vec<u8> {
        if i < self.k {
            let mut row = vec![0u8; self.k];
            row[i] = 1;
            row
        } else {
            self.parity_rows[i - self.k].clone()
        }
    }

    /// Decodes a stripe in place: any `k` present blocks reconstruct all
    /// data (and the report lists recovered data indices). Returns
    /// `lost_data` non-empty only when fewer than `k` blocks survive.
    pub fn decode(
        &self,
        stored: &mut [Option<Vec<u8>>],
    ) -> Result<crate::DecodeReport, CodecError> {
        if stored.len() != self.n {
            return Err(CodecError::WrongStripeWidth {
                got: stored.len(),
                expected: self.n,
            });
        }
        let block_len = match stored.iter().flatten().next() {
            Some(b) => b.len(),
            None => return Err(CodecError::EmptyStripe),
        };
        for (i, b) in stored.iter().enumerate() {
            if let Some(b) = b {
                if b.len() != block_len {
                    return Err(CodecError::UnequalBlockLengths {
                        index: i,
                        expected: block_len,
                        got: b.len(),
                    });
                }
            }
        }
        let missing_data: Vec<u32> = (0..self.k as u32)
            .filter(|&i| stored[i as usize].is_none())
            .collect();
        if missing_data.is_empty() {
            return Ok(crate::DecodeReport {
                lost_data: vec![],
                recovered: vec![],
                recovery_depth: 0,
            });
        }
        let present: Vec<usize> = (0..self.n).filter(|&i| stored[i].is_some()).collect();
        if present.len() < self.k {
            return Ok(crate::DecodeReport {
                lost_data: missing_data,
                recovered: vec![],
                recovery_depth: 0,
            });
        }
        // Solve A · data = observed for the first k present blocks.
        let rows: Vec<usize> = present[..self.k].to_vec();
        let mut a: Vec<Vec<u8>> = rows.iter().map(|&r| self.generator_row(r)).collect();
        let mut b: Vec<Vec<u8>> = crate::pool::with_thread_pool(|p| {
            rows.iter()
                .map(|&r| p.take_copy(stored[r].as_deref().expect("present")))
                .collect()
        });
        // Gauss–Jordan elimination (any k rows of an MDS generator are
        // independent, so pivots always exist).
        for col in 0..self.k {
            let pivot = (col..self.k)
                .find(|&r| a[r][col] != 0)
                .expect("MDS submatrix is invertible");
            a.swap(col, pivot);
            b.swap(col, pivot);
            let inv = self.field.inv(a[col][col]);
            for cell in a[col].iter_mut() {
                *cell = self.field.mul(*cell, inv);
            }
            for byte in b[col].iter_mut() {
                *byte = self.field.mul(*byte, inv);
            }
            let acol = a[col].clone();
            let bcol = crate::pool::with_thread_pool(|p| p.take_copy(&b[col]));
            for r in 0..self.k {
                if r != col && a[r][col] != 0 {
                    let factor = a[r][col];
                    for c in 0..self.k {
                        a[r][c] = Gf256::add(a[r][c], self.field.mul(factor, acol[c]));
                    }
                    self.field.mul_acc(&mut b[r], &bcol, factor);
                }
            }
            crate::pool::with_thread_pool(|p| p.recycle(bcol));
        }
        // b now holds the data blocks in order; fill the gaps and recycle
        // the solved rows whose slots were already present.
        let mut recovered = Vec::new();
        for (i, block) in b.into_iter().enumerate() {
            if stored[i].is_none() {
                stored[i] = Some(block);
                recovered.push(i as u32);
            } else {
                crate::pool::with_thread_pool(|p| p.recycle(block));
            }
        }
        // MDS solve: every recovered block comes straight from surviving
        // blocks, so the dependency chain is flat.
        let recovery_depth = u64::from(!recovered.is_empty());
        Ok(crate::DecodeReport {
            lost_data: vec![],
            recovered,
            recovery_depth,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|j| ((i * 131 + j * 17) % 256) as u8).collect())
            .collect()
    }

    #[test]
    fn encode_is_systematic() {
        let rs = ReedSolomon::new(4, 8);
        let data = sample_data(4, 16);
        let blocks = rs.encode(&data).unwrap();
        assert_eq!(blocks.len(), 8);
        assert_eq!(&blocks[..4], &data[..]);
    }

    #[test]
    fn any_k_of_n_reconstructs() {
        // MDS property, exhaustively for a small code: every 4-of-8 subset.
        let rs = ReedSolomon::new(4, 8);
        let data = sample_data(4, 8);
        let blocks = rs.encode(&data).unwrap();
        let mut it = tornado_bitset::CombinationIter::new(8, 4);
        while let Some(keep) = it.next_slice() {
            let mut stored: Vec<Option<Vec<u8>>> = vec![None; 8];
            for &i in keep {
                stored[i] = Some(blocks[i].clone());
            }
            let report = rs.decode(&mut stored).unwrap();
            assert!(report.lost_data.is_empty(), "keep {keep:?}");
            for i in 0..4 {
                assert_eq!(stored[i].as_deref().unwrap(), &data[i][..], "keep {keep:?}");
            }
        }
    }

    #[test]
    fn fewer_than_k_blocks_is_reported_lost() {
        let rs = ReedSolomon::new(4, 8);
        let blocks = rs.encode(&sample_data(4, 8)).unwrap();
        let mut stored: Vec<Option<Vec<u8>>> = vec![None; 8];
        stored[2] = Some(blocks[2].clone());
        stored[5] = Some(blocks[5].clone());
        stored[7] = Some(blocks[7].clone());
        let report = rs.decode(&mut stored).unwrap();
        assert_eq!(report.lost_data, vec![0, 1, 3]);
    }

    #[test]
    fn paper_scale_roundtrip() {
        let rs = ReedSolomon::new(48, 96);
        let data = sample_data(48, 64);
        let blocks = rs.encode(&data).unwrap();
        // Lose 48 blocks — exactly the information-theoretic limit.
        let mut stored: Vec<Option<Vec<u8>>> = blocks.iter().cloned().map(Some).collect();
        for i in 0..48 {
            stored[(i * 2) % 96] = None; // all even positions
        }
        let report = rs.decode(&mut stored).unwrap();
        assert!(report.lost_data.is_empty());
        for i in 0..48 {
            assert_eq!(stored[i].as_deref().unwrap(), &data[i][..]);
        }
    }

    #[test]
    fn shape_errors() {
        let rs = ReedSolomon::new(4, 8);
        assert!(matches!(
            rs.encode(&sample_data(3, 8)),
            Err(CodecError::WrongBlockCount { .. })
        ));
        let mut uneven = sample_data(4, 8);
        uneven[1] = vec![0; 7];
        assert!(matches!(
            rs.encode(&uneven),
            Err(CodecError::UnequalBlockLengths { .. })
        ));
        let mut short: Vec<Option<Vec<u8>>> = vec![Some(vec![0; 4]); 7];
        assert!(matches!(
            rs.decode(&mut short),
            Err(CodecError::WrongStripeWidth { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "0 < k < n")]
    fn rejects_degenerate_parameters() {
        ReedSolomon::new(8, 8);
    }

    #[test]
    fn no_losses_is_a_fast_noop() {
        let rs = ReedSolomon::new(4, 8);
        let blocks = rs.encode(&sample_data(4, 8)).unwrap();
        let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
        let report = rs.decode(&mut stored).unwrap();
        assert!(report.recovered.is_empty());
    }
}
