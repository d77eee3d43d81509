//! The real data path: byte blocks in, byte blocks out.
//!
//! Encoding writes every stored byte once: [`EncodedStripe::from_object`]
//! cuts its data blocks straight out of the payload, [`Codec::encode`] /
//! `Codec::encode_owned` take theirs as given, and all three run one
//! check loop that builds each check block in a buffer nobody zeroed and
//! digests it as it lands — the stripe is not streamed again to hash it.
//!
//! This module is the one place that knows what a stripe's bytes are and
//! how they are rebuilt. *Framing* — an 8-byte length header, the payload,
//! zero padding to `k` equal blocks — is written by
//! [`EncodedStripe::from_object`] and read back by
//! [`EncodedStripe::payload_range`]; nothing else names the header's size.
//! *Rebuilding* is [`Codec::replay`], the only loop that turns a
//! [`RecoveryStep`] into bytes: [`Codec::decode`] and the store's
//! federation hand it a stripe of separate blocks, the store's scrubber the
//! same stripe borrowed where its devices hold it, the store's GET miss
//! path the contiguous data half it is about to return, and a recovered
//! block is built where it will be read from.

use crate::erasure::{ErasureDecoder, RecoveryStep};
use crate::error::CodecError;
use crate::kernels::{append_checksummed, checksum, xor_checksummed, xor_into, Ahead};
use crate::pool;
use std::ops::Range;
use tornado_graph::{Graph, NodeId};

/// Outcome of a block decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeReport {
    /// Data nodes that could not be recovered (empty on success).
    pub lost_data: Vec<NodeId>,
    /// Nodes recovered by the peeling schedule, in recovery order.
    pub recovered: Vec<NodeId>,
    /// Longest dependency chain in the recovery schedule: 0 when nothing
    /// was recovered, 1 when every lost block was rebuilt directly from
    /// surviving blocks, deeper when recovered blocks fed later steps —
    /// the serial-latency component of a recovery's repair cost.
    pub recovery_depth: u64,
}

impl DecodeReport {
    /// Whether every data block is present after decoding.
    pub fn complete(&self) -> bool {
        self.lost_data.is_empty()
    }
}

/// XOR block codec bound to a graph.
///
/// See the crate-level docs for the encode/decode semantics. All blocks in a
/// stripe must have equal length; [`EncodedStripe`] provides the
/// padding/framing to store arbitrary byte payloads.
pub struct Codec<'g> {
    graph: &'g Graph,
}

impl<'g> Codec<'g> {
    /// Creates a codec for `graph`.
    pub fn new(graph: &'g Graph) -> Self {
        Self { graph }
    }

    /// The underlying graph.
    pub(crate) fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Encodes `num_data` equal-length data blocks into `num_nodes` stored
    /// blocks (the data blocks followed by the computed check blocks).
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, CodecError> {
        self.encode_owned(data.to_vec())
    }

    /// Like [`Codec::encode`], but takes ownership of the data blocks so
    /// they become the stored blocks without a per-block clone. Check
    /// blocks are built in buffers from the calling thread's
    /// [`pool::BlockPool`].
    pub(crate) fn encode_owned(&self, data: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, CodecError> {
        let k = self.graph.num_data();
        if data.len() != k {
            return Err(CodecError::WrongBlockCount {
                got: data.len(),
                expected: k,
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
        let mut blocks = data;
        self.push_checks(&mut blocks, block_len, None);
        Ok(blocks)
    }

    /// The one encoder: appends every check block to the `k` data blocks of
    /// `block_len` bytes in `blocks`, and its digest to `digests` when the
    /// caller keeps them. A forward sweep: every left neighbour has a
    /// smaller id, so it is already materialised when its check is computed.
    fn push_checks(
        &self,
        blocks: &mut Vec<Vec<u8>>,
        block_len: usize,
        mut digests: Option<&mut Vec<u64>>,
    ) {
        blocks.reserve(self.graph.num_nodes() - blocks.len());
        for check in self.graph.check_ids() {
            let mut block = pool::with_thread_pool(|p| p.take_empty(block_len));
            let neighbours = self.graph.check_neighbors(check).iter();
            let sources = neighbours.map(|&n| blocks[n as usize].as_slice());
            let digest = xor_checksummed(&mut block, block_len, sources);
            if let Some(digests) = digests.as_deref_mut() {
                digests.push(digest);
            }
            blocks.push(block);
        }
    }

    /// Decodes a stripe in place: `stored[i]` is `Some(block)` if node `i`'s
    /// block is available, `None` if erased. Recoverable blocks (data *and*
    /// check) are filled in; the report lists what was recovered and what
    /// stayed lost.
    pub fn decode(&self, stored: &mut [Option<Vec<u8>>]) -> Result<DecodeReport, CodecError> {
        let n = self.graph.num_nodes();
        if stored.len() != n {
            return Err(CodecError::WrongStripeWidth {
                got: stored.len(),
                expected: n,
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

        let missing: Vec<usize> = (0..n).filter(|&i| stored[i].is_none()).collect();
        let detail = ErasureDecoder::new(self.graph).decode_detailed(&missing);

        let recovery_depth = self.replay(&detail.schedule, &mut [], stored);
        let rebuilt = detail.schedule.iter().map(|s| s.node_and_check().0);
        Ok(DecodeReport {
            lost_data: detail.lost_data,
            recovered: rebuilt.collect(),
            recovery_depth,
        })
    }

    /// Replays a peeling `schedule` with real XOR — the one loop that turns
    /// a [`RecoveryStep`] into bytes. The stripe's first `d` nodes lie back
    /// to back in `front`, one block each; node `d + i` is `rest[i]`, so
    /// `d` is the graph's node count less `rest.len()`. [`Codec::decode`]
    /// and a guided repair hold every block apart (`front` empty); a GET
    /// holds the data half in the buffer it returns (`d = k`) and only the
    /// check blocks it fetched in `rest`.
    ///
    /// A block of `rest` is owned (`Vec<u8>`) or borrowed (a
    /// `Cow::Borrowed` of bytes that lie elsewhere — a scrub lends the
    /// replay its repair cone where the devices hold it); the replay only
    /// reads them, and a rebuilt one is always owned (`B::from` of its
    /// accumulator).
    ///
    /// Each step's node is rebuilt where it belongs: a node of `front`
    /// over whatever its slot held (check block copied in, the check's
    /// other neighbours folded in on top), a node of `rest` into its empty
    /// slot, in an accumulator from the calling thread's
    /// [`pool::BlockPool`]. Only the blocks the schedule reads need be
    /// present. Returns the longest dependency chain: blocks present on
    /// entry sit at depth 0, each rebuilt block one deeper than its deepest
    /// input.
    ///
    /// # Panics
    /// Panics if a block of `rest` that a step reads is neither present
    /// nor rebuilt by an earlier step — the schedule was not derived for
    /// this availability — or if `front` is not `d` equal blocks, or `rest`
    /// is longer than the graph has nodes.
    pub fn replay<B: AsRef<[u8]> + From<Vec<u8>>>(
        &self,
        schedule: &[RecoveryStep],
        front: &mut [u8],
        rest: &mut [Option<B>],
    ) -> u64 {
        let d = (self.graph.num_nodes().checked_sub(rest.len()))
            .expect("rest holds at most one block per node");
        let block_len = match d {
            0 => rest.iter().flatten().next().map_or(0, |b| b.as_ref().len()),
            _ => front.len() / d,
        };
        assert_eq!(front.len(), d * block_len, "front is d equal blocks");
        let mut depth = vec![0u64; self.graph.num_nodes()];
        let mut recovery_depth = 0u64;
        for step in schedule {
            let (node, via) = step.node_and_check();
            // `front` cut around the slot being rebuilt — an empty slot at
            // its far end when the node lives in `rest`.
            let at = (node as usize).min(d);
            let (before, tail) = front.split_at_mut(at * block_len);
            let (slot, after) = tail.split_at_mut(if at < d { block_len } else { 0 });
            let block = |v: NodeId| -> Option<&[u8]> {
                let v = v as usize;
                match v.checked_sub(d) {
                    Some(i) => rest[i].as_ref().map(B::as_ref),
                    None if v < at => Some(&before[v * block_len..][..block_len]),
                    None => Some(&after[(v - at - 1) * block_len..][..block_len]),
                }
            };
            // A peel starts from its check block, a re-encode from zero;
            // both then fold in the check's other neighbours.
            let via_block =
                (via != node).then(|| block(via).expect("schedule guarantees via is present"));
            let mut acc = Vec::new();
            let dst = if at < d {
                match via_block {
                    Some(b) => slot.copy_from_slice(b),
                    None => slot.fill(0),
                }
                slot
            } else {
                acc = pool::with_thread_pool(|p| match via_block {
                    Some(b) => p.take_copy(b),
                    None => p.take_zeroed(block_len),
                });
                &mut acc[..]
            };
            let mut deepest = via_block.map_or(0, |_| depth[via as usize]);
            for &nbr in self.graph.check_neighbors(via) {
                if nbr != node {
                    let b =
                        block(nbr).expect("schedule guarantees the other neighbours are present");
                    xor_into(dst, b);
                    deepest = deepest.max(depth[nbr as usize]);
                }
            }
            if at == d {
                rest[node as usize - d] = Some(B::from(acc));
            }
            depth[node as usize] = deepest + 1;
            recovery_depth = recovery_depth.max(deepest + 1);
        }
        recovery_depth
    }
}

/// A self-framing encoded stripe: arbitrary payload bytes split into data
/// blocks (with a length header and zero padding), then encoded.
///
/// ```
/// use tornado_graph::GraphBuilder;
/// use tornado_codec::{Codec, EncodedStripe};
///
/// let mut b = GraphBuilder::new(4);
/// b.begin_level("c1");
/// b.add_check(&[0, 1]);
/// b.add_check(&[2, 3]);
/// let g = b.build().unwrap();
/// let codec = Codec::new(&g);
///
/// let payload = b"hello tornado archival storage".to_vec();
/// let stripe = EncodedStripe::from_object(&codec, &payload).unwrap();
/// let mut stored: Vec<Option<Vec<u8>>> = stripe.blocks().iter().cloned().map(Some).collect();
/// stored[0] = None; // lose a device
/// let out = EncodedStripe::recover_object(&codec, &mut stored).unwrap().unwrap();
/// assert_eq!(out, payload);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EncodedStripe {
    blocks: Vec<Vec<u8>>,
    digests: Vec<u64>,
    block_len: usize,
}

/// Length-header size prepended to the payload before splitting.
const LEN_HEADER: usize = 8;

impl EncodedStripe {
    /// Encodes `payload` into a stripe for `codec`'s graph. The framed
    /// object — an 8-byte length header, the payload, zero padding to `k`
    /// equal blocks — is never assembled: each data block is built from its
    /// slice of `payload` and hashed as it lands, so the stripe carries the
    /// [`checksum`] of every block. Block buffers come from the calling
    /// thread's [`pool::BlockPool`].
    pub fn from_object(codec: &Codec<'_>, payload: &[u8]) -> Result<Self, CodecError> {
        let (n, k) = (codec.graph().num_nodes(), codec.graph().num_data());
        let block_len = (payload.len() + LEN_HEADER).div_ceil(k).max(1);
        let header = (payload.len() as u64).to_le_bytes();
        // Where offset `at` of the framed object falls in the payload.
        let in_payload = |at: usize| at.saturating_sub(LEN_HEADER).min(payload.len());
        let mut blocks = Vec::with_capacity(n);
        let mut digests = Vec::with_capacity(n);
        pool::with_thread_pool(|p| {
            for start in (0..k).map(|i| i * block_len) {
                let end = start + block_len;
                let body = &payload[in_payload(start)..in_payload(end)];
                let mut block = p.take_empty(block_len);
                digests.push(if body.len() == block_len {
                    append_checksummed(&mut block, body, Ahead::NONE)
                } else {
                    // The header's block(s) and whatever the payload does
                    // not fill: a few bytes of a 64 KiB object's first and
                    // last block, most of a tiny one.
                    block.extend_from_slice(&header[start.min(LEN_HEADER)..end.min(LEN_HEADER)]);
                    block.extend_from_slice(body);
                    block.resize(block_len, 0);
                    checksum(&block, Ahead::NONE)
                });
                blocks.push(block);
            }
        });
        codec.push_checks(&mut blocks, block_len, Some(&mut digests));
        Ok(Self {
            blocks,
            digests,
            block_len,
        })
    }

    /// The stored blocks, one per graph node.
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }

    /// The [`checksum`] of every stored block, by graph node: computed as
    /// the blocks were built.
    pub fn digests(&self) -> &[u64] {
        &self.digests
    }

    /// Consumes the stripe and hands the stored blocks over — the move that
    /// lets a store place encoded blocks on devices without cloning them.
    pub fn into_blocks(self) -> Vec<Vec<u8>> {
        self.blocks
    }

    /// As [`EncodedStripe::into_blocks`], with the blocks' digests.
    pub fn into_parts(self) -> (Vec<Vec<u8>>, Vec<u64>) {
        (self.blocks, self.digests)
    }

    /// Per-block length in bytes.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// The inverse of [`EncodedStripe::from_object`]'s framing: where the
    /// payload lies in `framed`, a stripe's data blocks laid end to end.
    /// `None` when `framed` is too short to hold a length header, or the
    /// header names more bytes than follow it — the blocks are not a
    /// stripe `from_object` wrote.
    pub fn payload_range(framed: &[u8]) -> Option<Range<usize>> {
        let header = framed.first_chunk::<LEN_HEADER>()?;
        let len = usize::try_from(u64::from_le_bytes(*header)).ok()?;
        let end = LEN_HEADER.checked_add(len)?;
        (end <= framed.len()).then_some(LEN_HEADER..end)
    }

    /// Decodes a (possibly damaged) stored stripe and reassembles the
    /// payload. Returns `Ok(None)` if reconstruction failed or the data
    /// blocks do not frame a payload.
    pub fn recover_object(
        codec: &Codec<'_>,
        stored: &mut [Option<Vec<u8>>],
    ) -> Result<Option<Vec<u8>>, CodecError> {
        let report = codec.decode(stored)?;
        if !report.complete() {
            return Ok(None);
        }
        let k = codec.graph().num_data();
        let mut framed = Vec::new();
        for block in stored.iter().take(k) {
            framed.extend_from_slice(block.as_ref().expect("decode reported complete"));
        }
        Ok(Self::payload_range(&framed).map(|payload| framed[payload].to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_graph::GraphBuilder;

    fn cascade() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        b.build().unwrap()
    }

    fn sample_data(len: usize) -> Vec<Vec<u8>> {
        (0..4u8)
            .map(|i| vec![i.wrapping_mul(37).wrapping_add(1); len])
            .collect()
    }

    #[test]
    fn encode_produces_xor_checks() {
        let g = cascade();
        let c = Codec::new(&g);
        let data = sample_data(16);
        let blocks = c.encode(&data).unwrap();
        assert_eq!(blocks.len(), 7);
        for i in 0..16 {
            assert_eq!(blocks[4][i], data[0][i] ^ data[1][i]);
            assert_eq!(blocks[5][i], data[2][i] ^ data[3][i]);
            assert_eq!(blocks[6][i], blocks[4][i] ^ blocks[5][i]);
        }
    }

    #[test]
    fn encode_rejects_bad_shapes() {
        let g = cascade();
        let c = Codec::new(&g);
        assert!(matches!(
            c.encode(&sample_data(8)[..3]),
            Err(CodecError::WrongBlockCount {
                got: 3,
                expected: 4
            })
        ));
        let mut uneven = sample_data(8);
        uneven[2] = vec![0; 9];
        assert!(matches!(
            c.encode(&uneven),
            Err(CodecError::UnequalBlockLengths { index: 2, .. })
        ));
    }

    #[test]
    fn decode_recovers_bytes_exactly() {
        let g = cascade();
        let c = Codec::new(&g);
        let data = sample_data(32);
        let blocks = c.encode(&data).unwrap();
        // Lose data 0 and check 4: requires re-encode of 4 via deeper level.
        let mut stored: Vec<Option<Vec<u8>>> = blocks.iter().cloned().map(Some).collect();
        stored[0] = None;
        stored[4] = None;
        let report = c.decode(&mut stored).unwrap();
        assert!(report.complete());
        assert_eq!(report.recovered, vec![4, 0]);
        assert_eq!(stored[0].as_deref().unwrap(), &data[0][..]);
        assert_eq!(stored[4].as_deref().unwrap(), &blocks[4][..]);
    }

    #[test]
    fn decode_reports_unrecoverable_data() {
        let g = cascade();
        let c = Codec::new(&g);
        let blocks = c.encode(&sample_data(8)).unwrap();
        let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
        stored[0] = None;
        stored[1] = None; // closed pair under check 4
        let report = c.decode(&mut stored).unwrap();
        assert!(!report.complete());
        assert_eq!(report.lost_data, vec![0, 1]);
        assert!(stored[0].is_none());
        // Data 2, 3 untouched; nothing needed recovery besides them.
        assert!(stored[2].is_some());
    }

    #[test]
    fn decode_rejects_bad_shapes() {
        let g = cascade();
        let c = Codec::new(&g);
        let mut short: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; 4]); 6];
        assert!(matches!(
            c.decode(&mut short),
            Err(CodecError::WrongStripeWidth {
                got: 6,
                expected: 7
            })
        ));
        let mut empty: Vec<Option<Vec<u8>>> = vec![None; 7];
        assert!(matches!(c.decode(&mut empty), Err(CodecError::EmptyStripe)));
        let mut uneven: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; 4]); 7];
        uneven[3] = Some(vec![0u8; 5]);
        assert!(matches!(
            c.decode(&mut uneven),
            Err(CodecError::UnequalBlockLengths { index: 3, .. })
        ));
    }

    #[test]
    fn stripe_framing_roundtrip_various_sizes() {
        let g = cascade();
        let c = Codec::new(&g);
        for size in [0usize, 1, 7, 8, 9, 31, 32, 33, 1000] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
            let stripe = EncodedStripe::from_object(&c, &payload).unwrap();
            let mut stored: Vec<Option<Vec<u8>>> =
                stripe.blocks().iter().cloned().map(Some).collect();
            let out = EncodedStripe::recover_object(&c, &mut stored)
                .unwrap()
                .unwrap();
            assert_eq!(out, payload, "size {size}");
        }
    }

    #[test]
    fn stripe_survives_tolerable_erasures() {
        let g = cascade();
        let c = Codec::new(&g);
        let payload = b"the quick brown fox jumps over the lazy dog".to_vec();
        let stripe = EncodedStripe::from_object(&c, &payload).unwrap();
        for lose in [vec![0usize], vec![2, 5], vec![0, 4], vec![6]] {
            let mut stored: Vec<Option<Vec<u8>>> =
                stripe.blocks().iter().cloned().map(Some).collect();
            for &l in &lose {
                stored[l] = None;
            }
            let out = EncodedStripe::recover_object(&c, &mut stored).unwrap();
            assert_eq!(out.unwrap(), payload, "losing {lose:?}");
        }
    }

    #[test]
    fn stripe_reports_unrecoverable_as_none() {
        let g = cascade();
        let c = Codec::new(&g);
        let stripe = EncodedStripe::from_object(&c, b"payload").unwrap();
        let mut stored: Vec<Option<Vec<u8>>> = stripe.blocks().iter().cloned().map(Some).collect();
        stored[0] = None;
        stored[1] = None;
        assert_eq!(
            EncodedStripe::recover_object(&c, &mut stored).unwrap(),
            None
        );
    }

    #[test]
    fn a_length_header_that_does_not_fit_is_none_never_a_panic() {
        let g = cascade();
        let c = Codec::new(&g);
        let room = 4 * 6 - LEN_HEADER;
        for (header, fits) in [
            (0u64, Some(0)),
            (room as u64, Some(room)),
            (room as u64 + 1, None),
            (usize::MAX as u64 - 7, None),
            (u64::MAX, None),
        ] {
            let mut framed = vec![0x5Au8; 4 * 6];
            framed[..LEN_HEADER].copy_from_slice(&header.to_le_bytes());
            let range = EncodedStripe::payload_range(&framed);
            assert_eq!(
                range,
                fits.map(|len| LEN_HEADER..LEN_HEADER + len),
                "header {header}"
            );
            let data: Vec<Vec<u8>> = framed.chunks(6).map(<[u8]>::to_vec).collect();
            let mut stored: Vec<Option<Vec<u8>>> =
                c.encode(&data).unwrap().into_iter().map(Some).collect();
            let out = EncodedStripe::recover_object(&c, &mut stored).unwrap();
            assert_eq!(out, fits.map(|len| vec![0x5A; len]), "header {header}");
        }
        // Four one-byte data blocks: no room for a header at all.
        for short in 0..LEN_HEADER {
            assert_eq!(
                EncodedStripe::payload_range(&vec![0xFF; short]),
                None,
                "{short} bytes"
            );
        }
        let mut stored: Vec<Option<Vec<u8>>> = c
            .encode(&vec![vec![0xFF]; 4])
            .unwrap()
            .into_iter()
            .map(Some)
            .collect();
        assert_eq!(
            EncodedStripe::recover_object(&c, &mut stored).unwrap(),
            None
        );
    }

    #[test]
    fn payload_range_inverts_from_object() {
        let g = cascade();
        let c = Codec::new(&g);
        let (k, b) = (g.num_data(), 5);
        // The last two: blocks filled to the byte, and one byte over.
        for size in [0, 1, k * b - LEN_HEADER, k * b - LEN_HEADER + 1] {
            let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
            let stripe = EncodedStripe::from_object(&c, &payload).unwrap();
            let framed = stripe.blocks()[..k].concat();
            let range = EncodedStripe::payload_range(&framed).expect("framed by from_object");
            assert_eq!(framed[range], payload, "size {size}");
        }
    }

    #[test]
    fn from_object_matches_encode_over_a_hand_framed_buffer() {
        let graph_1 = tornado_graph::graphml::from_graphml(include_str!(
            "../../core/assets/tornado_graph_1.graphml"
        ))
        .unwrap();
        for g in [&graph_1, &cascade()] {
            let c = Codec::new(g);
            let k = g.num_data();
            // The last fills its `k` blocks of 1,366 bytes with no padding.
            let exact_fit = k * 1_366 - 8;
            for size in [
                0,
                1,
                7,
                8,
                9,
                40,
                41,
                65_535,
                65_536,
                65_537,
                1 << 20,
                exact_fit,
            ] {
                let payload: Vec<u8> = (0..size).map(|i| (i * 31 % 251) as u8).collect();
                let block_len = (size + 8).div_ceil(k).max(1);
                let mut framed = vec![0u8; k * block_len];
                framed[..8].copy_from_slice(&(size as u64).to_le_bytes());
                framed[8..8 + size].copy_from_slice(&payload);
                let data: Vec<Vec<u8>> = framed.chunks(block_len).map(<[u8]>::to_vec).collect();
                let expect = c.encode(&data).unwrap();

                let stripe = EncodedStripe::from_object(&c, &payload).unwrap();
                assert_eq!(stripe.block_len(), block_len, "size {size}");
                assert!(stripe.blocks() == &expect[..], "size {size}, k {k}");
                let digests: Vec<u64> = expect.iter().map(|b| checksum(b, Ahead::NONE)).collect();
                assert_eq!(stripe.digests(), digests, "size {size}, k {k}");
                assert_eq!(stripe.clone().into_parts(), (expect, digests));
            }
        }
    }

    #[test]
    fn encode_owned_matches_encode() {
        let g = cascade();
        let c = Codec::new(&g);
        let data = sample_data(16);
        let by_ref = c.encode(&data).unwrap();
        let by_move = c.encode_owned(data).unwrap();
        assert_eq!(by_ref, by_move);
    }

    #[test]
    fn into_blocks_hands_over_the_stored_blocks() {
        let g = cascade();
        let c = Codec::new(&g);
        let stripe = EncodedStripe::from_object(&c, b"move me").unwrap();
        let expected = stripe.blocks().to_vec();
        assert_eq!(stripe.into_blocks(), expected);
    }

    #[test]
    fn zero_length_blocks_are_legal() {
        let g = cascade();
        let c = Codec::new(&g);
        let data: Vec<Vec<u8>> = vec![vec![]; 4];
        let blocks = c.encode(&data).unwrap();
        assert!(blocks.iter().all(|b| b.is_empty()));
    }
}
