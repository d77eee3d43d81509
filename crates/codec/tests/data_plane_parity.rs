//! The data plane against its byte-serial oracles.
//!
//! The word-wide kernels ([`tornado_codec::kernels`]) must produce exactly
//! the bytes of the byte-serial `scalar` oracle on every length (including
//! empty, sub-word, and odd tails), every slice offset (the word body
//! aligns to `dst`, so misaligned slices exercise the head/tail splits),
//! and every coefficient (including the peeled `c == 0` / `c == 1`
//! cases). On top of the kernel-level properties, the one loop that
//! rebuilds blocks — [`Codec::replay`] — is run over encode → erase →
//! peel at both layouts the workspace uses (every block apart; the data
//! half contiguous) and must rebuild, at block sizes from one byte to a
//! 1 MiB object's 21,846, exactly the encoded block *and* the XOR of its
//! equation as `scalar::xor_into` computes it.

#[allow(dead_code)]
mod oracle;

use oracle::scalar;
use proptest::prelude::*;
use tornado_codec::gf256::Gf256;
use tornado_codec::{kernels, Codec, ErasureDecoder, RecoveryStep};
use tornado_gen::cascaded::generate_fixed_degree;
use tornado_gen::mirror::generate_mirror;
use tornado_gen::{TornadoGenerator, TornadoParams};
use tornado_graph::{Graph, GraphBuilder};

/// Deterministic pseudo-random bytes, xorshift-style like the other
/// property suites in this workspace.
fn bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s as u8
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn xor_matches_scalar(len in 0usize..257, offset in 0usize..8, seed in any::<u64>()) {
        let src = bytes(len + offset, seed);
        let mut word = bytes(len + offset, seed ^ 0x9E37_79B9);
        let mut byte = word.clone();
        kernels::xor_into(&mut word[offset..], &src[offset..]);
        scalar::xor_into(&mut byte[offset..], &src[offset..]);
        prop_assert_eq!(word, byte);
    }

    #[test]
    fn mul_acc_matches_scalar(
        len in 0usize..257,
        offset in 0usize..8,
        c in any::<u8>(),
        seed in any::<u64>(),
    ) {
        let f = Gf256::new();
        let src = bytes(len + offset, seed);
        let mut word = bytes(len + offset, seed ^ 0x517C_C1B7);
        let mut byte = word.clone();
        kernels::mul_acc(&f, &mut word[offset..], &src[offset..], c);
        if c != 0 {
            scalar::mul_acc(&f, &mut byte[offset..], &src[offset..], c);
        }
        prop_assert_eq!(word, byte, "c = {}", c);
    }

    #[test]
    fn mul_table_matches_field_on_random_bytes(
        c in any::<u8>(),
        b in any::<u8>(),
    ) {
        let f = Gf256::new();
        let t = kernels::MulTable::new(&f, c);
        prop_assert_eq!(t.mul(b), f.mul(c, b));
    }

    #[test]
    fn checksum_matches_scalar(len in 0usize..257, offset in 0usize..8, seed in any::<u64>()) {
        let buf = bytes(len + offset, seed);
        prop_assert_eq!(
            tornado_codec::checksum(&buf[offset..]),
            scalar::checksum(&buf[offset..]),
        );
    }

    #[test]
    fn checksum_is_sensitive_to_any_single_byte(
        len in 1usize..257,
        seed in any::<u64>(),
        pos_seed in any::<u64>(),
        mask in 1u8..=255,
    ) {
        let mut buf = bytes(len, seed);
        let clean = tornado_codec::checksum(&buf);
        let pos = (pos_seed % len as u64) as usize;
        buf[pos] ^= mask;
        prop_assert_ne!(tornado_codec::checksum(&buf), clean, "flip at {} of {}", pos, len);
    }

    #[test]
    fn checksum_distinguishes_truncation(len in 1usize..257, seed in any::<u64>()) {
        // A digest that ignored length would accept a block truncated at a
        // zero tail; the length fold must catch it.
        let mut buf = bytes(len, seed);
        *buf.last_mut().unwrap() = 0;
        prop_assert_ne!(
            tornado_codec::checksum(&buf),
            tornado_codec::checksum(&buf[..len - 1]),
        );
    }
}

fn pattern(len: usize, salt: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
        .collect()
}

#[test]
fn xor_matches_scalar_across_lengths_and_offsets() {
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257] {
        for offset in 0..4usize {
            let src_full = pattern(len + offset, 3);
            let mut word = pattern(len + offset, 7);
            let mut byte = word.clone();
            kernels::xor_into(&mut word[offset..], &src_full[offset..]);
            scalar::xor_into(&mut byte[offset..], &src_full[offset..]);
            assert_eq!(word, byte, "len {len} offset {offset}");
        }
    }
}

#[test]
fn mul_acc_matches_scalar_across_lengths() {
    let f = Gf256::new();
    for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 256, 257] {
        for c in [2u8, 3, 29, 0x53, 255] {
            let src = pattern(len, 5);
            let mut word = pattern(len, 9);
            let mut byte = word.clone();
            kernels::mul_acc(&f, &mut word, &src, c);
            scalar::mul_acc(&f, &mut byte, &src, c);
            assert_eq!(word, byte, "len {len} c {c}");
        }
    }
}

#[test]
fn checksum_matches_scalar_across_lengths_and_offsets() {
    for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257] {
        for offset in 0..4usize {
            let data = pattern(len + offset, 17);
            assert_eq!(
                kernels::checksum(&data[offset..], kernels::Ahead::NONE),
                scalar::checksum(&data[offset..]),
                "len {len} offset {offset}"
            );
        }
    }
}

/// The stripe with its first `d` blocks laid end to end — an erased one's
/// slot holding whatever — and the others apart, the erased ones absent.
/// At `d = k` this is what a GET holds after its data pass.
fn split_layout(blocks: &[Vec<u8>], d: usize, erased: &[usize]) -> (Vec<u8>, Vec<Option<Vec<u8>>>) {
    let gone = |i: &usize| erased.contains(i);
    let front = (0..d).flat_map(|i| {
        blocks[i]
            .iter()
            .map(move |&b| if gone(&i) { 0xA5 } else { b })
    });
    let rest = (d..blocks.len()).map(|i| (!gone(&i)).then(|| blocks[i].clone()));
    (front.collect(), rest.collect())
}

/// What `step` must rebuild, from the encoded `blocks`, one byte at a time.
fn equation_by_oracle(graph: &Graph, blocks: &[Vec<u8>], step: &RecoveryStep) -> Vec<u8> {
    let (node, via) = step.node_and_check();
    let mut acc = if via == node {
        vec![0; blocks[0].len()]
    } else {
        blocks[via as usize].clone()
    };
    for &nbr in graph
        .check_neighbors(via)
        .iter()
        .filter(|&&nbr| nbr != node)
    {
        scalar::xor_into(&mut acc, &blocks[nbr as usize]);
    }
    acc
}

/// Encodes `block_len`-byte blocks, erases `erased`, and replays the
/// peeling schedule at `d = 0`, at `d = k` and — no caller's layout, but
/// the one where checks too are rebuilt in place — at `d = n`: every
/// rebuilt block is the encoded one and the oracle's, every layout reports
/// one depth, and [`Codec::decode`] is the `d = 0` replay. `case` names
/// the inputs.
fn assert_replay_rebuilds(
    graph: &Graph,
    block_len: usize,
    seed: u64,
    erased: &[usize],
    case: &str,
) {
    let codec = Codec::new(graph);
    let (n, k) = (graph.num_nodes(), graph.num_data());
    let data: Vec<Vec<u8>> = (0..k)
        .map(|i| bytes(block_len, seed ^ (i as u64) << 20))
        .collect();
    let blocks = codec.encode(&data).expect("encode");
    let detail = ErasureDecoder::new(graph).decode_detailed(erased);

    let mut apart: Vec<Option<Vec<u8>>> = (0..n)
        .map(|i| (!erased.contains(&i)).then(|| blocks[i].clone()))
        .collect();
    let mut decoded = apart.clone();
    let depth = codec.replay(&detail.schedule, &mut [], &mut apart);
    for step in &detail.schedule {
        let node = step.node_and_check().0 as usize;
        let expect = &blocks[node];
        assert!(
            *expect == equation_by_oracle(graph, &blocks, step),
            "oracle, node {node}, {case}"
        );
        assert!(
            apart[node].as_ref() == Some(expect),
            "d = 0, node {node}, {case}"
        );
    }
    for d in [k, n] {
        let (mut front, mut rest) = split_layout(&blocks, d, erased);
        assert_eq!(
            codec.replay(&detail.schedule, &mut front, &mut rest),
            depth,
            "depth, d = {d}, {case}"
        );
        for node in detail
            .schedule
            .iter()
            .map(|step| step.node_and_check().0 as usize)
        {
            let rebuilt = match node.checked_sub(d) {
                None => &front[node * block_len..][..block_len],
                Some(i) => rest[i].as_deref().expect("rebuilt"),
            };
            assert!(rebuilt == &blocks[node][..], "d = {d}, node {node}, {case}");
        }
        if detail.success {
            assert!(
                front[..k * block_len] == blocks[..k].concat(),
                "data half, d = {d}, {case}"
            );
        }
    }
    let report = codec.decode(&mut decoded).expect("decode");
    assert_eq!(report.recovery_depth, depth, "decode's depth, {case}");
    assert!(decoded == apart, "decode is the d = 0 replay, {case}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cascades, mirrors and 96-node Tornado graphs; a random erasure set
    /// cut back until it decodes.
    #[test]
    fn replay_rebuilds_the_encoded_blocks_at_both_layouts(
        family in 0usize..3,
        len_ix in 0usize..4,
        count in 1usize..24,
        seed in any::<u64>(),
    ) {
        let graph = match family {
            0 => generate_fixed_degree(TornadoParams::paper_96(), 3, seed),
            1 => generate_mirror(12),
            _ => TornadoGenerator::new(TornadoParams::paper_96()).generate(seed),
        }
        .expect("graph");
        let block_len = [1usize, 7, 4096, 21_846][len_ix];
        let mut erased: Vec<usize> = bytes(count, seed ^ 0xE5A5)
            .iter()
            .map(|&b| b as usize % graph.num_nodes())
            .collect();
        erased.sort_unstable();
        erased.dedup();
        let mut decoder = ErasureDecoder::new(&graph);
        while !decoder.decode_detailed(&erased).success {
            erased.pop();
        }
        let case = format!("family {family} seed {seed:#x} block_len {block_len} erased {erased:?}");
        assert_replay_rebuilds(&graph, block_len, seed, &erased, &case);
    }
}

/// data 0..4; checks 4 = 0^1, 5 = 1^2^3, 6 = 4^5: check 5 has a neighbour
/// on each side of data 2, and check 6 re-encodes check 4.
fn hand_graph() -> Graph {
    let mut b = GraphBuilder::new(4);
    b.begin_level("c1");
    b.add_check(&[0, 1]);
    b.add_check(&[1, 2, 3]);
    b.begin_level("c2");
    b.add_check(&[4, 5]);
    b.build().unwrap()
}

/// The split borrow's corners: a hole in the first slot, in the last, two
/// adjacent holes (the second rebuilt from the first), a hole whose check
/// reads blocks on both sides of it, a check block peeled before it peels,
/// and check blocks re-encoded from the data half.
#[test]
fn replay_rebuilds_holes_wherever_they_fall_in_the_data_half() {
    let g = hand_graph();
    for erased in [
        &[0usize][..],
        &[3],
        &[0, 1],
        &[1, 2],
        &[2],
        &[0, 4],
        &[4, 6],
    ] {
        assert!(
            ErasureDecoder::new(&g).decode_detailed(erased).success,
            "{erased:?}"
        );
        for block_len in [1usize, 7, 4096] {
            let case = format!("hand graph, block_len {block_len}, erased {erased:?}");
            assert_replay_rebuilds(&g, block_len, 0xC0FFEE, erased, &case);
        }
    }
}

#[test]
#[should_panic(expected = "schedule guarantees the other neighbours are present")]
fn replaying_a_schedule_over_blocks_it_was_not_derived_for_panics() {
    let g = hand_graph();
    let codec = Codec::new(&g);
    let blocks = codec.encode(&vec![vec![7u8; 16]; 4]).expect("encode");
    // Derived with data 2 gone: check 5 folds in data 1 and 3.
    let schedule = ErasureDecoder::new(&g).decode_detailed(&[2]).schedule;
    let mut apart: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
    apart[2] = None;
    apart[3] = None;
    codec.replay(&schedule, &mut [], &mut apart);
}
