//! Row-kernel / dense-reference parity properties.
//!
//! The bit-row decoder (`ErasureDecoder`) must reach exactly the same
//! peeling fixpoint as the retained counter-per-check formulation
//! (`oracle::DenseDecoder`) on every graph × erasure pattern: same
//! success verdict, same lost-node sets, and a *valid* recovery schedule
//! (schedules may order independent steps differently, so they are checked
//! by replay, not by equality). Rows are ⌈n/64⌉ words, so one property
//! runs on graphs sized at and around every word boundary up to 256.
//!
//! The lane kernel (`LaneDecoder`) decides up to `LaneDecoder::LANES`
//! patterns in one run; every lane's verdict must be the row kernel's and
//! the dense reference's verdict on that lane's pattern, whatever the
//! group size and whatever the other lanes hold.
//!
//! The data-plane half: the fused copy-and-checksum kernel
//! (`kernels::append_checksummed`) must append exactly the source bytes
//! and return exactly the digest the byte-serial oracle computes, and the
//! digest itself is pinned to a golden value — it is what the sidecars of
//! every store already on disk hold.

#[allow(dead_code)]
mod oracle;

use oracle::{scalar, DenseDecoder};
use proptest::prelude::*;
use std::collections::BTreeSet;
use tornado_codec::kernels::{self, append_checksummed, Ahead};
use tornado_codec::{DecodeDetail, ErasureDecoder, LaneDecoder, RecoveryStep};
use tornado_gen::cascaded::generate_fixed_degree;
use tornado_gen::mirror::generate_mirror;
use tornado_gen::regular::generate_regular;
use tornado_gen::{TornadoGenerator, TornadoParams};
use tornado_graph::{Graph, GraphBuilder};

/// Builds one of the generator families from flattened parameters.
/// Families whose random matching can fail for a given seed are skipped
/// via `None` (the caller `prop_assume`s them away).
fn build_graph(kind: usize, size: usize, degree: u32, seed: u64) -> Option<Graph> {
    match kind {
        // Mirrored pairs: 8..=128 nodes.
        0 => generate_mirror(size.clamp(4, 64)).ok(),
        // Single-stage biregular: 12..=128 nodes.
        1 => generate_regular(size.clamp(6, 64), degree.clamp(2, 4), seed).ok(),
        // Cascaded fixed-degree: 16..=128 nodes, multi-level.
        _ => {
            let params = TornadoParams {
                num_data: size.clamp(8, 64),
                max_degree_d: 8,
                min_final_level: 4,
            };
            generate_fixed_degree(params, degree.clamp(2, 3), seed).ok()
        }
    }
}

/// Derives a pseudo-random erasure pattern (possibly with duplicates —
/// the decoders must tolerate them) from a seed, xorshift-style like the
/// other property suites in this workspace.
fn derive_pattern(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut s = seed | 1;
    (0..k)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s % n as u64) as usize
        })
        .collect()
}

/// Replays `detail.schedule` from the initial erasure state, asserting
/// every step's precondition, and checks the fixpoint matches the reported
/// lost sets.
fn validate_schedule(g: &Graph, pattern: &[usize], detail: &DecodeDetail) {
    let mut missing: BTreeSet<usize> = pattern.iter().copied().collect();
    for step in &detail.schedule {
        match *step {
            RecoveryStep::Peel { node, via } => {
                assert!(g.is_check(via), "peel via a non-check node {via}");
                assert!(
                    !missing.contains(&(via as usize)),
                    "peel via missing check {via}"
                );
                assert!(
                    missing.remove(&(node as usize)),
                    "peeled node {node} was not missing"
                );
                for &nbr in g.check_neighbors(via) {
                    assert!(
                        !missing.contains(&(nbr as usize)),
                        "check {via} peeled {node} while neighbour {nbr} was also missing"
                    );
                }
            }
            RecoveryStep::Reencode { node } => {
                assert!(g.is_check(node), "re-encoded a non-check node {node}");
                for &nbr in g.check_neighbors(node) {
                    assert!(
                        !missing.contains(&(nbr as usize)),
                        "re-encoded check {node} while input {nbr} was missing"
                    );
                }
                assert!(
                    missing.remove(&(node as usize)),
                    "re-encoded node {node} was not missing"
                );
            }
        }
    }
    let lost: Vec<u32> = missing.iter().map(|&n| n as u32).collect();
    assert_eq!(lost, detail.lost_nodes, "replayed fixpoint disagrees");
}

/// A random cascade with exactly `n` nodes, half of them checks (so the
/// larger sizes have more than 64 checks): three check levels, each check
/// XORing one to four distinct nodes of lower id.
fn graph_of_size(n: usize, seed: u64) -> Graph {
    let num_data = n / 2;
    let mut draws = derive_pattern(usize::MAX, 5 * n, seed).into_iter();
    let mut b = GraphBuilder::new(num_data);
    let num_checks = n - num_data;
    let (half, quarter) = (num_checks / 2, num_checks / 4);
    for (level, size) in [half, quarter, num_checks - half - quarter]
        .into_iter()
        .enumerate()
    {
        b.begin_level(&format!("c{level}"));
        for _ in 0..size {
            let below = b.num_nodes();
            let degree = 1 + draws.next().unwrap() % 4;
            let nbrs: BTreeSet<u32> = (0..degree)
                .map(|_| (draws.next().unwrap() % below) as u32)
                .collect();
            b.add_check(&nbrs.into_iter().collect::<Vec<_>>());
        }
    }
    let g = b.build().unwrap();
    assert_eq!(g.num_nodes(), n);
    g
}

/// Asserts the row kernel and the dense reference agree on `pattern`:
/// verdict (with and without early exit), lost sets, per-node
/// availability, and schedules that replay.
fn assert_parity(g: &Graph, row: &mut ErasureDecoder, dense: &mut DenseDecoder, pattern: &[usize]) {
    assert_eq!(row.decode(pattern), dense.decode(pattern), "{pattern:?}");
    let r = row.decode_detailed(pattern);
    let d = dense.decode_detailed(pattern);
    assert_eq!(r.success, d.success, "{pattern:?}");
    assert_eq!(r.lost_data, d.lost_data, "{pattern:?}");
    assert_eq!(r.lost_nodes, d.lost_nodes, "{pattern:?}");
    validate_schedule(g, pattern, &r);
    validate_schedule(g, pattern, &d);
    for node in 0..g.num_nodes() as u32 {
        assert_eq!(row.is_available(node), dense.is_available(node));
    }
}

/// Guards the `prop_assume(g.is_some())` filters above: if a generator
/// family started failing wholesale, the properties would silently pass on
/// an empty sample.
#[test]
fn every_generator_family_mostly_builds() {
    for kind in 0..3usize {
        let mut ok = 0;
        let mut total = 0;
        for size in [4usize, 16, 33, 48, 64] {
            for degree in 2u32..=4 {
                for seed in 0..4u64 {
                    total += 1;
                    if build_graph(kind, size, degree, seed).is_some() {
                        ok += 1;
                    }
                }
            }
        }
        assert!(
            ok * 2 >= total,
            "generator family {kind} built only {ok}/{total} graphs"
        );
    }
}

/// Group sizes on each side of a lane word and of a full group.
const GROUP_SIZES: [usize; 6] = [1, 63, 64, 65, LaneDecoder::LANES - 1, LaneDecoder::LANES];

/// The pattern lane `lane` holds: by turns nothing, checks only, every
/// node, a pattern listed twice over, and random patterns of every density
/// (drawn with replacement, so duplicates occur in these too).
fn lane_pattern(g: &Graph, lane: usize, k: usize, seed: u64) -> Vec<usize> {
    let (n, num_data) = (g.num_nodes(), g.num_data());
    let seed = seed ^ (lane as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    match lane % 8 {
        0 => Vec::new(),
        1 => derive_pattern(n - num_data, k, seed)
            .into_iter()
            .map(|c| num_data + c)
            .collect(),
        2 => (0..n).collect(),
        3 => derive_pattern(n, k, seed).repeat(2),
        _ => derive_pattern(n, (k + lane) % (n / 2 + 1), seed),
    }
}

/// Runs `patterns` as one group, one per lane, with `base` missing in
/// every lane, and asserts each lane's verdict and the group's count are
/// what the row kernel and the dense reference say of `base ∪ pattern`.
fn assert_lane_parity(g: &Graph, lanes: &mut LaneDecoder, base: &[usize], patterns: &[Vec<usize>]) {
    let mut row = ErasureDecoder::new(g);
    let mut dense = DenseDecoder::new(g);
    lanes.load_all(base);
    for (lane, pattern) in patterns.iter().enumerate() {
        lanes.load(lane, pattern);
    }
    let failures = lanes.run(patterns.len());
    let mut expected = 0;
    for (lane, pattern) in patterns.iter().enumerate() {
        let full: Vec<usize> = base.iter().chain(pattern).copied().collect();
        let decodes = row.decode(&full);
        assert_eq!(decodes, dense.decode(&full), "{full:?}");
        assert_eq!(
            !lanes.failed(lane),
            decodes,
            "lane {lane} of {}: {full:?}",
            patterns.len()
        );
        expected += u64::from(!decodes);
    }
    assert_eq!(failures, expected, "group of {}", patterns.len());
}

/// Every group size, with and without a base set, on `g`.
fn assert_lane_parity_at_every_group_size(g: &Graph, k: usize, seed: u64) {
    let mut lanes = LaneDecoder::new(g);
    for (i, &group) in GROUP_SIZES.iter().enumerate() {
        let seed = seed.rotate_left(i as u32);
        let patterns: Vec<Vec<usize>> = (0..group)
            .map(|lane| lane_pattern(g, lane, k, seed))
            .collect();
        assert_lane_parity(g, &mut lanes, &[], &patterns);
        assert_lane_parity(
            g,
            &mut lanes,
            &derive_pattern(g.num_nodes(), 1 + i % 3, seed),
            &patterns,
        );
    }
}

/// The size sweep's largest graph: 128 data + 128 checks.
#[test]
fn lanes_match_row_and_dense_on_a_256_node_tornado_graph() {
    let params = TornadoParams {
        num_data: 128,
        ..TornadoParams::default()
    };
    let (g, _) = TornadoGenerator::new(params)
        .generate_screened(7, 256, 2)
        .unwrap();
    assert_eq!(g.num_nodes(), 256);
    for k in [3usize, 40, 100] {
        assert_lane_parity_at_every_group_size(&g, k, 0xC0FFEE ^ k as u64);
    }
}

/// A lane's verdict is its own: the same pattern alone in a group and
/// among a full group of others, in every lane position of a word seam.
#[test]
fn a_lane_does_not_see_its_neighbours() {
    let g = graph_of_size(130, 11);
    let n = g.num_nodes();
    let mut lanes = LaneDecoder::new(&g);
    let mut row = ErasureDecoder::new(&g);
    let mut verdicts = [0usize; 2];
    for (i, lane) in [0usize, 63, 64, 65, LaneDecoder::LANES - 1]
        .into_iter()
        .enumerate()
    {
        for k in [2usize, 20, 45, 70] {
            let pattern = derive_pattern(n, k, 977 * (i + k) as u64);
            let decodes = row.decode(&pattern);
            verdicts[usize::from(decodes)] += 1;
            lanes.load(lane, &pattern);
            lanes.run(LaneDecoder::LANES);
            assert_eq!(
                !lanes.failed(lane),
                decodes,
                "alone in lane {lane}: {pattern:?}"
            );
            for other in (0..LaneDecoder::LANES).filter(|&o| o != lane) {
                lanes.load(other, &lane_pattern(&g, other, k, 31 + k as u64));
            }
            lanes.load(lane, &pattern);
            lanes.run(LaneDecoder::LANES);
            assert_eq!(
                !lanes.failed(lane),
                decodes,
                "lane {lane} in a full group: {pattern:?}"
            );
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "both verdicts exercised: {verdicts:?}"
    );
}

/// One strip of `append_checksummed` (it copies and hashes 4 KiB at a time).
const STRIP: usize = 4096;

/// The lengths the fused kernel's seams sit at: empty, one byte, around one
/// 64-byte group, every strip boundary ± 1 up to three strips, and the
/// block length of a 1 MiB object (21 846 B: five strips and a ragged tail).
const SEAM_LENGTHS: [usize; 15] = [
    0,
    1,
    63,
    64,
    65,
    STRIP - 1,
    STRIP,
    STRIP + 1,
    2 * STRIP - 1,
    2 * STRIP,
    2 * STRIP + 1,
    3 * STRIP - 1,
    3 * STRIP,
    3 * STRIP + 1,
    21_846,
];

/// `checksum` of one fixed buffer — a strip and a 5-byte ragged tail — is
/// the value it had before the kernel learned to prefetch: the digests in
/// every sidecar on disk were computed by that function.
#[test]
fn checksum_of_a_fixed_buffer_is_pinned() {
    let buf: Vec<u8> = (0..STRIP + 5)
        .map(|i| i.wrapping_mul(31).wrapping_add(7) as u8)
        .collect();
    const GOLDEN: u64 = 0x6cb7_ac18_093c_c910;
    assert_eq!(kernels::checksum(&buf, Ahead::NONE), GOLDEN);
    assert_eq!(scalar::checksum(&buf), GOLDEN);
    assert_eq!(
        append_checksummed(&mut Vec::new(), &buf, Ahead::NONE),
        GOLDEN
    );
}

#[test]
fn dense_kernel_still_decodes() {
    // data 0..4; checks: 4 = 0^1, 5 = 2^3, 6 = 4^5.
    let mut b = GraphBuilder::new(4);
    b.begin_level("c1");
    b.add_check(&[0, 1]);
    b.add_check(&[2, 3]);
    b.begin_level("c2");
    b.add_check(&[4, 5]);
    let g = b.build().unwrap();
    let mut d = DenseDecoder::new(&g);
    assert!(d.decode(&[0]));
    assert!(d.decode(&[0, 4]));
    assert!(!d.decode(&[0, 1]));
    assert!(d.decode(&[4, 5, 6]));
    let detail = d.decode_detailed(&[0, 1]);
    assert!(!detail.success);
    assert_eq!(detail.lost_data, vec![0, 1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `append_checksummed(out, src)` ≡ `out.extend_from_slice(src)` +
    /// `scalar::checksum(src)`, at every seam length, for misaligned
    /// sources, behind whatever `out` already holds.
    #[test]
    fn append_checksummed_is_extend_plus_the_scalar_digest(
        len_ix in 0usize..SEAM_LENGTHS.len(),
        offset in 0usize..8,
        prefix in 0usize..70,
        seed in any::<u64>(),
    ) {
        let len = SEAM_LENGTHS[len_ix];
        let backing: Vec<u8> = derive_pattern(251, offset + len, seed)
            .into_iter()
            .map(|b| b as u8)
            .collect();
        let src = &backing[offset..];
        let mut expected = vec![0xEE; prefix];
        expected.extend_from_slice(src);
        let mut out = vec![0xEE; prefix];
        let digest = append_checksummed(&mut out, src, Ahead::NONE);
        prop_assert_eq!(digest, scalar::checksum(src), "len {}", len);
        prop_assert_eq!(&out, &expected, "len {}", len);
    }

    /// Rows of one, two, three and four words, with a node on each side of
    /// every word boundary, and more than 64 checks from n = 130 up: random
    /// patterns of every density (duplicates included), nothing missing,
    /// and everything missing.
    #[test]
    fn row_kernel_matches_dense_across_word_boundaries(
        size_ix in 0usize..6,
        graph_seed in any::<u64>(),
        k in 0usize..=40,
        pattern_seed in any::<u64>(),
    ) {
        let n = [63usize, 64, 65, 128, 130, 256][size_ix];
        let g = graph_of_size(n, graph_seed);
        let mut row = ErasureDecoder::new(&g);
        let mut dense = DenseDecoder::new(&g);
        assert_parity(&g, &mut row, &mut dense, &derive_pattern(n, k, pattern_seed));
        // Dense patterns: most nodes gone, drawn with replacement.
        assert_parity(&g, &mut row, &mut dense, &derive_pattern(n, n, pattern_seed));
        assert_parity(&g, &mut row, &mut dense, &[]);
        assert_parity(&g, &mut row, &mut dense, &(0..n).collect::<Vec<_>>());
        // The last node of each word and the first of the next.
        let seams = [63, 64, 127, 128, 191, 192].into_iter().filter(|&v| v < n);
        let seams: Vec<usize> = seams.collect();
        assert_parity(&g, &mut row, &mut dense, &seams);
        // The certificate is a row as well: every one-node tail of a
        // prefix, through whichever of the three tail paths it takes.
        let prefix = derive_pattern(n, k % 6, pattern_seed);
        row.begin_pattern(&prefix);
        for t in 0..n {
            let full: Vec<usize> = prefix.iter().copied().chain([t]).collect();
            prop_assert_eq!(row.decode_tail(&[t]), dense.decode(&full), "{:?} + {}", &prefix, t);
        }
    }

    /// Lanes ≡ row ≡ dense per lane, on every generator family and on
    /// random cascades at the row kernel's word seams, for every group
    /// size: empty, checks-only, all-node, doubled and random patterns
    /// side by side, with and without a set missing in every lane.
    #[test]
    fn lanes_match_row_and_dense_per_lane(
        kind in 0usize..4,
        size in 4usize..=64,
        degree in 2u32..=4,
        graph_seed in any::<u64>(),
        k in 0usize..=24,
        pattern_seed in any::<u64>(),
    ) {
        let g = if kind == 3 {
            Some(graph_of_size([63usize, 64, 65, 128, 130][size % 5], graph_seed))
        } else {
            build_graph(kind, size, degree, graph_seed)
        };
        prop_assume!(g.is_some());
        assert_lane_parity_at_every_group_size(&g.unwrap(), k, pattern_seed);
    }

    /// The row kernel and the dense reference agree on success, lost
    /// sets, and availability, and both schedules replay cleanly.
    #[test]
    fn sparse_and_dense_reach_the_same_fixpoint(
        kind in 0usize..3,
        size in 4usize..=64,
        degree in 2u32..=4,
        graph_seed in any::<u64>(),
        k in 0usize..=10,
        pattern_seed in any::<u64>(),
    ) {
        let g = build_graph(kind, size, degree, graph_seed);
        prop_assume!(g.is_some());
        let g = g.unwrap();
        let pattern = derive_pattern(g.num_nodes(), k, pattern_seed);

        assert_parity(&g, &mut ErasureDecoder::new(&g), &mut DenseDecoder::new(&g), &pattern);
    }

    /// The prefix-reuse path (begin_pattern + repeated decode_tail) gives
    /// the same verdicts as one-shot dense decodes, and the rewind leaks no
    /// state between tails.
    #[test]
    fn prefix_reuse_matches_dense_across_many_tails(
        kind in 0usize..3,
        size in 4usize..=48,
        degree in 2u32..=4,
        graph_seed in any::<u64>(),
        prefix_k in 0usize..=5,
        pattern_seed in any::<u64>(),
    ) {
        let g = build_graph(kind, size, degree, graph_seed);
        prop_assume!(g.is_some());
        let g = g.unwrap();
        let n = g.num_nodes();
        let prefix = derive_pattern(n, prefix_k, pattern_seed);

        let mut row = ErasureDecoder::new(&g);
        let mut dense = DenseDecoder::new(&g);
        row.begin_pattern(&prefix);
        // Sweep every 1-element tail, then a few 2-element tails; a rewind
        // bug in one trial shows up as a wrong verdict in a later one.
        for t in 0..n {
            let mut full = prefix.clone();
            full.push(t);
            prop_assert_eq!(
                row.decode_tail(&[t]),
                dense.decode(&full),
                "prefix {:?} tail [{}]", &prefix, t
            );
        }
        for t in 0..n.min(16) {
            let tail = [t, (t + 7) % n];
            let mut full = prefix.clone();
            full.extend_from_slice(&tail);
            prop_assert_eq!(
                row.decode_tail(&tail),
                dense.decode(&full),
                "prefix {:?} tail {:?}", &prefix, &tail
            );
        }
    }

    /// `begin_pattern` keeps what successive prefixes share and derives the
    /// rest without peeling where certificates allow: a chain of prefixes,
    /// each a head of the one before with new nodes appended (longer,
    /// shorter, equal, disjoint, with repeats), answers every tail as the
    /// dense reference does.
    #[test]
    fn successive_prefixes_match_dense(
        size_ix in 0usize..6,
        graph_seed in any::<u64>(),
        chain_seed in any::<u64>(),
    ) {
        let n = [63usize, 64, 65, 128, 130, 256][size_ix];
        let g = graph_of_size(n, graph_seed);
        let mut row = ErasureDecoder::new(&g);
        let mut dense = DenseDecoder::new(&g);
        let mut prefix: Vec<usize> = Vec::new();
        for step in 0..8u64 {
            let draws = derive_pattern(usize::MAX, 2, chain_seed ^ step);
            prefix.truncate(draws[0] % (prefix.len() + 1));
            prefix.extend(derive_pattern(n, draws[1] % 4, chain_seed.rotate_left(7) ^ step));
            row.begin_pattern(&prefix);
            prop_assert_eq!(row.prefix_decodes(), dense.decode(&prefix), "{:?}", &prefix);
            for t in 0..n {
                let tails: [&[usize]; 2] = [&[t], &[t, (t * 7 + 3) % n]];
                for tail in tails {
                    let full: Vec<usize> = prefix.iter().chain(tail).copied().collect();
                    let expected = dense.decode(&full);
                    prop_assert_eq!(row.decode_tail(tail), expected, "{:?} + {:?}", &prefix, tail);
                }
            }
        }
    }

    /// decode_batch agrees with per-pattern dense decodes and reports each
    /// failing pattern exactly once, in order.
    #[test]
    fn decode_batch_matches_dense(
        kind in 0usize..3,
        size in 4usize..=48,
        degree in 2u32..=4,
        graph_seed in any::<u64>(),
        k in 1usize..=6,
        pattern_seed in any::<u64>(),
    ) {
        let g = build_graph(kind, size, degree, graph_seed);
        prop_assume!(g.is_some());
        let g = g.unwrap();
        let n = g.num_nodes();
        let patterns: Vec<Vec<usize>> = (0..32u64)
            .map(|i| {
                let mut p = derive_pattern(n, k, pattern_seed ^ i);
                // Sorted patterns exercise the shared-prefix fast path.
                p.sort_unstable();
                p
            })
            .collect();

        let mut dense = DenseDecoder::new(&g);
        let expected_failures: Vec<Vec<usize>> = patterns
            .iter()
            .filter(|p| !dense.decode(p))
            .cloned()
            .collect();

        let mut row = ErasureDecoder::new(&g);
        let mut reported: Vec<Vec<usize>> = Vec::new();
        let stats = row.decode_batch(patterns.iter().map(|p| p.as_slice()), |p| {
            reported.push(p.to_vec());
        });
        prop_assert_eq!(stats.trials, patterns.len() as u64);
        prop_assert_eq!(stats.failures, expected_failures.len() as u64);
        prop_assert_eq!(reported, expected_failures);
    }
}
