//! Sparse-kernel / dense-reference parity properties.
//!
//! The epoch-stamped sparse-reset decoder (`ErasureDecoder`) must reach
//! exactly the same peeling fixpoint as the retained dense formulation
//! (`reference::DenseDecoder`) on every graph × erasure pattern: same
//! success verdict, same lost-node sets, and a *valid* recovery schedule
//! (schedules may order independent steps differently, so they are checked
//! by replay, not by equality).
//!
//! The data-plane half: the fused copy-and-checksum kernel
//! (`kernels::append_checksummed`) must append exactly the source bytes
//! and return exactly the digest the byte-serial oracle computes, and the
//! digest itself is pinned to a golden value — it is what the sidecars of
//! every store already on disk hold.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tornado_codec::kernels::{self, append_checksummed, scalar};
use tornado_codec::reference::DenseDecoder;
use tornado_codec::{DecodeDetail, ErasureDecoder, RecoveryStep};
use tornado_gen::cascaded::generate_fixed_degree;
use tornado_gen::mirror::generate_mirror;
use tornado_gen::regular::generate_regular;
use tornado_gen::TornadoParams;
use tornado_graph::Graph;

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
    assert_eq!(kernels::checksum(&buf), GOLDEN);
    assert_eq!(scalar::checksum(&buf), GOLDEN);
    assert_eq!(append_checksummed(&mut Vec::new(), &buf), GOLDEN);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `append_checksummed(out, src)` ≡ `out.extend_from_slice(src)` +
    /// `scalar::checksum(src)`, at every seam length, for misaligned
    /// sources, behind whatever `out` already holds, on both dispatch
    /// paths.
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
        for force in [false, true] {
            kernels::set_force_scalar(force);
            let mut out = vec![0xEE; prefix];
            let digest = append_checksummed(&mut out, src);
            kernels::set_force_scalar(false);
            prop_assert_eq!(digest, scalar::checksum(src), "len {} force {}", len, force);
            prop_assert_eq!(&out, &expected, "len {} force {}", len, force);
        }
    }

    /// The sparse kernel and the dense reference agree on success, lost
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

        let mut sparse = ErasureDecoder::new(&g);
        let mut dense = DenseDecoder::new(&g);

        prop_assert_eq!(sparse.decode(&pattern), dense.decode(&pattern));

        let s = sparse.decode_detailed(&pattern);
        let d = dense.decode_detailed(&pattern);
        prop_assert_eq!(s.success, d.success);
        prop_assert_eq!(&s.lost_data, &d.lost_data);
        prop_assert_eq!(&s.lost_nodes, &d.lost_nodes);
        validate_schedule(&g, &pattern, &s);
        validate_schedule(&g, &pattern, &d);
        for node in 0..g.num_nodes() as u32 {
            prop_assert_eq!(sparse.is_available(node), dense.is_available(node));
        }
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

        let mut sparse = ErasureDecoder::new(&g);
        let mut dense = DenseDecoder::new(&g);
        sparse.begin_pattern(&prefix);
        // Sweep every 1-element tail, then a few 2-element tails; a rewind
        // bug in one trial shows up as a wrong verdict in a later one.
        for t in 0..n {
            let mut full = prefix.clone();
            full.push(t);
            prop_assert_eq!(
                sparse.decode_tail(&[t]),
                dense.decode(&full),
                "prefix {:?} tail [{}]", &prefix, t
            );
        }
        for t in 0..n.min(16) {
            let tail = [t, (t + 7) % n];
            let mut full = prefix.clone();
            full.extend_from_slice(&tail);
            prop_assert_eq!(
                sparse.decode_tail(&tail),
                dense.decode(&full),
                "prefix {:?} tail {:?}", &prefix, &tail
            );
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

        let mut sparse = ErasureDecoder::new(&g);
        let mut reported: Vec<Vec<usize>> = Vec::new();
        let stats = sparse.decode_batch(patterns.iter().map(|p| p.as_slice()), |p| {
            reported.push(p.to_vec());
        });
        prop_assert_eq!(stats.trials, patterns.len() as u64);
        prop_assert_eq!(stats.failures, expected_failures.len() as u64);
        prop_assert_eq!(reported, expected_failures);
    }
}
