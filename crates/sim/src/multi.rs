//! Multi-site federated systems and the targeted Table 7 failure search
//! (paper §5.3).
//!
//! A federated system replicates all data between two or more sites, each
//! of which protects its copy with its own Tornado graph. Decoding is *joint*: if
//! one site cannot reconstruct a data block, the other site's copy — or a
//! recovery path through the other site's checks — can supply it ("by
//! allowing the replicas to exchange the missing data nodes, restoring just
//! one critical data node allows the data graph to be reconstructed even
//! when both graphs cannot independently perform the reconstruction").
//!
//! The combined system is itself an LDPC graph: data nodes once, site A's
//! checks, one single-neighbour *replica* check per data node (site B's
//! copy), then site B's checks re-based onto the shared data nodes. Device
//! `i` of the 2-site system is node `i` of the combined graph, so every
//! simulator in this crate applies unchanged.
//!
//! Exhaustive search over 192 devices is intractable; like the paper we
//! "use the previously detected failure cases for the 96-node graphs to
//! construct test cases that examine the situations where graph failure is
//! known to occur". [`first_failure_detected`] reports the smallest joint
//! failure found — an upper bound, exactly as in Table 7 ("First Failure
//! *Detected*").

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use tornado_codec::ErasureDecoder;
use tornado_graph::{Graph, GraphBuilder, NodeId};

/// A federated system of two or more sites over a shared data set.
#[derive(Clone, Debug)]
pub struct FederatedSystem {
    /// The combined decode graph (see module docs for the node layout).
    graph: Graph,
    /// Data nodes shared by all sites.
    num_data: usize,
    /// Device-range starts per site (`starts[i]..starts[i+1]` is site `i`;
    /// a final sentinel holds the total).
    site_starts: Vec<usize>,
}

impl FederatedSystem {
    /// Combines two site graphs over the same logical data.
    ///
    /// # Panics
    /// Panics if the graphs disagree on `num_data`.
    pub fn new(site_a: &Graph, site_b: &Graph) -> Self {
        Self::new_multi(&[site_a, site_b])
    }

    /// Combines `N ≥ 2` site graphs over the same logical data (the paper's
    /// "replicated between at least two sites"). Site 0's nodes appear
    /// verbatim; every later site contributes a replica level (its copy of
    /// each data block) plus its check levels re-based onto the shared data
    /// nodes.
    ///
    /// # Panics
    /// Panics with fewer than two sites or mismatched `num_data`.
    pub fn new_multi(sites: &[&Graph]) -> Self {
        assert!(sites.len() >= 2, "a federation needs at least two sites");
        let k = sites[0].num_data();
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.num_data(), k, "site {i} protects a different data set");
        }

        let mut b = GraphBuilder::new(k);
        let mut site_starts = vec![0usize];
        // Site 0's check levels, verbatim.
        for level in &sites[0].levels()[1..] {
            b.begin_level(&format!("site-0/{}", level.label));
            for c in level.nodes() {
                b.add_check(sites[0].check_neighbors(c));
            }
        }
        site_starts.push(sites[0].num_nodes());

        for (si, site) in sites.iter().enumerate().skip(1) {
            let base = *site_starts.last().expect("non-empty") as NodeId;
            // The site's data copies: one single-neighbour check per block.
            b.begin_level(&format!("site-{si}/replica"));
            for d in 0..k as NodeId {
                b.add_check(&[d]);
            }
            // The site's check levels: data references stay (values are
            // equal by replication); local check ids shift so that local
            // node x (x ≥ k) lands at combined id base + x.
            for level in &site.levels()[1..] {
                b.begin_level(&format!("site-{si}/{}", level.label));
                for c in level.nodes() {
                    let nbrs: Vec<NodeId> = site
                        .check_neighbors(c)
                        .iter()
                        .map(|&x| if (x as usize) < k { x } else { base + x })
                        .collect();
                    b.add_check(&nbrs);
                }
            }
            site_starts.push(base as usize + site.num_nodes());
        }
        let graph = b.build().expect("federation of valid graphs is valid");
        Self {
            graph,
            num_data: k,
            site_starts,
        }
    }

    /// Number of federated sites.
    pub fn num_sites(&self) -> usize {
        self.site_starts.len() - 1
    }

    /// Device range of site `i`.
    ///
    /// # Panics
    /// Panics if `i >= num_sites()`.
    pub fn site(&self, i: usize) -> std::ops::Range<usize> {
        assert!(i < self.num_sites(), "site {i} out of range");
        self.site_starts[i]..self.site_starts[i + 1]
    }

    /// The combined decode graph. Device `i` is node `i`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Logical data blocks shared by the sites.
    pub fn num_data(&self) -> usize {
        self.num_data
    }

    /// Total devices across both sites.
    pub fn total_devices(&self) -> usize {
        *self.site_starts.last().expect("non-empty")
    }

    /// Device range of site A.
    pub(crate) fn site_a(&self) -> std::ops::Range<usize> {
        self.site(0)
    }

    /// Device range of site B.
    pub(crate) fn site_b(&self) -> std::ops::Range<usize> {
        self.site(1)
    }

    /// Maps a node id of the site-B *local* graph to its federated device
    /// index (data nodes map to B's replica devices).
    pub(crate) fn site_b_device(&self, b_node: NodeId) -> usize {
        self.site_starts[1] + b_node as usize
    }
}

/// Whether erasing `missing` leaves `target` unrecoverable in `graph`.
fn blocks(dec: &mut ErasureDecoder<'_>, missing: &[usize], target: NodeId) -> bool {
    let detail = dec.decode_detailed(missing);
    detail.lost_data.contains(&target)
}

/// Greedy minimisation: repeatedly drops elements (except `keep`) while the
/// set still leaves `keep` unrecoverable. Returns a locally minimal set.
fn minimize_blocking(
    dec: &mut ErasureDecoder<'_>,
    set: &[usize],
    keep: NodeId,
    rng: &mut SmallRng,
) -> Vec<usize> {
    let mut current: Vec<usize> = set.to_vec();
    current.sort_unstable();
    current.dedup();
    assert!(blocks(dec, &current, keep), "input must block the target");
    loop {
        let mut order: Vec<usize> = (0..current.len()).collect();
        order.shuffle(rng);
        let mut removed_any = false;
        for idx in order {
            if idx >= current.len() {
                continue;
            }
            if current[idx] == keep as usize {
                continue;
            }
            let mut trial = current.clone();
            trial.remove(idx);
            if blocks(dec, &trial, keep) {
                current = trial;
                removed_any = true;
            }
        }
        if !removed_any {
            return current;
        }
    }
}

/// The upward closure of `data` in `graph`, ascending: the node, every
/// check that uses it, every deeper check using those, and so on. With the
/// whole cone erased no peel or re-encode path into the node survives, so
/// it always blocks `data`.
fn upward_closure(graph: &Graph, data: NodeId) -> Vec<usize> {
    let mut cone = std::collections::BTreeSet::from([data as usize]);
    let mut frontier = vec![data];
    while let Some(v) = frontier.pop() {
        for &c in graph.checks_of(v) {
            if cone.insert(c as usize) {
                frontier.push(c);
            }
        }
    }
    cone.into_iter().collect()
}

/// Upper bound on the minimum erasure set leaving `data` unrecoverable in
/// `graph`. Deterministic in `seed`.
///
/// Starts from the guaranteed-blocking *upward closure* of the node and
/// from random failing patterns, greedily minimised; `rounds` random
/// restarts.
pub fn min_blocking_upper_bound(
    graph: &Graph,
    data: NodeId,
    seed: u64,
    rounds: usize,
) -> Vec<usize> {
    assert!(graph.is_data(data), "{data} is not a data node");
    let mut rng = SmallRng::seed_from_u64(seed ^ (data as u64).wrapping_mul(0xA24B_AED4_963E_E407));
    let mut dec = ErasureDecoder::new(graph);
    let n = graph.num_nodes();

    // Deterministic seed set: the upward dependency closure.
    let mut best = minimize_blocking(&mut dec, &upward_closure(graph, data), data, &mut rng);

    // Randomised restarts: sample patterns around the current best size.
    let mut perm: Vec<usize> = (0..n).collect();
    for _ in 0..rounds {
        let k = rng.gen_range(best.len()..=(2 * best.len() + 2).min(n));
        // Random k-subset forced to contain `data`.
        for i in 0..k {
            let j = rng.gen_range(i..n);
            perm.swap(i, j);
        }
        if let Some(pos) = perm[..k].iter().position(|&x| x == data as usize) {
            perm.swap(0, pos);
        } else {
            perm[0] = data as usize; // overwrite one slot; duplicates are fine
        }
        let candidate: Vec<usize> = perm[..k].to_vec();
        if blocks(&mut dec, &candidate, data) {
            let minimized = minimize_blocking(&mut dec, &candidate, data, &mut rng);
            if minimized.len() < best.len() {
                best = minimized;
            }
        }
    }
    best.sort_unstable();
    best
}

/// Escalation iterations a candidate gets while cross-site exchange still
/// recovers it; also the slack past the best joint failure found within
/// which a candidate is still tried.
const ESCALATION_CAP: usize = 24;

/// Configuration for the federated first-failure search.
#[derive(Clone, Copy, Debug)]
pub struct FederatedSearchConfig {
    /// Seed for all randomised steps.
    pub seed: u64,
    /// Random minimisation restarts per data node per site.
    pub rounds_per_node: usize,
    /// Run the exhaustive worst-case search to this depth on each site
    /// graph and seed the per-node blocking sets with the failing patterns
    /// found — the paper's method of constructing Table 7 test cases from
    /// "the previously detected failure cases for the 96-node graphs".
    /// Depth 5 reproduces the paper (≈ 64 M decodes per graph); 0 seeds
    /// nothing.
    pub exhaustive_seed_depth: usize,
}

/// A detected joint failure of a federated system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederatedFailure {
    /// Devices lost (federated indices), sorted.
    pub devices: Vec<usize>,
    /// The data node that stays unrecoverable.
    pub(crate) data_node: NodeId,
}

impl FederatedFailure {
    /// Number of lost devices.
    pub fn size(&self) -> usize {
        self.devices.len()
    }
}

/// Finds the smallest joint failure detected for the federation of
/// `site_a` and `site_b` (Table 7's "First Failure Detected").
pub fn first_failure_detected(
    site_a: &Graph,
    site_b: &Graph,
    cfg: &FederatedSearchConfig,
) -> FederatedFailure {
    let fed = FederatedSystem::new(site_a, site_b);
    let k = fed.num_data();
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut joint_dec = ErasureDecoder::new(fed.graph());
    let mut dec_a = ErasureDecoder::new(site_a);
    let mut dec_b = ErasureDecoder::new(site_b);

    // Per-site minimal blocking sets for every data node.
    let mut block_a: Vec<Vec<usize>> = (0..k as NodeId)
        .map(|d| min_blocking_upper_bound(site_a, d, cfg.seed, cfg.rounds_per_node))
        .collect();
    let mut block_b: Vec<Vec<usize>> = (0..k as NodeId)
        .map(|d| min_blocking_upper_bound(site_b, d, cfg.seed ^ 0xB, cfg.rounds_per_node))
        .collect();
    seed_blocks_from_worst_case(site_a, cfg.exhaustive_seed_depth, &mut block_a);
    seed_blocks_from_worst_case(site_b, cfg.exhaustive_seed_depth, &mut block_b);

    // Candidate data nodes ordered by cheapest combined block cost.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&d| block_a[d].len() + block_b[d].len());

    let mut best: Option<FederatedFailure> = None;
    for &d in &order {
        if let Some(b) = &best {
            if block_a[d].len() + block_b[d].len() >= b.size() + ESCALATION_CAP {
                break; // no hope of improving
            }
        }
        let map_b = |x: usize| fed.site_b_device(x as NodeId);
        let mut joint: Vec<usize> = block_a[d]
            .iter()
            .copied()
            .chain(block_b[d].iter().map(|&x| map_b(x)))
            .collect();
        joint.sort_unstable();
        joint.dedup();

        // Escalate while cross-site exchange still recovers d. Two moves
        // per round, cheapest first:
        //   1. block a helper data node (a node one site lost that the
        //      federation recovered and fed back) at the site that can
        //      still serve it — the paper's "exchange" pathway;
        //   2. otherwise erase one node of d's joint recovery certificate
        //      directly (complete by the certificate property: any blocking
        //      superset must erase a certificate member).
        let mut ok = false;
        for _ in 0..ESCALATION_CAP {
            let joint_detail = joint_dec.decode_detailed(&joint);
            if joint_detail.lost_data.contains(&(d as NodeId)) {
                ok = true;
                break;
            }
            let lost_a = dec_a
                .decode_detailed(&project_site_a(&joint, &fed))
                .lost_data;
            let lost_b = dec_b
                .decode_detailed(&project_site_b(&joint, &fed))
                .lost_data;
            let helper = lost_a
                .iter()
                .chain(lost_b.iter())
                .copied()
                .find(|h| !joint_detail.lost_data.contains(h) && *h != d as NodeId);
            if let Some(h) = helper {
                if lost_a.contains(&h) {
                    // A cannot serve h; make sure B cannot either.
                    joint.extend(block_b[h as usize].iter().map(|&x| map_b(x)));
                } else {
                    joint.extend(block_a[h as usize].iter().copied());
                }
            } else {
                let cert =
                    tornado_codec::recovery_certificate(fed.graph(), &joint_detail, d as NodeId);
                let Some(&e) = cert.iter().find(|e| !joint.contains(&(**e as usize))) else {
                    break;
                };
                joint.push(e as usize);
            }
            joint.sort_unstable();
            joint.dedup();
        }
        if !ok && !blocks(&mut joint_dec, &joint, d as NodeId) {
            continue;
        }
        let minimized = minimize_blocking(&mut joint_dec, &joint, d as NodeId, &mut rng);
        let candidate = FederatedFailure {
            data_node: d as NodeId,
            devices: {
                let mut v = minimized;
                v.sort_unstable();
                v
            },
        };
        if best.as_ref().is_none_or(|b| candidate.size() < b.size()) {
            best = Some(candidate);
        }
    }
    best.unwrap_or_else(|| {
        // Guaranteed fallback: erase data node 0's entire upward closure at
        // both sites — no peel or re-encode path into it survives anywhere,
        // so the joint decode must fail. (Reached only if every targeted
        // candidate was rescued by exchange and escalation stalled.)
        let mut joint: Vec<usize> = Vec::new();
        for (site, base) in [(site_a, 0usize), (site_b, fed.site_b_device(0))] {
            joint.extend(upward_closure(site, 0).into_iter().map(|x| base + x));
        }
        joint.sort_unstable();
        joint.dedup();
        assert!(
            blocks(&mut joint_dec, &joint, 0),
            "the full two-site closure of a data node must block it"
        );
        let minimized = minimize_blocking(&mut joint_dec, &joint, 0, &mut rng);
        FederatedFailure {
            data_node: 0,
            devices: minimized,
        }
    })
}

/// Improves per-data-node blocking sets with the failing patterns found by
/// the exhaustive worst-case search (stopping at the first failing level):
/// a first-failure pattern that loses data node `d` is a *minimum-size*
/// blocking set for `d`.
fn seed_blocks_from_worst_case(graph: &Graph, depth: usize, blocks_out: &mut [Vec<usize>]) {
    let report = crate::worst_case::worst_case_search(
        graph,
        &crate::worst_case::WorstCaseConfig {
            max_k: depth,
            collect_cap: 4096,
            stop_at_first_failure: true,
        },
    );
    let mut dec = ErasureDecoder::new(graph);
    for level in &report.levels {
        for pattern in &level.failure_sets {
            let detail = dec.decode_detailed(pattern);
            for &d in &detail.lost_data {
                let slot = &mut blocks_out[d as usize];
                if pattern.len() < slot.len() {
                    *slot = pattern.clone();
                }
            }
        }
    }
}

/// Restricts a federated erasure pattern to site A's local node space.
fn project_site_a(joint: &[usize], fed: &FederatedSystem) -> Vec<usize> {
    joint
        .iter()
        .copied()
        .filter(|&x| fed.site_a().contains(&x))
        .collect()
}

/// Restricts a federated erasure pattern to site B's local node space
/// (replica devices map back to B's data nodes).
fn project_site_b(joint: &[usize], fed: &FederatedSystem) -> Vec<usize> {
    joint
        .iter()
        .copied()
        .filter(|&x| fed.site_b().contains(&x))
        .map(|x| x - fed.site_starts[1])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tornado_gen::mirror::generate_mirror;
    use tornado_gen::regular::generate_regular;

    /// Random minimisation alone: no exhaustive seeding.
    const SEARCH: FederatedSearchConfig = FederatedSearchConfig {
        seed: 0xFEDE_7A7E,
        rounds_per_node: 40,
        exhaustive_seed_depth: 0,
    };

    #[test]
    fn federation_layout() {
        let a = generate_mirror(4).unwrap(); // 8 nodes
        let b = generate_mirror(4).unwrap();
        let fed = FederatedSystem::new(&a, &b);
        assert_eq!(fed.num_data(), 4);
        assert_eq!(fed.total_devices(), 16);
        assert_eq!(fed.site_a(), 0..8);
        assert_eq!(fed.site_b(), 8..16);
        assert_eq!(fed.graph().num_nodes(), 16);
        fed.graph().validate().unwrap();
        // Replica checks sit right after site A's nodes.
        for d in 0..4u32 {
            assert_eq!(fed.graph().check_neighbors(8 + d), &[d]);
        }
    }

    #[test]
    fn mirrored_federation_is_four_copies() {
        // mirror + mirror = 4 copies of each block; first failure is 4.
        let a = generate_mirror(4).unwrap();
        let b = generate_mirror(4).unwrap();
        let fed = FederatedSystem::new(&a, &b);
        let mut dec = ErasureDecoder::new(fed.graph());
        // Copies of data 0: node 0, mirror 4, replica 8, B-mirror 12.
        assert!(dec.decode(&[0, 4, 8]));
        assert!(!dec.decode(&[0, 4, 8, 12]));
        assert!(
            dec.decode(&[0, 4, 9, 12]),
            "losing another block's replica is fine"
        );
    }

    #[test]
    fn exchange_recovers_when_both_sites_fail_alone() {
        // Site graphs where losing {d, its only check} kills the site:
        // a chain mirror (each data node singly protected).
        let a = generate_mirror(2).unwrap(); // data 0,1; mirrors 2,3
        let b = generate_mirror(2).unwrap();
        let fed = FederatedSystem::new(&a, &b);
        // Lose data0+mirror0 at A (A fails for 0) and data copy of *1* +
        // B-mirror of 1 at B (B fails for 1). Jointly: B's replica of 0
        // saves 0, A's copy of 1 saves 1.
        let mut dec_a = ErasureDecoder::new(&a);
        assert!(!dec_a.decode(&[0, 2]));
        let mut joint = ErasureDecoder::new(fed.graph());
        // Federated devices: A = {0,1,2,3}; replicas = {4,5}; B checks = {6,7}.
        assert!(
            joint.decode(&[0, 2, 5, 7]),
            "cross-site exchange must save both"
        );
        assert!(
            !joint.decode(&[0, 2, 4, 6]),
            "same block dead at both sites"
        );
    }

    #[test]
    fn min_blocking_on_mirror_is_the_pair() {
        let g = generate_mirror(4).unwrap();
        for d in 0..4u32 {
            let s = min_blocking_upper_bound(&g, d, 1, 10);
            assert_eq!(s, vec![d as usize, d as usize + 4], "data {d}");
        }
    }

    #[test]
    fn min_blocking_handles_deep_cascades() {
        // Regression: data 0's only check (4) is itself recoverable from the
        // deeper check 6, so {0, 4} does NOT block — the seed set must be
        // the full upward closure {0, 4, 6}, and minimisation should then
        // find the true minimum {0, 1}.
        let mut b = tornado_graph::GraphBuilder::new(4);
        b.begin_level("c1");
        b.add_check(&[0, 1]);
        b.add_check(&[2, 3]);
        b.begin_level("c2");
        b.add_check(&[4, 5]);
        let g = b.build().unwrap();
        let mut dec = ErasureDecoder::new(&g);
        assert!(dec.decode(&[0, 4]), "{{0,4}} must NOT block (deep peel)");
        let s = min_blocking_upper_bound(&g, 0, 9, 40);
        assert!(
            !dec.decode(&s),
            "returned set {s:?} must genuinely block data 0"
        );
        assert_eq!(s, vec![0, 1], "true minimum is the closed pair");
    }

    #[test]
    fn min_blocking_respects_certified_tolerance_on_tornado_graphs() {
        // A screened 32-node Tornado graph tolerating any 2 losses cannot
        // have a blocking set smaller than 3.
        let gen = tornado_gen::TornadoGenerator::new(16);
        let (g, _) = tornado_gen::screened(3, 2, |s| gen.generate(s)).unwrap();
        let tolerance = {
            use tornado_codec::ErasureDecoder;
            let mut dec = ErasureDecoder::new(&g);
            let mut it = tornado_bitset::CombinationIter::new(32, 2);
            let mut ok = true;
            while let Some(c) = it.next_slice() {
                if !dec.decode(c) {
                    ok = false;
                    break;
                }
            }
            ok
        };
        if tolerance {
            for d in 0..4u32 {
                let s = min_blocking_upper_bound(&g, d, 11, 30);
                assert!(s.len() >= 3, "data {d}: blocking set {s:?} too small");
                let mut dec = ErasureDecoder::new(&g);
                assert!(!dec.decode(&s));
            }
        }
    }

    #[test]
    fn min_blocking_on_regular_graph_is_small_but_plausible() {
        let g = generate_regular(12, 3, 5).unwrap();
        let s = min_blocking_upper_bound(&g, 0, 2, 60);
        // Must actually block.
        let mut dec = ErasureDecoder::new(&g);
        assert!(dec.decode_detailed(&s).lost_data.contains(&0));
        // Upper bound from the deterministic seed: 1 + deg(0) = 4.
        assert!(s.len() <= 4, "got {s:?}");
        assert!(s.contains(&0));
    }

    #[test]
    fn same_graph_federation_doubles_the_block_cost() {
        // Table 7's "Tornado 1 + Tornado 1" logic: with identical graphs the
        // cheapest joint failure is the same critical set lost at both
        // sites, so the detected size is twice the single-site size.
        let g = generate_mirror(3).unwrap(); // single-site min block = 2
        let found = first_failure_detected(&g, &g, &SEARCH);
        assert_eq!(found.size(), 4);
        // And the failure is real.
        let fed = FederatedSystem::new(&g, &g);
        let mut dec = ErasureDecoder::new(fed.graph());
        assert!(!dec.decode(&found.devices));
    }

    #[test]
    fn different_graphs_cost_at_least_as_much() {
        // Pairing a mirror with a regular graph cannot make joint failure
        // cheaper than the mirrored pair (4 devices total here).
        let a = generate_mirror(6).unwrap();
        let b = generate_regular(6, 3, 3).unwrap();
        let found = first_failure_detected(&a, &b, &SEARCH);
        let fed = FederatedSystem::new(&a, &b);
        let mut dec = ErasureDecoder::new(fed.graph());
        assert!(!dec.decode(&found.devices), "reported failure must verify");
        assert!(
            found.size() >= 4,
            "cheaper than two mirrored pairs: {found:?}"
        );
    }

    #[test]
    fn three_site_federation_layout_and_tolerance() {
        // Three mirrored sites: each block exists 6 times (data + mirror at
        // site 0, replica + mirror at sites 1 and 2).
        let m = generate_mirror(3).unwrap(); // 6 nodes per site
        let fed = FederatedSystem::new_multi(&[&m, &m, &m]);
        assert_eq!(fed.num_sites(), 3);
        // Each later site stores 3 replicas + its 3 mirror checks.
        assert_eq!(fed.total_devices(), 6 + 6 + 6);
        assert_eq!(fed.site(0), 0..6);
        assert_eq!(fed.site(1), 6..12);
        assert_eq!(fed.site(2), 12..18);
        fed.graph().validate().unwrap();

        let mut dec = ErasureDecoder::new(fed.graph());
        // All six copies of block 0: site0 {data 0, mirror 3}, site1
        // {replica 6, mirror 9}, site2 {replica 12, mirror 15}.
        let all_copies = [0usize, 3, 6, 9, 12, 15];
        assert!(!dec.decode(&all_copies), "all copies gone is fatal");
        // Any five of the six still recover.
        for skip in 0..all_copies.len() {
            let partial: Vec<usize> = all_copies
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != skip)
                .map(|(_, &d)| d)
                .collect();
            assert!(dec.decode(&partial), "five of six copies lost must survive");
        }
    }

    #[test]
    fn new_multi_rejects_degenerate_input() {
        let m = generate_mirror(2).unwrap();
        let result = std::panic::catch_unwind(|| FederatedSystem::new_multi(&[&m]));
        assert!(result.is_err(), "single-site federation must panic");
    }

    #[test]
    fn projections_split_a_joint_pattern() {
        let a = generate_mirror(2).unwrap();
        let fed = FederatedSystem::new(&a, &a);
        let joint = vec![1usize, 3, 4, 7];
        assert_eq!(project_site_a(&joint, &fed), vec![1, 3]);
        assert_eq!(project_site_b(&joint, &fed), vec![0, 3]);
    }
}
