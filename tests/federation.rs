//! Cross-crate federation integration: catalog graphs, federated stores,
//! and N-site systems working together.

use tornado::codec::ErasureDecoder;
use tornado::sim::multi::FederatedSystem;
use tornado::store::federation::FetchPath;
use tornado::store::{FederatedStore, StoreError};

#[test]
fn catalog_pair_federation_end_to_end() {
    let fed = FederatedStore::new(
        tornado::core::catalog::tornado_graph_1(),
        tornado::core::catalog::tornado_graph_2(),
    );
    let id = fed.put("records.tar", &vec![0x5A; 30_000]).expect("put");

    // Four failures at site A — within certification, site A still serves.
    for d in [2usize, 40, 60, 90] {
        fed.site_a().fail_device(d).expect("fail");
    }
    let (payload, path) = fed.get(id).expect("get");
    assert_eq!(payload.len(), 30_000);
    assert_eq!(
        path,
        FetchPath::SiteA,
        "four losses are within certification"
    );

    // Eight more failures at site A likely defeat it; site B takes over.
    for d in [1usize, 5, 9, 13, 17, 21, 25, 29] {
        fed.site_a().fail_device(d).expect("fail");
    }
    let (payload, _) = fed.get(id).expect("degraded get");
    assert_eq!(payload.len(), 30_000);
}

#[test]
fn three_site_tornado_federation_decodes_jointly() {
    let t1 = tornado::core::catalog::tornado_graph_1();
    let t2 = tornado::core::catalog::tornado_graph_2();
    let t3 = tornado::core::catalog::tornado_graph_3();
    let fed = FederatedSystem::new_multi(&[&t1, &t2, &t3]);
    assert_eq!(fed.num_sites(), 3);
    assert_eq!(fed.total_devices(), 96 + 96 + 96);
    fed.graph().validate().unwrap();

    let mut dec = ErasureDecoder::new(fed.graph());
    // Losing an entire site plus scattered damage elsewhere still decodes.
    let mut missing: Vec<usize> = fed.site(1).collect();
    missing.extend([0usize, 7, 50, 80]); // site 0 damage
    missing.extend(fed.site(2).take(10)); // some of site 2's replicas
    assert!(dec.decode(&missing), "two healthy-ish sites carry the data");

    // Losing every copy of one block across all three sites is fatal:
    // block 0 at site 0 plus its replicas, plus all checks containing it
    // everywhere (the full three-site closure).
    let mut closure: Vec<usize> = Vec::new();
    for (site, graph) in [(0usize, &t1), (1, &t2), (2, &t3)] {
        let base = fed.site(site).start;
        let mut cone = vec![0u32];
        let mut frontier = vec![0u32];
        while let Some(v) = frontier.pop() {
            for &c in graph.checks_of(v) {
                if !cone.contains(&c) {
                    cone.push(c);
                    frontier.push(c);
                }
            }
        }
        closure.extend(cone.into_iter().map(|x| base + x as usize));
    }
    assert!(!dec.decode(&closure), "full three-site closure must fail");
}

#[test]
fn federated_store_reports_unknown_objects() {
    let fed = FederatedStore::new(
        tornado::gen::mirror::generate_mirror(4).unwrap(),
        tornado::gen::mirror::generate_mirror(4).unwrap(),
    );
    assert!(matches!(
        fed.get(99),
        Err(StoreError::UnknownObject { id: 99 })
    ));
}
