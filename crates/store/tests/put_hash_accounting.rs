//! A PUT hashes every stored byte exactly once: the digests come out of the
//! encoder as the blocks are written, and nothing streams the stripe again.
//!
//! One test, so one process: `kernel.bytes_hashed` is process-wide, and an
//! exact delta needs nothing else hashing meanwhile.

use tornado_codec::kernels;
use tornado_store::ArchivalStore;

#[test]
fn a_put_hashes_each_of_its_96_blocks_once() {
    let store = ArchivalStore::new(tornado_core::tornado_graph_1());
    let payload: Vec<u8> = (0..64usize << 10).map(|i| (i * 31 % 251) as u8).collect();
    let hashed = || kernels::metrics().bytes_hashed.get();

    let before = hashed();
    let id = store.put("x", &payload).unwrap();
    let moved = hashed() - before;

    let meta = store.meta(id).unwrap();
    assert_eq!(meta.checksums.len(), 96);
    assert_eq!(moved, 96 * meta.block_len as u64);
    assert_eq!(
        store.get(id).unwrap(),
        payload,
        "the digests are the blocks'"
    );
}
