//! # tornado — Tornado Code erasure coding for archival storage
//!
//! Facade crate re-exporting the full workspace: a reproduction of
//! *"Fault Tolerance of Tornado Codes for Archival Storage"*
//! (Woitaszek & Tufo, HPDC 2006).
//!
//! A Tornado Code is a cascade of irregular bipartite low-density
//! parity-check (LDPC) graphs: data nodes feed XOR check nodes level by
//! level, and decoding peels erasures off in reverse. This workspace builds
//! the paper's whole system:
//!
//! * graph model and generators ([`graph`], [`gen`]),
//! * XOR codec and peeling decoder ([`codec`]),
//! * the fault-tolerance testing system — exhaustive worst-case search and
//!   Monte-Carlo failure profiling ([`sim`]),
//! * reliability modelling, the RAID comparators and the feedback
//!   graph-adjustment procedure ([`analysis`]),
//! * a simulated archival store with multi-site federation ([`store`]),
//! * the archival block service and its load generator ([`server`]),
//! * the counters, histograms and traces every layer reports ([`obs`]),
//! * the high-level profiled-graph pipeline and the certified graph
//!   catalog ([`core`]).
//!
//! ## Quickstart
//!
//! ```
//! use tornado::core::catalog;
//! use tornado::codec::Codec;
//!
//! // A pre-profiled 96-node Tornado graph (48 data + 48 check nodes).
//! let graph = catalog::tornado_graph_1();
//! let codec = Codec::new(&graph);
//!
//! // Encode 48 data blocks into 96 stored blocks.
//! let data: Vec<Vec<u8>> = (0..48).map(|i| vec![i as u8; 64]).collect();
//! let blocks = codec.encode(&data).unwrap();
//!
//! // Lose any four devices; the data always comes back.
//! let mut stored: Vec<Option<Vec<u8>>> = blocks.into_iter().map(Some).collect();
//! for lost in [3, 17, 48, 95] {
//!     stored[lost] = None;
//! }
//! let recovered = codec.decode(&mut stored).unwrap();
//! assert!(recovered.complete());
//! for i in 0..48 {
//!     assert_eq!(stored[i].as_deref().unwrap(), &data[i][..]);
//! }
//! ```

#![cfg_attr(not(test), warn(unused_crate_dependencies))]
#![warn(unreachable_pub)]

pub use tornado_analysis as analysis;
pub use tornado_bitset as bitset;
pub use tornado_codec as codec;
pub use tornado_core as core;
pub use tornado_gen as gen;
pub use tornado_graph as graph;
pub use tornado_obs as obs;
pub use tornado_server as server;
pub use tornado_sim as sim;
pub use tornado_store as store;
