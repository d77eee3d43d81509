//! Tornado vs Reed–Solomon time at the same (96, 48) configuration — the
//! §2.1 claim ("Tornado Codes encode and decode files in substantially
//! less time than Reed-Solomon codes") made measurable.
//!
//! Both codes encode the same 48 data blocks, and decode the same stripe
//! with four blocks lost (the Tornado worst-case tolerance), so they face
//! the same repair job. The decode rows include cloning the stripe into
//! place, identically on both sides.

use crate::effort::Effort;
use crate::harness::{csv, median_ns, num, obj, Report};
use std::hint::black_box;
use tornado_codec::{Codec, ReedSolomon};
use tornado_obs::Json;

/// Blocks erased before each decode.
const LOST: [usize; 4] = [3, 17, 48, 95];

/// Times both codes and renders the table. Asserts the claim itself (in
/// release; a debug build's timings mean nothing): the XOR peeler encodes
/// faster than the GF(256) code at every block size.
pub(crate) fn run(effort: &Effort) -> Report {
    let (block_lens, samples): (&[usize], usize) = if effort.quick {
        (&[1 << 12], 3)
    } else {
        (&[1 << 12, 1 << 16], 9)
    };
    let graph = tornado_core::tornado_graph_1();
    let tornado = Codec::new(&graph);
    let rs = ReedSolomon::new(48, 96);

    let mut rows = Vec::new();
    for &block_len in block_lens {
        let data: Vec<Vec<u8>> = (0..48)
            .map(|i| vec![(i * 37 + 11) as u8; block_len])
            .collect();
        let t_blocks = tornado.encode(&data).expect("tornado encode");
        let r_blocks = rs.encode(&data).expect("rs encode");
        let stripe_without_lost = |blocks: &[Vec<u8>]| {
            let mut stored: Vec<Option<Vec<u8>>> = blocks.iter().cloned().map(Some).collect();
            for lost in LOST {
                stored[lost] = None;
            }
            stored
        };
        let us = |f: &mut dyn FnMut()| median_ns(1, samples, f) / 1_000.0;
        let timings = [
            (
                "encode",
                us(&mut || drop(black_box(tornado.encode(black_box(&data))))),
                us(&mut || drop(black_box(rs.encode(black_box(&data))))),
            ),
            (
                "decode_4",
                us(&mut || {
                    let mut stored = stripe_without_lost(&t_blocks);
                    assert!(tornado
                        .decode(&mut stored)
                        .expect("tornado decode")
                        .complete());
                }),
                us(&mut || {
                    let mut stored = stripe_without_lost(&r_blocks);
                    assert!(rs.decode(&mut stored).expect("rs decode").complete());
                }),
            ),
        ];
        for (op, tornado_us, rs_us) in timings {
            let ratio = rs_us / tornado_us;
            assert!(
                cfg!(debug_assertions) || op != "encode" || ratio > 1.0,
                "tornado encode ({tornado_us:.1} us) is not faster than RS ({rs_us:.1} us) at \
                 {block_len} B blocks"
            );
            rows.push(obj([
                ("op", Json::Str(op.into())),
                ("block_bytes", Json::U64(block_len as u64)),
                ("tornado_us", num(tornado_us, 1)),
                ("rs_us", num(rs_us, 1)),
                ("rs_over_tornado", num(ratio, 2)),
            ]));
        }
    }
    let text = format!(
        "# Tornado vs Reed-Solomon, (96, 48), 4 blocks lost on decode, microseconds per stripe, \
         median of {samples} samples\n{}",
        csv(&rows)
    );
    let data = obj([
        (
            "graph",
            Json::Str("tornado_graph_1 (96 nodes, 48 data)".into()),
        ),
        (
            "rs",
            Json::Str("ReedSolomon (n = 96, k = 48) over GF(256)".into()),
        ),
        ("samples_per_case", Json::U64(samples as u64)),
        ("units", Json::Str("us_per_stripe".into())),
        ("rows", Json::Arr(rows)),
    ]);
    Report {
        text,
        data: Some(data),
    }
}
