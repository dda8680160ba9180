//! Test support: replays one stream through a [`LaneModel`] on every
//! lane backend this CPU has, through both access paths, and checks
//! that the four replays end in the same state.

use std::fmt::Debug;

use trace_gen::{profiles, synthetic, BenchmarkProfile, Op, Trace};

use crate::model::{AccessKind, AccessResult, LaneAccess, LaneBatch, LaneModel};
use crate::simd::{Lanes, Portable};
use crate::Addr;

/// Accesses per stream: enough for every kernel to fill, evict and
/// write back, few enough for a debug build.
const ACCESSES: usize = 6_000;

/// The data side of `profile`'s first records, `ACCESSES` at most.
fn data_side(profile: &BenchmarkProfile) -> Vec<(Addr, AccessKind)> {
    let records = Trace::new(profile, 1).take_buffer(ACCESSES * 4);
    records
        .iter()
        .filter_map(|r| match r.op {
            Op::Load(a) => Some((Addr::new(a), AccessKind::Read)),
            Op::Store(a) => Some((Addr::new(a), AccessKind::Write)),
            _ => None,
        })
        .take(ACCESSES)
        .collect()
}

/// The streams every backend is checked on: uniform over 64 kB, the
/// birthday adversary (32 blocks that share every index field) and the
/// data side of a SPEC profile (mcf, the most miss-heavy).
pub(crate) fn streams() -> Vec<(&'static str, Vec<(Addr, AccessKind)>)> {
    let mcf = profiles::by_name("mcf").expect("mcf is a SPEC profile");
    vec![
        ("uniform64k", data_side(&synthetic::uniform64k())),
        ("birthday32", data_side(&synthetic::birthday(32))),
        ("mcf", data_side(&mcf)),
    ]
}

/// Replays `stream` on `lanes`, one access per frame or in batches of
/// uneven length; returns the per-access results (empty when batched).
fn replay<M: LaneModel, L: Lanes>(
    lanes: L,
    model: &mut M,
    stream: &[(Addr, AccessKind)],
    batched: bool,
) -> Vec<AccessResult> {
    if batched {
        for batch in stream.chunks(1_000 - 7) {
            lanes.run(LaneBatch(model, batch));
        }
        return Vec::new();
    }
    stream
        .iter()
        .map(|&(addr, kind)| lanes.run(LaneAccess(model, addr, kind)))
        .collect()
}

/// Replays every stream through `build()`'s model on the portable and,
/// when the CPU has it, the AVX2 backend, per access and batched, and
/// asserts that `state` reads the same after all four replays (and that
/// both backends' per-access results agree). Returns whether the AVX2
/// backend ran.
pub(crate) fn check<M: LaneModel, S: PartialEq + Debug>(
    name: &str,
    build: impl Fn() -> M,
    state: impl Fn(&mut M) -> S,
) -> bool {
    let mut avx2_checked = false;
    for (stream_name, stream) in streams() {
        let mut reference = build();
        let results = replay(Portable, &mut reference, &stream, false);
        let want = state(&mut reference);
        let mut batched = build();
        replay(Portable, &mut batched, &stream, true);
        assert_eq!(
            state(&mut batched),
            want,
            "{name} {stream_name}: portable batch"
        );
        #[cfg(target_arch = "x86_64")]
        if let Some(lanes) = crate::simd::Avx2::new() {
            let mut m = build();
            let got = replay(lanes, &mut m, &stream, false);
            assert_eq!(
                got, results,
                "{name} {stream_name}: AVX2 per-access results"
            );
            assert_eq!(state(&mut m), want, "{name} {stream_name}: AVX2 access");
            let mut m = build();
            replay(lanes, &mut m, &stream, true);
            assert_eq!(state(&mut m), want, "{name} {stream_name}: AVX2 batch");
            avx2_checked = true;
        }
    }
    avx2_checked
}

/// Says what [`check`] covered: on a CPU without the AVX2 frame's
/// features only the portable backend ran.
pub(crate) fn report(avx2_checked: bool) {
    if avx2_checked {
        println!("checked the portable and avx2 backends");
    } else {
        println!("this CPU lacks the AVX2 frame's features: checked the portable path only");
    }
}
