//! `TraceBuffer` round trips: every record sequence comes back exactly,
//! whichever way the buffer was filled, and every shipped profile's
//! buffered trace equals its generator's stream.

use proptest::prelude::*;
use trace_gen::{profiles, synthetic, Op, Trace, TraceBuffer, TraceRecord};

/// Record sequences that exercise every column of the encoding: runs of
/// `pc + 4` (wrapping past `u64::MAX`), near misses of it (`pc + 0..16`),
/// PCs that are not multiples of 4, PCs at the top of the address space,
/// every op kind, and data addresses at both extremes.
fn records_strategy() -> impl Strategy<Value = Vec<TraceRecord>> {
    prop::collection::vec(
        (0u32..5, any::<u64>(), 0u32..6, 0u32..3, any::<u64>()),
        0..300,
    )
    .prop_map(|draws| {
        let mut prev = 0u64;
        draws
            .into_iter()
            .map(|(pc_mode, pc_raw, kind, addr_mode, addr_raw)| {
                let pc = match pc_mode {
                    0 => prev.wrapping_add(4),
                    1 => pc_raw,
                    2 => u64::MAX - pc_raw % 8,
                    3 => prev.wrapping_add(pc_raw % 16),
                    _ => pc_raw & !3,
                };
                prev = pc;
                let addr = match addr_mode {
                    0 => addr_raw,
                    1 => 0,
                    _ => u64::MAX,
                };
                let op = match kind {
                    0 => Op::Alu,
                    1 => Op::Long,
                    2 => Op::Load(addr),
                    3 => Op::Store(addr),
                    4 => Op::Branch { mispredict: false },
                    _ => Op::Branch { mispredict: true },
                };
                TraceRecord { pc, op }
            })
            .collect()
    })
}

fn assert_round_trip(buf: &TraceBuffer, records: &[TraceRecord]) {
    assert_eq!(buf.len(), records.len());
    assert_eq!(buf.is_empty(), records.is_empty());
    assert_eq!(buf.iter().len(), records.len());
    assert_eq!(buf.iter().collect::<Vec<_>>(), records);
}

proptest! {
    #[test]
    fn push_extend_and_collect_agree(records in records_strategy(), split in 0usize..300) {
        let collected: TraceBuffer = records.iter().copied().collect();
        assert_round_trip(&collected, &records);

        let mut pushed = TraceBuffer::new();
        for &rec in &records {
            pushed.push(rec);
        }
        assert_round_trip(&pushed, &records);

        // Extend in two parts; the second continues the first's PC
        // sequence.
        let split = split.min(records.len());
        let mut extended = TraceBuffer::with_capacity(split);
        extended.extend(records[..split].iter().copied());
        extended.extend(records[split..].iter().copied());
        assert_round_trip(&extended, &records);

        prop_assert_eq!(&pushed, &collected);
        prop_assert_eq!(&extended, &collected);
        prop_assert_eq!(&collected.clone(), &collected);
    }
}

#[test]
fn empty_and_one_record_buffers() {
    assert_round_trip(&TraceBuffer::new(), &[]);
    assert_round_trip(&TraceBuffer::with_capacity(8), &[]);
    for op in [
        Op::Alu,
        Op::Long,
        Op::Load(0),
        Op::Store(u64::MAX),
        Op::Branch { mispredict: false },
        Op::Branch { mispredict: true },
    ] {
        for pc in [0, 3, 4, u64::MAX] {
            let rec = [TraceRecord { pc, op }];
            let buf: TraceBuffer = rec.iter().copied().collect();
            assert_round_trip(&buf, &rec);
        }
    }
}

#[test]
fn unequal_records_make_unequal_buffers() {
    let buf = |op, pc| {
        [TraceRecord { pc, op }]
            .into_iter()
            .collect::<TraceBuffer>()
    };
    let a = buf(Op::Load(8), 4);
    for other in [
        buf(Op::Store(8), 4),
        buf(Op::Load(8), 5),
        buf(Op::Load(9), 4),
    ] {
        assert_ne!(a, other);
    }
}

#[test]
fn every_profile_buffers_its_generator_stream() {
    const RECORDS: usize = 50_000;
    for p in profiles::all().into_iter().chain(synthetic::all()) {
        let buf = Trace::new(&p, 3).take_buffer(RECORDS);
        assert_eq!(buf.len(), RECORDS, "{}", p.name);
        assert!(
            buf.iter().eq(Trace::new(&p, 3).take(RECORDS)),
            "{}: buffered records differ from the generator",
            p.name
        );
    }
}
