//! Explore the B-Cache design space (Section 6.3) on one benchmark:
//! sweep the mapping factor MF and the associativity BAS, and watch the
//! interplay between PD hit rate and miss-rate reduction.
//!
//! Run with: `cargo run --release --example design_space [benchmark]`

use std::env;

use harness::run::{replay_bcache_pd_on, replay_config_on, RunLength, Side};
use harness::{default_parallelism, CacheConfig, Engine};
use trace_gen::profiles;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = env::args().nth(1).unwrap_or_else(|| "twolf".to_string());
    let profile = profiles::by_name(&benchmark).ok_or_else(|| {
        format!("unknown benchmark {benchmark:?}; try one of: equake, twolf, gcc")
    })?;
    let len = RunLength::with_records(1_000_000);
    // Generate the data-side access stream once; every design point
    // replays it.
    let trace = Engine::new(default_parallelism()).side_trace(&profile, len, Side::Data);

    let dm = CacheConfig::DirectMapped;
    let baseline = replay_config_on(profile.name, &trace, &dm, 16 * 1024, Side::Data, len);
    println!(
        "{benchmark}: 16 kB direct-mapped D$ baseline miss rate {:.2}%\n",
        baseline * 100.0
    );
    println!(
        "{:>6} {:>6} {:>8} {:>10} {:>12} {:>12}",
        "MF", "BAS", "PD bits", "miss rate", "reduction", "PD-hit@miss"
    );
    for bas in [2usize, 4, 8, 16] {
        for mf in [1usize, 2, 4, 8, 16, 32] {
            let o = replay_bcache_pd_on(&trace, mf, bas, 16 * 1024);
            let pd_bits = (mf as f64).log2() as u32 + (bas as f64).log2() as u32;
            println!(
                "{:>6} {:>6} {:>8} {:>9.2}% {:>11.1}% {:>11.1}%",
                mf,
                bas,
                pd_bits,
                o.miss_rate * 100.0,
                (1.0 - o.miss_rate / baseline) * 100.0,
                o.pd_hit_rate_on_miss * 100.0
            );
        }
        println!();
    }
    println!(
        "The paper picks MF = 8, BAS = 8 (a 6-bit PD): the largest design whose CAM\n\
         still fits in the decoder's timing slack (Table 1)."
    );
    Ok(())
}
