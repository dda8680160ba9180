//! Quickstart: build the paper's B-Cache, run a synthetic SPEC2K
//! workload against it and the direct-mapped baseline, and read the
//! statistics.
//!
//! Run with: `cargo run --release --example quickstart`

use bcache_core::{BCacheParams, BalancedCache};
use cache_sim::{AccessKind, Addr, CacheGeometry, CacheModel, DirectMappedCache};
use trace_gen::{profiles, Op, Trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's L1 data cache: 16 kB, 32-byte lines, direct-mapped.
    let geometry = CacheGeometry::new(16 * 1024, 32, 1)?;
    let mut baseline = DirectMappedCache::from_geometry(geometry)?;

    // The B-Cache design point chosen in the paper: MF = 8, BAS = 8, LRU.
    let params = BCacheParams::paper_default(geometry)?;
    let mut bcache = BalancedCache::new(params);
    println!("configured: {}", bcache.params());
    println!(
        "index layout: {} NPI bits + {} PI bits (CAM), residual tag {} bits\n",
        bcache.layout().npi_bits(),
        bcache.layout().pi_bits(),
        bcache.layout().residual_tag_bits()
    );

    // Replay one million data references of the synthetic `equake`.
    let profile = profiles::by_name("equake").expect("equake is a known benchmark");
    for record in Trace::new(&profile, 42).take(1_000_000) {
        if let Some(addr) = record.op.data_addr() {
            let kind = match record.op {
                Op::Store(_) => AccessKind::Write,
                _ => AccessKind::Read,
            };
            baseline.access(Addr::new(addr), kind);
            bcache.access(Addr::new(addr), kind);
        }
    }

    println!("direct-mapped baseline: {}", baseline.stats());
    println!("B-Cache (MF=8, BAS=8):  {}", bcache.stats());
    let reduction = 1.0 - bcache.stats().miss_rate() / baseline.stats().miss_rate();
    println!("miss-rate reduction:    {:.1}%", reduction * 100.0);
    println!(
        "PD hit rate on misses:  {:.1}%  (low = replacement policy in control)",
        bcache.pd_stats().pd_hit_rate_on_miss() * 100.0
    );
    println!("\nset balance (Table 7 classification):");
    println!("  baseline: {}", baseline.set_usage().balance());
    println!("  B-Cache:  {}", bcache.set_usage().balance());

    assert!(
        reduction > 0.5,
        "equake should show a large conflict-miss reduction"
    );
    Ok(())
}
