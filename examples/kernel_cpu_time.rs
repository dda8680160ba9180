//! CPU time per access of each fleet kernel, batched and per access, on
//! the hit-path and miss-path streams of `bcache-bench`'s `replay-hit`
//! and `replay-miss` workloads.
//!
//! Run with: `cargo run --release --example kernel_cpu_time [records] [rotations]`
//!
//! Each cell replays a fresh model over every trace of its side, timed
//! by this thread's CPU clock (`CLOCK_THREAD_CPUTIME_ID`; x86-64 Linux,
//! wall clock elsewhere), so time the VM steals from the thread is not
//! counted, unlike the benchmark's wall-clock `kernel.*.ns_per_access`.
//! The kernels run in rotation and each cell keeps its fastest
//! rotation.

use std::io::{self, Write};

use cache_sim::{AccessKind, Addr, CacheModel};
use harness::bench::model_set;
use harness::run::SideTrace;
use harness::Side;
use trace_gen::{profiles, Trace};

/// Nanoseconds this thread has spent on a CPU.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn thread_cpu_ns() -> u64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
    // x86-64 Linux) through rsi, which points at `ts`; the `syscall`
    // instruction clobbers only rax, rcx and r11, all declared.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// Nanoseconds of wall clock since the first call (no portable CPU
/// clock in std).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn thread_cpu_ns() -> u64 {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    START
        .get_or_init(std::time::Instant::now)
        .elapsed()
        .as_nanos() as u64
}

/// `println!` that ends the run with exit 0 once stdout is closed
/// (`kernel_cpu_time | head -1`), as `bcache-repro` does.
macro_rules! out {
    ($($arg:tt)*) => {
        write_line(format_args!($($arg)*))
    };
}

fn write_line(args: std::fmt::Arguments<'_>) {
    if let Err(e) = writeln!(io::stdout(), "{args}") {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// The `side` streams of `names`, `records` records each.
fn streams(names: &[&str], side: Side, records: usize) -> Vec<Vec<(Addr, AccessKind)>> {
    names
        .iter()
        .map(|&name| {
            let p = profiles::by_name(name).expect("a SPEC profile");
            let buf = Trace::new(&p, 1).take_buffer(records);
            SideTrace::extract(buf.iter(), side, 0).accesses().to_vec()
        })
        .collect()
}

fn main() {
    let mut args = std::env::args().skip(1);
    let records: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(300_000);
    let rotations: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(6);
    let kernels = model_set();
    let sides = [
        (
            "hit",
            streams(
                &["gcc", "crafty", "vortex", "eon"],
                Side::Instruction,
                records,
            ),
        ),
        ("miss", streams(&["mcf", "equake"], Side::Data, records)),
    ];
    out!("stream\tpath\tkernel\tns/access");
    for (side, traces) in &sides {
        let accesses: usize = traces.iter().map(Vec::len).sum();
        for batched in [true, false] {
            let mut best = vec![u64::MAX; kernels.len()];
            for _ in 0..rotations {
                for (k, (_, config)) in kernels.iter().enumerate() {
                    let start = thread_cpu_ns();
                    for trace in traces {
                        let mut model = config.build(16 * 1024, 7).expect("fleet model");
                        if batched {
                            model.access_batch(trace);
                        } else {
                            for &(addr, kind) in trace {
                                model.access(addr, kind);
                            }
                        }
                        std::hint::black_box(model.stats().total().misses());
                    }
                    best[k] = best[k].min(thread_cpu_ns() - start);
                }
            }
            let path = if batched { "batch" } else { "access" };
            for ((name, _), ns) in kernels.iter().zip(best) {
                out!("{side}\t{path}\t{name}\t{:.2}", ns as f64 / accesses as f64);
            }
        }
    }
}
