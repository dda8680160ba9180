//! The out-of-order core timing model.
//!
//! A timestamp-driven model in the style of trace-driven
//! instruction-window simulators: each dynamic instruction receives
//! fetch, dispatch, issue, completion and retire timestamps subject to
//! the machine's structural constraints (fetch/issue/retire bandwidth,
//! window occupancy, dependences, cache latencies, branch redirects).
//! This captures exactly the effects the paper's IPC evaluation depends
//! on — L1 miss latency exposed through the window — at a fraction of the
//! cost of a cycle-by-cycle core model.

use cache_sim::{AccessKind, Addr, MemoryHierarchy};
use trace_gen::{Op, TraceRecord};

use crate::bandwidth::BandwidthLimiter;
use crate::config::CpuConfig;

/// The result of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct CpuReport {
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Loads + stores executed.
    pub memory_ops: u64,
    /// Mispredicted branches encountered.
    pub mispredicts: u64,
}

impl CpuReport {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// The 4-issue out-of-order processor of Table 4, wrapped around a
/// [`MemoryHierarchy`].
///
/// # Examples
///
/// ```
/// use cache_sim::{DirectMappedCache, MemoryHierarchy};
/// use cpu_model::{Cpu, CpuConfig};
/// use trace_gen::{profiles, Trace};
///
/// let l1i = DirectMappedCache::new(16 * 1024, 32)?;
/// let l1d = DirectMappedCache::new(16 * 1024, 32)?;
/// let hierarchy = MemoryHierarchy::new(Box::new(l1i), Box::new(l1d));
/// let mut cpu = Cpu::new(CpuConfig::default(), hierarchy);
///
/// let profile = profiles::by_name("gzip").unwrap();
/// let report = cpu.run(Trace::new(&profile, 1).take(10_000));
/// assert!(report.ipc() > 0.1 && report.ipc() <= 4.0);
/// # Ok::<(), cache_sim::GeometryError>(())
/// ```
pub struct Cpu {
    config: CpuConfig,
    hierarchy: MemoryHierarchy,
}

impl Cpu {
    /// Creates a core around a memory hierarchy.
    pub fn new(config: CpuConfig, hierarchy: MemoryHierarchy) -> Self {
        Cpu { config, hierarchy }
    }

    /// The memory hierarchy (for miss statistics after a run).
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        &self.hierarchy
    }

    /// Mutable access to the hierarchy (e.g. to reset statistics between
    /// a warm-up prefix and the measured run).
    pub fn hierarchy_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.hierarchy
    }

    /// The configuration.
    pub fn config(&self) -> CpuConfig {
        self.config
    }

    /// Simulates the trace to completion and reports timing.
    pub fn run<I>(&mut self, trace: I) -> CpuReport
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let cfg = self.config;
        let mut fetch_bw = BandwidthLimiter::new(cfg.fetch_width);
        let mut issue_bw = BandwidthLimiter::new(cfg.issue_width);
        let mut retire_bw = BandwidthLimiter::new(cfg.retire_width);

        // Retire times of the last `window` instructions (ring buffer):
        // instruction i cannot dispatch before i - window retired.
        let mut rob = vec![0u64; cfg.window];
        // Slot of instruction i, i.e. i % window, as a wrapping cursor.
        let mut rob_slot = 0;
        // Completion times of recent instructions for dependences.
        const DEP_RING: usize = 8;
        let mut completions = [0u64; DEP_RING];

        let mut fetch_line = u64::MAX;
        let mut fetch_block_ready = 0u64; // I$ miss stall
        let mut redirect_until = 0u64; // branch mispredict redirect
        let mut last_retire = 0u64;

        let mut n = 0u64;
        let mut memory_ops = 0u64;
        let mut mispredicts = 0u64;

        for rec in trace {
            let i = n as usize;

            // --- Fetch ---
            let line = rec.pc / 32;
            if line != fetch_line {
                fetch_line = line;
                // The I$ access starts once fetch reaches this block.
                let start = fetch_block_ready
                    .max(redirect_until)
                    .max(fetch_bw.current_cycle());
                let latency = self.hierarchy.fetch(Addr::new(rec.pc));
                fetch_block_ready = start + latency - 1;
            }
            let fetch_t = fetch_bw.slot(fetch_block_ready.max(redirect_until));

            // --- Dispatch: front-end depth + a free window slot ---
            let rob_free = rob[rob_slot];
            let dispatch_t = (fetch_t + cfg.frontend_depth).max(rob_free);

            // --- Ready: wait for the synthetic producer ---
            // A deterministic dependence distance in [1, DEP_RING] hashed
            // from the PC models the ILP available around this PC.
            let dep_dist = ((rec.pc >> 2).wrapping_mul(2654435761) >> 16) as usize % DEP_RING + 1;
            let dep_ready = if (i as u64) >= dep_dist as u64 {
                completions[(i - dep_dist) % DEP_RING]
            } else {
                0
            };
            let ready_t = dispatch_t.max(dep_ready);

            // --- Issue & execute ---
            let issue_t = issue_bw.slot(ready_t);
            let latency = match rec.op {
                Op::Alu | Op::Branch { .. } => 1,
                Op::Long => cfg.long_op_latency,
                Op::Load(addr) => {
                    memory_ops += 1;
                    self.hierarchy
                        .data_access(Addr::new(addr), AccessKind::Read)
                }
                Op::Store(addr) => {
                    memory_ops += 1;
                    // The store buffer hides the store's miss latency, but
                    // the access still updates the cache state (write-
                    // allocate) and the L2/memory traffic counters.
                    self.hierarchy
                        .data_access(Addr::new(addr), AccessKind::Write);
                    1
                }
            };
            let complete_t = issue_t + latency;
            completions[i % DEP_RING] = complete_t;

            // --- Branch redirect ---
            if let Op::Branch { mispredict: true } = rec.op {
                mispredicts += 1;
                redirect_until = redirect_until.max(complete_t + cfg.mispredict_penalty);
            }

            // --- Retire: in order, bounded bandwidth ---
            let retire_t = retire_bw.slot(complete_t.max(last_retire));
            last_retire = retire_t;
            rob[rob_slot] = retire_t;
            rob_slot += 1;
            if rob_slot == rob.len() {
                rob_slot = 0;
            }

            n += 1;
        }

        CpuReport {
            instructions: n,
            cycles: last_retire + 1,
            memory_ops,
            mispredicts,
        }
    }
}

impl std::fmt::Debug for Cpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("config", &self.config)
            .field("hierarchy", &self.hierarchy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::DirectMappedCache;

    fn dm_hierarchy() -> MemoryHierarchy {
        let l1i = DirectMappedCache::new(16 * 1024, 32).unwrap();
        let l1d = DirectMappedCache::new(16 * 1024, 32).unwrap();
        MemoryHierarchy::new(Box::new(l1i), Box::new(l1d))
    }

    fn cpu() -> Cpu {
        Cpu::new(CpuConfig::default(), dm_hierarchy())
    }

    /// A straight-line all-ALU trace with a warm I$.
    fn alu_trace(n: usize) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i as u64 % 8) * 4,
                op: Op::Alu,
            })
            .collect()
    }

    #[test]
    fn window_sizes_pin_exact_cycles() {
        // Pinned from the `i % window` formulation of the ROB ring, so
        // the wrapping cursor must reproduce it cycle for cycle.
        let gzip = trace_gen::profiles::by_name("gzip").unwrap();
        for (window, cycles) in [(1, 44_259), (3, 30_504), (16, 27_084)] {
            let config = CpuConfig {
                window,
                ..CpuConfig::default()
            };
            let report =
                Cpu::new(config, dm_hierarchy()).run(trace_gen::Trace::new(&gzip, 1).take(20_000));
            assert_eq!(report.cycles, cycles, "window {window}");
        }
    }

    #[test]
    fn ipc_bounded_by_width() {
        let mut c = cpu();
        let r = c.run(alu_trace(10_000));
        assert!(r.ipc() <= 4.0, "IPC {} exceeds machine width", r.ipc());
        assert!(
            r.ipc() > 0.5,
            "IPC {} unreasonably low for pure ALU work",
            r.ipc()
        );
        assert_eq!(r.instructions, 10_000);
    }

    #[test]
    fn cache_misses_reduce_ipc() {
        // Loads striding far beyond L2 versus loads hitting one line.
        let hit_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x8000),
            })
            .collect();
        let miss_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x10_0000 + i * 4096),
            })
            .collect();
        let ipc_hit = cpu().run(hit_trace).ipc();
        let ipc_miss = cpu().run(miss_trace).ipc();
        assert!(
            ipc_hit > 3.0 * ipc_miss,
            "misses must hurt: hit {ipc_hit:.3} vs miss {ipc_miss:.3}"
        );
    }

    #[test]
    fn mispredicts_reduce_ipc() {
        let clean: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Branch { mispredict: false },
            })
            .collect();
        let dirty: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Branch {
                    mispredict: i % 4 == 0,
                },
            })
            .collect();
        let ipc_clean = cpu().run(clean).ipc();
        let ipc_dirty = cpu().run(dirty).ipc();
        assert!(ipc_clean > ipc_dirty, "{ipc_clean} vs {ipc_dirty}");
    }

    #[test]
    fn long_ops_are_slower_than_alu() {
        let alu = cpu().run(alu_trace(5_000)).ipc();
        let long_trace: Vec<TraceRecord> = (0..5_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 8) * 4,
                op: Op::Long,
            })
            .collect();
        let long = cpu().run(long_trace).ipc();
        assert!(alu > long);
    }

    #[test]
    fn icache_misses_stall_fetch() {
        // Jump across many lines (one instruction per line) far apart so
        // every fetch misses, versus a tight loop.
        let scattered: Vec<TraceRecord> = (0..2_000)
            .map(|i| TraceRecord {
                pc: (i as u64) * 40_960,
                op: Op::Alu,
            })
            .collect();
        let tight = cpu().run(alu_trace(2_000)).ipc();
        let scattered_ipc = cpu().run(scattered).ipc();
        assert!(tight > 5.0 * scattered_ipc, "{tight} vs {scattered_ipc}");
    }

    #[test]
    fn deterministic_runs() {
        let t = alu_trace(3_000);
        let a = cpu().run(t.clone());
        let b = cpu().run(t);
        assert_eq!(a, b);
    }

    #[test]
    fn counts_memory_ops_and_mispredicts() {
        let trace = vec![
            TraceRecord {
                pc: 0,
                op: Op::Load(64),
            },
            TraceRecord {
                pc: 4,
                op: Op::Store(128),
            },
            TraceRecord {
                pc: 8,
                op: Op::Branch { mispredict: true },
            },
            TraceRecord {
                pc: 12,
                op: Op::Alu,
            },
        ];
        let r = cpu().run(trace);
        assert_eq!(r.memory_ops, 2);
        assert_eq!(r.mispredicts, 1);
        assert_eq!(r.instructions, 4);
    }

    #[test]
    fn empty_trace_reports_zero_work() {
        let r = cpu().run(Vec::new());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn hierarchy_statistics_are_visible_after_run() {
        let mut c = cpu();
        c.run(alu_trace(100));
        assert!(c.hierarchy().l1i().stats().total().accesses() > 0);
    }

    #[test]
    fn window_limits_overlap_of_long_loads() {
        // With a 16-entry window, at most ~16 instructions can be in
        // flight: a stream of independent 100-cycle misses cannot sustain
        // more than window/latency IPC.
        let misses: Vec<TraceRecord> = (0..2_000)
            .map(|i| TraceRecord {
                pc: 0x1000 + (i % 4) * 4,
                op: Op::Load(0x100_0000 + i * 8192),
            })
            .collect();
        let r = cpu().run(misses);
        let bound = 16.0 / 100.0;
        assert!(
            r.ipc() < bound * 2.5,
            "IPC {} violates window bound {bound}",
            r.ipc()
        );
    }
}
