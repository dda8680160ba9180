//! What a run measured, how it becomes metrics, the report files, and
//! `compare`.
//!
//! A workload returns an [`Outcome`]: its set-up times, one [`Rep`] per
//! timed repetition, and its correctness accounting. [`Report`] derives
//! every metric from that the same way for all workloads: each host-time
//! metric is measured in process CPU time ([`crate::clock`]) once per rep
//! (or per set-up); a run reports the slow decile of its per-rep
//! throughputs ([`slow_decile`]) and the median of its set-ups, with the
//! quartiles and sample count kept beside each.

use std::fmt::Write as _;
use std::time::Duration;

use crate::json::{self, Json};
use crate::layers::LayerTally;
use crate::stats::{slow_decile, tail, Summary};
use crate::{end_to_end_metrics, per_layer_metrics, Better};

/// One timed repetition of a workload.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rep {
    /// Process CPU time of the repetition ([`crate::clock`]).
    pub cpu: Duration,
    /// Simulated L1 accesses it performed.
    pub accesses: u64,
    /// Simulated instructions (trace records) it covered.
    pub records: u64,
    /// Jobs it completed.
    pub jobs: u64,
    /// Per-job host latency (wall clock), in milliseconds.
    pub job_ms: Vec<f64>,
    /// Digest of its exact simulated outputs.
    pub digest: u64,
}

/// Everything one workload run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Each set-up's process CPU time, in seconds.
    pub setup_s: Vec<f64>,
    /// Untraced timed repetitions.
    pub reps: Vec<Rep>,
    /// Traced timed repetitions (traced runs only).
    pub traced_reps: Vec<Rep>,
    /// Peak resident memory after set-up and the warm-up rep (simulator
    /// workloads) or the untraced timed windows (serve-open), in MiB.
    pub peak_rss_mb: f64,
    /// Jobs attempted, warm-up included.
    pub attempted: u64,
    /// Jobs refused, failed, or with a wrong output.
    pub failed: u64,
    /// Why the run is not correct (empty when it is).
    pub problems: Vec<String>,
    /// Per-layer tallies (traced runs only).
    pub layers: Option<LayerTally>,
    /// Metrics of layers only this workload exercises (engine, serve),
    /// written to the report file of a traced run.
    pub details: Vec<Value>,
}

/// One reported number with its spread.
#[derive(Clone, Debug, PartialEq)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The reported value (a median unless the note says otherwise).
    pub value: f64,
    /// First quartile of the samples behind it.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples behind it.
    pub n: usize,
    /// How the value was taken, when it is not a plain median.
    pub note: String,
}

impl Value {
    /// A single measured number.
    pub fn single(name: &str, unit: &str, value: f64) -> Value {
        Value {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            q1: value,
            q3: value,
            n: 1,
            note: String::new(),
        }
    }

    /// The median of `samples`, with quartiles.
    pub fn median(name: &str, unit: &str, samples: &[f64]) -> Value {
        let s = Summary::of(samples).unwrap_or(Summary {
            n: 0,
            median: 0.0,
            q1: 0.0,
            q3: 0.0,
        });
        Value {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            q1: s.q1,
            q3: s.q3,
            n: s.n,
            note: String::new(),
        }
    }

    /// The slow decile of per-rep `rates` (see [`slow_decile`]), with
    /// their quartiles; the note gives the median.
    pub fn slow_decile(name: &str, unit: &str, rates: &[f64]) -> Value {
        let median = Value::median(name, unit, rates);
        Value {
            value: slow_decile(rates).unwrap_or(0.0),
            note: format!("p10 of {} reps; median {:.6}", median.n, median.value),
            ..median
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"note\": {}}}",
            json::number(self.value),
            json::string(&self.unit),
            json::number(self.q1),
            json::number(self.q3),
            self.n,
            json::string(&self.note)
        )
    }

    fn from_json(name: &str, v: &Json) -> Result<Value, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name}: missing {k}"))
        };
        Ok(Value {
            name: name.to_string(),
            unit: v
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("metric {name}: missing unit"))?
                .to_string(),
            value: num("value")?,
            q1: num("q1")?,
            q3: num("q3")?,
            n: num("n")? as usize,
            note: v
                .get("note")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        })
    }
}

/// A workload run's report: correctness, end-to-end metrics, and (when
/// traced) the per-layer metrics.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Scale name.
    pub scale: String,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Every output matched and no job failed.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed (refused, errored, or wrong).
    pub failed: u64,
    /// Correctness problems found.
    pub problems: Vec<String>,
    /// End-to-end metrics (of the untraced reps).
    pub end_to_end: Vec<Value>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Value>,
    /// Ungated numbers: the wall-clock job latencies, and (traced runs)
    /// the metrics of layers only this workload exercises.
    pub details: Vec<Value>,
}

/// Work per CPU-second of each rep.
fn rates(reps: &[Rep], work: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter()
        .map(|r| work(r) / r.cpu.as_secs_f64().max(1e-9))
        .collect()
}

/// The end-to-end metric values of a run, in [`end_to_end_metrics`]
/// order: the slow decile of the per-rep rates and the median of the
/// set-ups' CPU times.
pub fn end_to_end(reps: &[Rep], setup_s: &[f64], peak_rss_mb: f64) -> Vec<Value> {
    let rate = |name: &str, unit: &str, work: &dyn Fn(&Rep) -> f64| {
        Value::slow_decile(name, unit, &rates(reps, work))
    };
    vec![
        rate("sim_maccess_per_cpu_s", "MA/cpu-s", &|r| {
            r.accesses as f64 / 1e6
        }),
        rate("sim_minst_per_cpu_s", "MI/cpu-s", &|r| {
            r.records as f64 / 1e6
        }),
        rate("jobs_per_cpu_s", "1/cpu-s", &|r| r.jobs as f64),
        Value::median("setup_s", "s", setup_s),
        Value::single("peak_rss_mb", "MiB", peak_rss_mb),
    ]
}

/// The wall-clock job latencies of a run, pooled over its reps: the
/// median and the highest percentile (at most p99) with at least ten
/// jobs beyond it. Reported beside the end-to-end metrics, not gated:
/// wall-clock latency carries the host's steal bursts (see
/// [`crate::clock`]), so it does not repeat from run to run as a
/// regression gate needs.
pub fn job_latencies(reps: &[Rep]) -> [Value; 2] {
    let jobs: Vec<f64> = reps.iter().flat_map(|r| r.job_ms.iter().copied()).collect();
    let (value, note) = match tail(&jobs) {
        Some((p, v)) => (v, format!("p{p} of {} jobs", jobs.len())),
        None => (
            jobs.iter().copied().fold(0.0, f64::max),
            format!("max of {} jobs, too few for a tail", jobs.len()),
        ),
    };
    [
        Value::median("job_p50_ms", "ms", &jobs),
        Value {
            n: jobs.len(),
            note,
            ..Value::single("job_tail_ms", "ms", value)
        },
    ]
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

impl Report {
    /// Derives the report of one workload run.
    pub fn new(workload: &str, seed: u64, scale: &str, traced: bool, outcome: Outcome) -> Report {
        let per_layer = match &outcome.layers {
            Some(layers) if traced => {
                let units = per_layer_metrics();
                let unit =
                    |name: &str| units.iter().find(|s| s.name == name).map_or("", |s| s.unit);
                let mut v: Vec<Value> = layers
                    .metrics()
                    .into_iter()
                    .map(|(name, value)| Value::single(&name, unit(&name), value))
                    .collect();
                let rate = |reps: &[Rep]| {
                    let r = rates(reps, |r| r.accesses as f64 / 1e6);
                    slow_decile(&r).unwrap_or(0.0)
                };
                let (plain, spanned) = (rate(&outcome.reps), rate(&outcome.traced_reps));
                let mut overhead = Value::single(
                    "trace.overhead_pct",
                    "%",
                    (plain / spanned.max(1e-12) - 1.0) * 100.0,
                );
                overhead.note = format!(
                    "CPU per access, traced over untraced: {spanned:.4} vs {plain:.4} MA/cpu-s"
                );
                v.push(overhead);
                v
            }
            _ => Vec::new(),
        };
        Report {
            workload: workload.to_string(),
            seed,
            scale: scale.to_string(),
            traced,
            correct: outcome.problems.is_empty() && outcome.failed == 0,
            attempted: outcome.attempted,
            failed: outcome.failed,
            end_to_end: end_to_end(&outcome.reps, &outcome.setup_s, outcome.peak_rss_mb),
            per_layer,
            details: job_latencies(&outcome.reps)
                .into_iter()
                .chain(outcome.details)
                .collect(),
            problems: outcome.problems,
        }
    }

    /// The metrics the run reports on its last line: per-layer for a
    /// traced run, end-to-end otherwise.
    pub fn headline(&self) -> &[Value] {
        if self.traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// headline metrics as `{"value", "unit"}`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .headline()
            .iter()
            .map(|v| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::string(&v.name),
                    json::number(v.value),
                    json::string(&v.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The report file: everything, spreads included.
    pub fn to_json(&self) -> String {
        let group = |values: &[Value]| {
            let items: Vec<String> = values
                .iter()
                .map(|v| format!("    {}: {}", json::string(&v.name), v.to_json()))
                .collect();
            if items.is_empty() {
                "{}".to_string()
            } else {
                format!("{{\n{}\n  }}", items.join(",\n"))
            }
        };
        let problems: Vec<String> = self.problems.iter().map(|p| json::string(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"scale\": {},\n  \"traced\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \
             \"end_to_end\": {},\n  \"per_layer\": {},\n  \"details\": {}\n}}\n",
            json::string(&self.workload),
            self.seed,
            json::string(&self.scale),
            self.traced,
            self.correct,
            self.attempted,
            self.failed,
            problems.join(", "),
            group(&self.end_to_end),
            group(&self.per_layer),
            group(&self.details),
        )
    }

    /// Reads a report file written by [`Report::to_json`].
    pub fn from_json(text: &str) -> Result<Report, String> {
        let j = Json::parse(text)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report has no {k:?}"));
        let values = |k: &str| -> Result<Vec<Value>, String> {
            field(k)?
                .as_object()
                .ok_or_else(|| format!("{k} is not an object"))?
                .iter()
                .map(|(name, v)| Value::from_json(name, v))
                .collect()
        };
        let u = |k: &str| {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("{k} is not a count"))
        };
        let b = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("{k} is not a boolean"))
        };
        let s = |k: &str| {
            field(k)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("{k} is not a string"))
        };
        Ok(Report {
            workload: s("workload")?,
            seed: u("seed")?,
            scale: s("scale")?,
            traced: b("traced")?,
            correct: b("correct")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            problems: field("problems")?
                .as_array()
                .ok_or("problems is not an array")?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_string))
                .collect(),
            end_to_end: values("end_to_end")?,
            per_layer: values("per_layer")?,
            details: values("details")?,
        })
    }

    /// The human-readable report printed before the result line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} seed {} ({}{}): {} — {} jobs attempted, {} failed\n",
            self.workload,
            self.seed,
            self.scale,
            if self.traced { ", traced" } else { "" },
            if self.correct { "correct" } else { "INCORRECT" },
            self.attempted,
            self.failed
        );
        for p in &self.problems {
            let _ = writeln!(out, "  problem: {p}");
        }
        let mut section = |title: &str, values: &[Value]| {
            if values.is_empty() {
                return;
            }
            let _ = writeln!(out, "  {title}:");
            for v in values {
                let _ = write!(out, "    {:<44} {:>14.6} {:<6}", v.name, v.value, v.unit);
                if v.n > 1 {
                    let _ = write!(out, " [q1 {:.6}, q3 {:.6}, n {}]", v.q1, v.q3, v.n);
                }
                if !v.note.is_empty() {
                    let _ = write!(out, " ({})", v.note);
                }
                out.push('\n');
            }
        };
        section("end-to-end", &self.end_to_end);
        section("per-layer", &self.per_layer);
        section("details", &self.details);
        out
    }
}

/// The outcome of comparing one metric across two sets of runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows, and no gain shown.
    WithinBound,
    /// Worse than the bound allows.
    Regressed,
    /// Better beyond the baseline's own spread, on at least nine tenths
    /// of the run pairs (or on every run).
    Improved,
    /// The runs spread wider than the bound: no verdict either way.
    Unresolved,
}

impl Verdict {
    /// The verdict as printed.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges set `b` (the change) against set `a` (the baseline), each one
/// value per run, by the choosing-metrics rules: a change worse than
/// `bound` (a share of `a`'s median) regressed; when either set's
/// interquartile range is wider than the bound the metric is unresolved,
/// unless every run of `b` beats every run of `a`; a gain needs the
/// medians to differ by more than `a`'s spread and `b` to win at least
/// nine tenths of the run pairs.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return Verdict::Unresolved;
    };
    let base = sa.median.abs().max(1e-12);
    let is_better = |x: f64, y: f64| match better {
        Better::Higher => x > y,
        Better::Lower => x < y,
    };
    let worse = match better {
        Better::Higher => (sa.median - sb.median) / base,
        Better::Lower => (sb.median - sa.median) / base,
    };
    let own_spread = sa.iqr() / base;
    let spread = sa.iqr().max(sb.iqr()) / base;
    let every_b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| is_better(y, x)));
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| is_better(y, x)).count();
    let gain_beyond_spread = -worse > own_spread;
    if every_b_beats_every_a && gain_beyond_spread {
        Verdict::Improved
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if gain_beyond_spread && pairs > 0 && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Compares two sets of run reports, workload by workload: every
/// end-to-end metric gets both medians and quartiles and a [`Verdict`];
/// per-layer metrics of traced runs get both medians and the change.
/// Returns the table and whether anything regressed.
pub fn compare(a: &[Report], b: &[Report]) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    for w in workloads {
        for (traced, specs) in [(false, end_to_end_metrics()), (true, per_layer_metrics())] {
            let runs = |set: &[Report]| -> Vec<Report> {
                set.iter()
                    .filter(|r| r.workload == w && r.traced == traced)
                    .cloned()
                    .collect()
            };
            let (ra, rb) = (runs(a), runs(b));
            if ra.is_empty() || rb.is_empty() {
                continue;
            }
            let _ = writeln!(
                out,
                "{w} ({} metrics): {} runs vs {} runs",
                if traced { "per-layer" } else { "end-to-end" },
                ra.len(),
                rb.len()
            );
            for spec in &specs {
                let values = |set: &[Report]| -> Vec<f64> {
                    set.iter()
                        .filter_map(|r| r.headline().iter().find(|v| v.name == spec.name))
                        .map(|v| v.value)
                        .collect()
                };
                let (va, vb) = (values(&ra), values(&rb));
                let (Some(sa), Some(sb)) = (Summary::of(&va), Summary::of(&vb)) else {
                    continue;
                };
                let change = (sb.median / sa.median - 1.0) * 100.0;
                let _ = write!(
                    out,
                    "  {:<44} {:>12.4} [{:.4}..{:.4}] -> {:>12.4} [{:.4}..{:.4}] {:>+7.2}% {}",
                    spec.name, sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, change, spec.unit
                );
                if let Some(bound) = spec.bound {
                    let v = verdict(&va, &vb, spec.better, bound);
                    regressed |= v == Verdict::Regressed;
                    let _ = write!(out, "  bound {:.0}%: {}", bound * 100.0, v.name());
                }
                out.push('\n');
            }
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(cpu_ms: u64, accesses: u64, jobs: &[f64]) -> Rep {
        Rep {
            cpu: Duration::from_millis(cpu_ms),
            accesses,
            records: accesses * 2,
            jobs: jobs.len() as u64,
            job_ms: jobs.to_vec(),
            digest: 7,
        }
    }

    #[test]
    fn end_to_end_rates_are_slow_deciles_over_reps() {
        // Ten reps of 10M accesses: eight taking 1 CPU-second, one slow
        // (2 s), one fast (0.5 s).
        let mut reps = vec![rep(1000, 10_000_000, &[400.0, 600.0, 500.0]); 8];
        reps.push(rep(2000, 10_000_000, &[2000.0, 600.0, 500.0]));
        reps.push(rep(500, 10_000_000, &[100.0, 200.0, 150.0]));
        let setups = [0.5, 0.25, 0.75, 0.5, 0.5, 0.25, 0.75, 0.25, 0.75, 0.6];
        let v = end_to_end(&reps, &setups, 12.5);
        let names: Vec<&str> = v.iter().map(|v| v.name.as_str()).collect();
        let specs: Vec<String> = end_to_end_metrics().into_iter().map(|s| s.name).collect();
        assert_eq!(names, specs, "every end-to-end metric, in table order");
        // One rep in ten may do worse: the slow rep (5 MA/cpu-s) is
        // the one, the fast rep (20 MA/cpu-s) does not lift the value.
        assert_eq!(v[0].value, 10.0, "p10 of the rep rates");
        assert_eq!((v[0].q1, v[0].q3, v[0].n), (10.0, 10.0, 10));
        assert!(v[0].note.starts_with("p10 of 10"), "{}", v[0].note);
        assert_eq!(v[1].value, 20.0);
        assert_eq!(v[2].value, 3.0, "three jobs a CPU-second");
        assert_eq!(v[3].value, 0.5, "median of the set-ups");
        assert_eq!((v[3].q1, v[3].q3, v[3].n), (0.25, 0.75, 10));
        assert_eq!(v[4].value, 12.5);
        // Wall-clock latencies pooled over the reps: 30 jobs leave ten
        // beyond the p66.
        let [p50, tail] = job_latencies(&reps);
        assert_eq!((p50.value, p50.n), (500.0, 30));
        assert_eq!((tail.value, tail.n), (500.0, 30));
        assert_eq!(tail.note, "p66 of 30 jobs");
        assert_eq!(
            job_latencies(&reps[8..])[1].value,
            2000.0,
            "too few: the max"
        );
    }

    #[test]
    fn report_file_round_trips_and_result_line_has_the_contract_keys() {
        let outcome = Outcome {
            setup_s: vec![0.1],
            reps: vec![rep(1000, 1_000_000, &[1.0; 30])],
            peak_rss_mb: 40.0,
            attempted: 30,
            ..Outcome::default()
        };
        let r = Report::new("replay-hit", 3, "smoke", false, outcome);
        assert!(r.correct);
        let back = Report::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        let line = Json::parse(&r.result_line()).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = line.get("metrics").unwrap();
        assert_eq!(m.as_object().unwrap().len(), end_to_end_metrics().len());
        let setup = m.get("setup_s").unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.as_object().unwrap().len(), 2, "value and unit only");
    }

    #[test]
    fn a_problem_makes_the_report_incorrect() {
        let outcome = Outcome {
            reps: vec![rep(10, 10, &[1.0])],
            attempted: 1,
            problems: vec!["digest mismatch".into()],
            ..Outcome::default()
        };
        assert!(!Report::new("w", 1, "smoke", false, outcome).correct);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let same = [100.2, 99.8, 100.1, 100.4, 99.9];
        assert_eq!(
            verdict(&base, &same, Better::Higher, 0.1),
            Verdict::WithinBound
        );
        let slow = [80.0, 81.0, 79.0, 80.5, 79.5];
        assert_eq!(
            verdict(&base, &slow, Better::Higher, 0.1),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &slow, Better::Lower, 0.1),
            Verdict::Improved,
            "lower is better: every run beats every baseline run"
        );
        let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&base, &noisy, Better::Higher, 0.1),
            Verdict::Unresolved
        );
        // Within bound but beyond the baseline's spread on every pair.
        let faster = [104.0, 105.0, 103.5, 104.5, 104.2];
        assert_eq!(
            verdict(&base, &faster, Better::Higher, 0.1),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&[], &base, Better::Higher, 0.1),
            Verdict::Unresolved
        );
    }
}
