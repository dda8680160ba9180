//! The unified IRM expected-miss-rate model.
//!
//! Under the independent reference model every cache in this workspace
//! reduces to the same three-level structure:
//!
//! * **groups** — address partitions that never share storage: the set of
//!   a conventional cache, the NPI group of a B-Cache. An access falls in
//!   group `g` with probability `w_g`.
//! * **classes** — within a group, the addresses that compete for *one*
//!   resident block: a single block in a conventional cache, a PI
//!   equivalence class in a B-Cache (the programmable decoder keeps one
//!   set per programmed PI value, and a PD-hit/tag-miss forces the
//!   victim inside the matching class).
//! * **capacity** — how many classes a group keeps resident at once: the
//!   associativity of a conventional cache, `BAS` for a B-Cache. The
//!   resident classes are managed by LRU — in the B-Cache every
//!   reference promotes its PI class (its way's stamp is touched on hits
//!   and on both miss paths), so group dynamics are exactly LRU over
//!   classes.
//!
//! The steady-state hit rate is then exact, not approximate. Two
//! independent factors multiply:
//!
//! 1. *Is the class resident?* The LRU stack over classes under IRM has
//!    the stationary distribution derived by King (1971): the
//!    probability that the top `A` stack positions hold exactly the
//!    class set `T` is computed by the recursion
//!    `f(∅) = 1`, `f(T) = Σ_{i∈T} f(T∖{i}) · w_i / (1 − W(T∖{i}))`
//!    where `W(S)` is the total weight of `S`.
//! 2. *Does the access hit the class's resident block?* The resident
//!    block of a class is the block of its most recent reference — an
//!    i.i.d. within-class draw independent of the class sequence — so
//!    `P(hit | class j resident) = W_j · h_j` with
//!    `h_j = Σ_{b∈j} (q_b / W_j)²`.
//!
//! Hence `P(hit) = Σ_g w_g Σ_{|T|=A} f(T) Σ_{j∈T} W_j h_j`, with the
//! trivial fast path `Σ_j W_j h_j` when every class fits (`m ≤ A`).
//! Direct-mapped caches are the capacity-1 special case, which collapses
//! to the familiar `Σ_b q_b²` sum of squares. A second fast path covers
//! *symmetric* groups: when all `m` class weights are equal, `f` is
//! exchangeable, every class is resident with probability `A/m`, and the
//! group hit rate is `(A/m) · Σ_j W_j h_j` — no subset recursion needed.
//! This keeps uniform working sets (thousands of equally hot blocks per
//! group) exact and cheap where the general recursion would blow the
//! work cap.
//!
//! The subset recursion is exponential in the class count; builders
//! return [`AnalyticError::Intractable`] instead of hanging when a group
//! would exceed the work cap.

use std::collections::BTreeMap;
use std::fmt;

use bcache_core::{BCacheParams, PdHitPolicy};
use cache_sim::{Addr, CacheGeometry, PolicyKind};

use crate::dist::BlockDist;

/// Errors produced while building or evaluating an analytic model.
#[derive(Clone, Debug, PartialEq)]
pub enum AnalyticError {
    /// The distribution has no entry with positive probability.
    EmptyDistribution,
    /// A probability was negative, NaN or infinite.
    BadProbability {
        /// Position of the offending entry in construction order.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// The closed form only covers LRU replacement.
    UnsupportedPolicy {
        /// The policy that was requested.
        policy: PolicyKind,
    },
    /// A configuration knob outside the closed form (ablations).
    UnsupportedConfig {
        /// Which knob.
        what: &'static str,
    },
    /// The subset recursion for a group would exceed the work cap.
    Intractable {
        /// Distinct classes in the offending group.
        classes: usize,
        /// Resident capacity of the group.
        capacity: usize,
        /// Estimated elementary operations.
        ops: u128,
    },
}

impl fmt::Display for AnalyticError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyticError::EmptyDistribution => {
                write!(f, "distribution has no positive-probability entry")
            }
            AnalyticError::BadProbability { index, value } => {
                write!(f, "entry {index} has invalid probability {value}")
            }
            AnalyticError::UnsupportedPolicy { policy } => {
                write!(f, "analytic model requires LRU replacement, got {policy}")
            }
            AnalyticError::UnsupportedConfig { what } => {
                write!(f, "analytic model does not cover {what}")
            }
            AnalyticError::Intractable {
                classes,
                capacity,
                ops,
            } => write!(
                f,
                "group with {classes} classes at capacity {capacity} needs ~{ops} ops (over the cap)"
            ),
        }
    }
}

impl std::error::Error for AnalyticError {}

/// One resident-block competition class within a group.
#[derive(Clone, Debug)]
struct ClassSpec {
    /// `W_j`: probability of the class, conditional on its group.
    weight: f64,
    /// `h_j = Σ_b (q_b/W_j)²`: hit probability given the class is
    /// resident.
    self_hit: f64,
}

/// One storage-independent group of classes.
#[derive(Clone, Debug)]
struct GroupSpec {
    /// `w_g`: absolute probability of the group.
    weight: f64,
    /// Classes kept resident at once (LRU over classes).
    capacity: usize,
    classes: Vec<ClassSpec>,
}

/// A cache reduced to its IRM structure: groups of classes with a
/// resident capacity each (see the module docs).
#[derive(Clone, Debug)]
pub struct IrmModel {
    groups: Vec<GroupSpec>,
}

/// Work cap for the King-formula subset recursion, in elementary
/// operations summed over all groups of one evaluation.
const MAX_DP_OPS: u128 = 50_000_000;

impl IrmModel {
    /// The exact steady-state expected hit rate under IRM.
    ///
    /// # Errors
    ///
    /// [`AnalyticError::Intractable`] when a group's subset recursion
    /// would exceed the work cap.
    pub fn expected_hit_rate(&self) -> Result<f64, AnalyticError> {
        let mut budget = MAX_DP_OPS;
        let mut hit = 0.0;
        for g in &self.groups {
            hit += g.weight * group_hit(g, &mut budget)?;
        }
        // The exact value is a probability; summation rounding can push
        // the float a few ulps outside [0, 1].
        Ok(hit.clamp(0.0, 1.0))
    }

    /// The exact steady-state expected miss rate (`1 − hit`).
    ///
    /// # Errors
    ///
    /// See [`IrmModel::expected_hit_rate`].
    pub fn expected_miss_rate(&self) -> Result<f64, AnalyticError> {
        Ok(1.0 - self.expected_hit_rate()?)
    }

    /// Total number of resident blocks the distribution can occupy:
    /// `Σ_g min(capacity, classes)`. The convergence tolerance uses this
    /// as its mixing-scale term.
    pub fn resident_states(&self) -> u64 {
        self.groups
            .iter()
            .map(|g| g.capacity.min(g.classes.len()) as u64)
            .sum()
    }

    /// Number of groups the distribution touches.
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Total number of competition classes across all groups.
    pub fn classes(&self) -> usize {
        self.groups.iter().map(|g| g.classes.len()).sum()
    }
}

/// `P(hit | access in this group)` via King's stationary LRU stack
/// distribution. `budget` is decremented by the work performed.
fn group_hit(g: &GroupSpec, budget: &mut u128) -> Result<f64, AnalyticError> {
    let m = g.classes.len();
    let wh: Vec<f64> = g.classes.iter().map(|c| c.weight * c.self_hit).collect();
    if g.capacity >= m {
        // Every class stays resident: no stack analysis needed.
        return Ok(wh.iter().sum());
    }
    let a = g.capacity;
    // Symmetric groups: equal class weights make King's distribution
    // exchangeable, so each class is resident with probability a/m.
    let w_max = g.classes.iter().map(|c| c.weight).fold(0.0, f64::max);
    let w_min = g.classes.iter().map(|c| c.weight).fold(f64::MAX, f64::min);
    if w_max - w_min <= 1e-12 * w_max {
        return Ok(a as f64 / m as f64 * wh.iter().sum::<f64>());
    }
    let intractable = |ops| AnalyticError::Intractable {
        classes: m,
        capacity: a,
        ops,
    };
    if m > 64 {
        return Err(intractable(u128::MAX));
    }
    // Work estimate: every subset of size < a expands into up to m
    // successors.
    let mut subsets: u128 = 0;
    let mut choose: u128 = 1;
    for k in 0..a {
        subsets += choose;
        choose = choose * (m - k) as u128 / (k as u128 + 1);
    }
    let ops = subsets.saturating_mul(m as u128);
    if ops > *budget {
        return Err(intractable(ops));
    }
    *budget -= ops;

    let w: Vec<f64> = g.classes.iter().map(|c| c.weight).collect();
    // Layered DP over class subsets: layer k holds f(T) and W(T) for all
    // |T| = k. BTreeMap keeps iteration (and FP summation) order
    // deterministic.
    let mut layer: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    layer.insert(0, (1.0, 0.0));
    for _ in 0..a {
        let mut next: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        for (&mask, &(f, wsum)) in &layer {
            let denom = (1.0 - wsum).max(f64::MIN_POSITIVE);
            for (i, &wi) in w.iter().enumerate() {
                let bit = 1u64 << i;
                if mask & bit != 0 {
                    continue;
                }
                let entry = next.entry(mask | bit).or_insert((0.0, wsum + wi));
                entry.0 += f * wi / denom;
            }
        }
        layer = next;
    }
    let mut hit = 0.0;
    for (&mask, &(f, _)) in &layer {
        let mut resident_hit = 0.0;
        let mut bits = mask;
        while bits != 0 {
            resident_hit += wh[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        hit += f * resident_hit;
    }
    Ok(hit)
}

/// Builds the analytic model of a conventional cache (direct-mapped when
/// `geom.assoc() == 1`, set-associative otherwise) with LRU replacement.
///
/// Groups are sets, every block is its own class (`h_j = 1`), capacity
/// is the associativity.
pub fn conventional_model(geom: &CacheGeometry, dist: &BlockDist) -> IrmModel {
    let mut groups: BTreeMap<usize, BTreeMap<u64, f64>> = BTreeMap::new();
    for &(addr, p) in dist.entries() {
        let a = Addr::new(addr);
        *groups
            .entry(geom.set_index(a))
            .or_default()
            .entry(geom.block_base(a).raw())
            .or_insert(0.0) += p;
    }
    IrmModel {
        groups: groups
            .into_values()
            .map(|blocks| {
                let weight: f64 = blocks.values().sum();
                GroupSpec {
                    weight,
                    capacity: geom.assoc(),
                    classes: blocks
                        .into_values()
                        .map(|q| ClassSpec {
                            weight: q / weight,
                            self_hit: 1.0,
                        })
                        .collect(),
                }
            })
            .collect(),
    }
}

/// Builds the analytic model of a B-Cache.
///
/// Groups are NPI groups, classes are PI values (each owning one set
/// while programmed), capacity is `BAS`. Exact for the paper's design:
/// LRU replacement with the forced-victim PD-hit policy.
///
/// # Errors
///
/// [`AnalyticError::UnsupportedPolicy`] for non-LRU replacement and
/// [`AnalyticError::UnsupportedConfig`] for the `EvictBoth` ablation,
/// both of which fall outside the closed form.
pub fn bcache_model(params: &BCacheParams, dist: &BlockDist) -> Result<IrmModel, AnalyticError> {
    if params.policy() != PolicyKind::Lru {
        return Err(AnalyticError::UnsupportedPolicy {
            policy: params.policy(),
        });
    }
    if params.pd_hit_policy() != PdHitPolicy::ForcedVictim {
        return Err(AnalyticError::UnsupportedConfig {
            what: "PdHitPolicy::EvictBoth",
        });
    }
    let layout = params.layout();
    let geom = params.geometry();
    let mut groups: BTreeMap<usize, BTreeMap<u64, BTreeMap<u64, f64>>> = BTreeMap::new();
    for &(addr, p) in dist.entries() {
        let a = Addr::new(addr);
        *groups
            .entry(layout.npi(a))
            .or_default()
            .entry(layout.pi(a))
            .or_default()
            .entry(geom.block_base(a).raw())
            .or_insert(0.0) += p;
    }
    Ok(IrmModel {
        groups: groups
            .into_values()
            .map(|classes| {
                let weight: f64 = classes.values().flat_map(|b| b.values()).sum();
                GroupSpec {
                    weight,
                    capacity: params.bas(),
                    classes: classes
                        .into_values()
                        .map(|blocks| {
                            let class_weight: f64 = blocks.values().sum();
                            let self_hit: f64 = blocks
                                .values()
                                .map(|q| (q / class_weight) * (q / class_weight))
                                .sum();
                            ClassSpec {
                                weight: class_weight / weight,
                                self_hit,
                            }
                        })
                        .collect(),
                }
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> CacheGeometry {
        CacheGeometry::new(16 * 1024, 32, 1).unwrap()
    }

    /// Blocks spaced far enough apart to share every index/PI field of
    /// the 16 kB geometries (2^19 ≥ all index+PI spans).
    fn aligned(k: u64) -> Vec<u64> {
        (0..k).map(|i| 0x1000_0000 + i * (1 << 19)).collect()
    }

    #[test]
    fn direct_mapped_is_sum_of_squares() {
        // Three blocks in one set with weights 1/2, 1/3, 1/6.
        let dist = BlockDist::new(
            aligned(3)
                .into_iter()
                .zip([3.0, 2.0, 1.0])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let model = conventional_model(&baseline(), &dist);
        let expect: f64 = [0.5f64, 1.0 / 3.0, 1.0 / 6.0].iter().map(|p| p * p).sum();
        assert!((model.expected_hit_rate().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn uniform_group_hits_capacity_over_blocks() {
        // m uniform blocks in one set of an A-way cache: hit = min(A,m)/m.
        for (assoc, m) in [(2usize, 8u64), (4, 8), (4, 3), (8, 8), (8, 20)] {
            let geom = baseline().with_assoc(assoc).unwrap();
            let dist = BlockDist::uniform(aligned(m)).unwrap();
            let model = conventional_model(&geom, &dist);
            let expect = (assoc as f64).min(m as f64) / m as f64;
            let got = model.expected_hit_rate().unwrap();
            assert!(
                (got - expect).abs() < 1e-9,
                "assoc {assoc} m {m}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn king_recursion_matches_hand_computation() {
        // Three classes (.5, .3, .2) at capacity 2, h = 1:
        //   f({1,2}) = .3 + .3·.5/.7, f({1,3}) = .2 + .2·.5/.8,
        //   f({2,3}) = .06/.7 + .06/.8; hit = Σ f(T)·W(T).
        let f12: f64 = 0.3 + 0.3 * 0.5 / 0.7;
        let f13 = 0.2 + 0.2 * 0.5 / 0.8;
        let f23 = 0.06 / 0.7 + 0.06 / 0.8;
        let expect = f12 * 0.8 + f13 * 0.7 + f23 * 0.5;
        assert!((f12 + f13 + f23 - 1.0).abs() < 1e-12, "f must be a pmf");

        let geom = baseline().with_assoc(2).unwrap();
        let dist = BlockDist::new(
            aligned(3)
                .into_iter()
                .zip([5.0, 3.0, 2.0])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let model = conventional_model(&geom, &dist);
        assert!((model.expected_hit_rate().unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn everything_resident_hits_always() {
        let geom = baseline().with_assoc(8).unwrap();
        let dist = BlockDist::uniform(aligned(5)).unwrap();
        let model = conventional_model(&geom, &dist);
        assert!((model.expected_hit_rate().unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(model.resident_states(), 5);
    }

    #[test]
    fn bcache_single_pi_class_behaves_direct_mapped() {
        // The aligned birthday adversary: K blocks sharing NPI and PI.
        // The PD keeps one set for the whole class, so hit = 1/K even
        // though BAS = 8.
        let params = BCacheParams::paper_default(baseline()).unwrap();
        for k in [2u64, 8, 32] {
            let dist = BlockDist::uniform(aligned(k)).unwrap();
            let model = bcache_model(&params, &dist).unwrap();
            assert_eq!(model.classes(), 1, "k={k}");
            let got = model.expected_hit_rate().unwrap();
            assert!((got - 1.0 / k as f64).abs() < 1e-12, "k={k}: {got}");
        }
    }

    #[test]
    fn bcache_mf1_bas1_equals_direct_mapped_model() {
        let params = BCacheParams::new(baseline(), 1, 1, PolicyKind::Lru).unwrap();
        // A mixed-weight distribution across several sets and tags.
        let addrs: Vec<(u64, f64)> = (0..40u64)
            .map(|i| (0x1000_0000 + i * 0x1843 * 32, (i % 7 + 1) as f64))
            .collect();
        let dist = BlockDist::new(addrs).unwrap();
        let bc = bcache_model(&params, &dist).unwrap();
        let dm = conventional_model(&baseline(), &dist);
        let a = bc.expected_hit_rate().unwrap();
        let b = dm.expected_hit_rate().unwrap();
        assert!((a - b).abs() < 1e-12, "bcache {a} vs dm {b}");
    }

    #[test]
    fn bcache_distinct_pis_within_bas_all_hit() {
        // ≤ BAS singleton classes per group: the PD absorbs them all.
        let params = BCacheParams::paper_default(baseline()).unwrap();
        // Distinct PI values: step by 2^11 (the PI field starts at bit 11
        // for the 16 kB MF=8/BAS=8 design), staying within one NPI group.
        let addrs: Vec<u64> = (0..8u64).map(|i| 0x1000_0000 + (i << 11)).collect();
        let dist = BlockDist::uniform(addrs).unwrap();
        let model = bcache_model(&params, &dist).unwrap();
        assert!((model.expected_hit_rate().unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_lru_and_ablations() {
        let dist = BlockDist::uniform(aligned(4)).unwrap();
        let random = BCacheParams::new(baseline(), 8, 8, PolicyKind::Random).unwrap();
        assert!(matches!(
            bcache_model(&random, &dist),
            Err(AnalyticError::UnsupportedPolicy { .. })
        ));
        let ablated = BCacheParams::paper_default(baseline())
            .unwrap()
            .with_pd_hit_policy(PdHitPolicy::EvictBoth);
        assert!(matches!(
            bcache_model(&ablated, &dist),
            Err(AnalyticError::UnsupportedConfig { .. })
        ));
    }

    #[test]
    fn intractable_groups_error_instead_of_hanging() {
        // 60 *unequally weighted* classes at capacity 8 in one set:
        // C(60,8)·60 ops ≫ cap (equal weights would take the symmetric
        // fast path instead).
        let geom = baseline().with_assoc(8).unwrap();
        let dist = BlockDist::new(
            aligned(60)
                .into_iter()
                .enumerate()
                .map(|(i, a)| (a, (i + 1) as f64))
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let model = conventional_model(&geom, &dist);
        assert!(matches!(
            model.expected_miss_rate(),
            Err(AnalyticError::Intractable {
                classes: 60,
                capacity: 8,
                ..
            })
        ));
    }

    #[test]
    fn symmetric_fast_path_agrees_with_the_recursion() {
        // Equal weights take the a/m fast path; nudging one weight by
        // 1e-9 forces the subset DP. The two must agree to ~1e-6.
        let geom = baseline().with_assoc(4).unwrap();
        let addrs = aligned(8);
        let equal = BlockDist::uniform(addrs.clone()).unwrap();
        let symmetric = conventional_model(&geom, &equal)
            .expected_hit_rate()
            .unwrap();
        assert!((symmetric - 0.5).abs() < 1e-12, "a/m = 4/8");
        let mut weights = vec![1.0; 8];
        weights[3] += 1e-9;
        let nudged = BlockDist::new(addrs.into_iter().zip(weights).collect::<Vec<_>>()).unwrap();
        let via_dp = conventional_model(&geom, &nudged)
            .expected_hit_rate()
            .unwrap();
        assert!(
            (via_dp - symmetric).abs() < 1e-6,
            "dp {via_dp} vs symmetric {symmetric}"
        );
    }

    #[test]
    fn errors_display() {
        for e in [
            AnalyticError::EmptyDistribution,
            AnalyticError::BadProbability {
                index: 3,
                value: -0.5,
            },
            AnalyticError::UnsupportedPolicy {
                policy: PolicyKind::Random,
            },
            AnalyticError::UnsupportedConfig { what: "x" },
            AnalyticError::Intractable {
                classes: 40,
                capacity: 8,
                ops: 1 << 40,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
