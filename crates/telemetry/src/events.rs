//! Typed simulator events, the zero-cost [`Observer`] trait, and the
//! bounded [`EventRing`] buffer with JSONL rendering.
//!
//! The events describe the B-Cache's own mechanism: its programmable
//! decoder, BAS victim choice and miss classification. The B-Cache
//! (`bcache_core::BalancedCache`) is the one model that takes an
//! observer, as a generic parameter defaulting to [`NullObserver`].
//! Its emission sites are guarded by `if O::ENABLED`, an associated
//! `const`, so with the default observer the branch — and the event
//! construction behind it — is compiled out of the batched replay
//! kernel entirely.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;

use crate::recorder::escape;

/// The kind of a cache miss, as the B-Cache decoder classifies it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MissKind {
    /// PD hit but tag mismatch: the matching line is the forced victim.
    PdForced,
    /// PD miss: the access is a predetermined miss before tag compare.
    Predetermined,
}

impl MissKind {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            MissKind::PdForced => "pd_forced",
            MissKind::Predetermined => "predetermined",
        }
    }
}

/// A typed simulator event emitted through an [`Observer`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A programmable-decoder entry was (re)programmed.
    PdReprogram {
        /// Decoder subarray (group) whose entry changed.
        subarray: u64,
        /// Previous programmed index, if the entry was valid.
        pi_old: Option<u64>,
        /// Newly programmed index.
        pi_new: u64,
    },
    /// A BAS victim was selected on a predetermined miss.
    BasVictim {
        /// Number of candidate ways considered (the BAS degree).
        candidates: u32,
        /// The way chosen as victim.
        chosen: u32,
    },
    /// A miss occurred.
    Miss {
        /// How the miss was classified.
        kind: MissKind,
    },
    /// A dirty block was evicted and written back to the next level.
    Writeback {
        /// Physical set index the dirty victim occupied.
        set: u64,
    },
    /// A physical set was touched by an access.
    SetTouch {
        /// Physical set index.
        set: u64,
        /// Whether the access hit.
        hit: bool,
    },
}

impl Event {
    /// Renders the event as a single JSON object (no trailing newline),
    /// with `seq` as the leading field.
    pub fn to_json(&self, seq: u64) -> String {
        let mut out = format!("{{\"seq\": {seq}, \"event\": ");
        match self {
            Event::PdReprogram {
                subarray,
                pi_old,
                pi_new,
            } => {
                let _ = write!(
                    out,
                    "\"pd_reprogram\", \"subarray\": {subarray}, \"pi_old\": "
                );
                match pi_old {
                    Some(v) => {
                        let _ = write!(out, "{v}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ", \"pi_new\": {pi_new}");
            }
            Event::BasVictim { candidates, chosen } => {
                let _ = write!(
                    out,
                    "\"bas_victim\", \"candidates\": {candidates}, \"chosen\": {chosen}"
                );
            }
            Event::Miss { kind } => {
                let _ = write!(out, "\"miss\", \"kind\": \"{}\"", escape(kind.name()));
            }
            Event::Writeback { set } => {
                let _ = write!(out, "\"writeback\", \"set\": {set}");
            }
            Event::SetTouch { set, hit } => {
                let _ = write!(out, "\"set_touch\", \"set\": {set}, \"hit\": {hit}");
            }
        }
        out.push('}');
        out
    }
}

/// A sink for simulator [`Event`]s.
///
/// `ENABLED` is an associated constant so emission sites can be written
/// `if O::ENABLED { o.event(...) }` and fold to nothing when the
/// observer is [`NullObserver`] — the hot replay kernels monomorphize
/// with the branch removed.
pub trait Observer: fmt::Debug {
    /// Whether this observer wants events at all. Emission sites must
    /// guard on this so disabled observers are zero-cost.
    const ENABLED: bool = true;

    /// Receives one event. Only called when [`Observer::ENABLED`].
    fn event(&mut self, event: Event);
}

/// The default no-op observer: `ENABLED == false`, so every emission
/// site guarded by `if O::ENABLED` compiles away.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    const ENABLED: bool = false;

    #[inline(always)]
    fn event(&mut self, _event: Event) {}
}

impl<O: Observer> Observer for &mut O {
    const ENABLED: bool = O::ENABLED;

    #[inline(always)]
    fn event(&mut self, event: Event) {
        (**self).event(event);
    }
}

/// A bounded ring buffer of events with drop accounting.
///
/// When full, pushing overwrites the oldest event; [`EventRing::dropped`]
/// reports how many were lost. Each event carries a monotonically
/// increasing sequence number assigned at push time, so JSONL output
/// makes overflow visible as gaps in `seq`.
#[derive(Clone, Debug)]
pub struct EventRing {
    capacity: usize,
    events: VecDeque<(u64, Event)>,
    pushed: u64,
}

impl EventRing {
    /// A ring holding at most `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventRing {
            capacity,
            events: VecDeque::with_capacity(capacity),
            pushed: 0,
        }
    }

    /// Maximum number of retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no event has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of events ever pushed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Number of events lost to overflow.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.events.len() as u64
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back((self.pushed, event));
        self.pushed += 1;
    }

    /// The retained events with their sequence numbers, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Event)> {
        self.events.iter().map(|(seq, e)| (*seq, e))
    }

    /// Renders the retained events as JSON Lines, one object per line,
    /// preceded by a header line recording capacity/pushed/dropped.
    pub fn to_jsonl(&self) -> String {
        let mut out = format!(
            "{{\"ring\": {{\"capacity\": {}, \"pushed\": {}, \"dropped\": {}}}}}\n",
            self.capacity,
            self.pushed,
            self.dropped()
        );
        for (seq, e) in self.iter() {
            out.push_str(&e.to_json(seq));
            out.push('\n');
        }
        out
    }
}

impl Observer for EventRing {
    #[inline]
    fn event(&mut self, event: Event) {
        self.push(event);
    }
}

/// An observer that only counts events by type — cheap enough for full
/// runs where retaining every event would overflow any ring.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Number of `PdReprogram` events seen.
    pub pd_reprograms: u64,
    /// Number of `BasVictim` events seen.
    pub bas_victims: u64,
    /// Misses classified as PD-forced.
    pub pd_forced_misses: u64,
    /// Misses classified as predetermined.
    pub predetermined_misses: u64,
    /// Number of `Writeback` events seen.
    pub writebacks: u64,
    /// Number of `SetTouch` events that hit.
    pub set_hits: u64,
    /// Number of `SetTouch` events that missed.
    pub set_misses: u64,
}

impl EventCounts {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total misses of all kinds.
    pub fn total_misses(&self) -> u64 {
        self.pd_forced_misses + self.predetermined_misses
    }
}

impl Observer for EventCounts {
    #[inline]
    fn event(&mut self, event: Event) {
        match event {
            Event::PdReprogram { .. } => self.pd_reprograms += 1,
            Event::BasVictim { .. } => self.bas_victims += 1,
            Event::Miss { kind } => match kind {
                MissKind::PdForced => self.pd_forced_misses += 1,
                MissKind::Predetermined => self.predetermined_misses += 1,
            },
            Event::Writeback { .. } => self.writebacks += 1,
            Event::SetTouch { hit, .. } => {
                if hit {
                    self.set_hits += 1;
                } else {
                    self.set_misses += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_disabled() {
        const { assert!(!NullObserver::ENABLED) };
        const { assert!(EventRing::ENABLED) };
        const { assert!(<&mut EventRing as Observer>::ENABLED) };
        const { assert!(!<&mut NullObserver as Observer>::ENABLED) };
    }

    #[test]
    fn ring_overflow_and_drop_accounting() {
        let mut ring = EventRing::new(3);
        assert_eq!(ring.capacity(), 3);
        assert!(ring.is_empty());
        for set in 0..5u64 {
            ring.push(Event::SetTouch { set, hit: false });
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.dropped(), 2);
        // Oldest two were evicted; retained seqs are 2, 3, 4.
        let seqs: Vec<u64> = ring.iter().map(|(s, _)| s).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let sets: Vec<u64> = ring
            .iter()
            .map(|(_, e)| match e {
                Event::SetTouch { set, .. } => *set,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(sets, vec![2, 3, 4]);
    }

    #[test]
    fn ring_capacity_floor_is_one() {
        let mut ring = EventRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(Event::Miss {
            kind: MissKind::PdForced,
        });
        ring.push(Event::Miss {
            kind: MissKind::Predetermined,
        });
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn jsonl_rendering() {
        let mut ring = EventRing::new(8);
        ring.push(Event::PdReprogram {
            subarray: 3,
            pi_old: None,
            pi_new: 9,
        });
        ring.push(Event::PdReprogram {
            subarray: 3,
            pi_old: Some(9),
            pi_new: 5,
        });
        ring.push(Event::BasVictim {
            candidates: 8,
            chosen: 2,
        });
        ring.push(Event::Miss {
            kind: MissKind::PdForced,
        });
        ring.push(Event::SetTouch { set: 17, hit: true });
        let jsonl = ring.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("\"capacity\": 8"));
        assert!(lines[0].contains("\"dropped\": 0"));
        assert!(lines[1].contains("\"pi_old\": null"));
        assert!(lines[2].contains("\"pi_old\": 9"));
        assert!(lines[3].contains("\"candidates\": 8"));
        assert!(lines[4].contains("\"kind\": \"pd_forced\""));
        assert!(lines[5].contains("\"set\": 17"));
        assert!(lines[5].contains("\"hit\": true"));
        // Every line is a braced object.
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn writeback_event_renders_and_tallies() {
        let e = Event::Writeback { set: 23 };
        let json = e.to_json(4);
        assert!(json.contains("\"event\": \"writeback\""), "{json}");
        assert!(json.contains("\"set\": 23"), "{json}");
        let mut c = EventCounts::new();
        c.event(e);
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn event_counts_tally_by_type() {
        let mut c = EventCounts::new();
        c.event(Event::Miss {
            kind: MissKind::Predetermined,
        });
        c.event(Event::Miss {
            kind: MissKind::PdForced,
        });
        c.event(Event::PdReprogram {
            subarray: 0,
            pi_old: None,
            pi_new: 1,
        });
        c.event(Event::BasVictim {
            candidates: 4,
            chosen: 1,
        });
        c.event(Event::SetTouch { set: 0, hit: true });
        c.event(Event::SetTouch { set: 1, hit: false });
        assert_eq!(c.total_misses(), 2);
        assert_eq!(c.pd_reprograms, 1);
        assert_eq!(c.bas_victims, 1);
        assert_eq!(c.set_hits, 1);
        assert_eq!(c.set_misses, 1);
    }
}
