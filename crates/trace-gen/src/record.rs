//! Trace records: the dynamic instruction stream consumed by the cache
//! models and the CPU timing model.

use std::fmt;

/// One dynamic instruction.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Byte address of the instruction.
    pub pc: u64,
    /// What the instruction does.
    pub op: Op,
}

/// Instruction classes distinguished by the timing model.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Single-cycle integer operation.
    Alu,
    /// Multi-cycle operation (multiply, FP arithmetic).
    Long,
    /// Data load from the given byte address.
    Load(u64),
    /// Data store to the given byte address.
    Store(u64),
    /// Control transfer; `mispredict` marks a branch the front end will
    /// mispredict (the trace generator samples these from the profile's
    /// misprediction rate).
    Branch {
        /// Whether the branch redirects fetch with a penalty.
        mispredict: bool,
    },
}

impl Op {
    /// The data address touched, if this is a memory operation.
    pub const fn data_addr(self) -> Option<u64> {
        match self {
            Op::Load(a) | Op::Store(a) => Some(a),
            _ => None,
        }
    }

    /// Whether this is a load or store.
    pub const fn is_mem(self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_))
    }
}

// Op tags, in the low three bits of a buffer's op byte.
const OP_ALU: u8 = 0;
const OP_LONG: u8 = 1;
const OP_LOAD: u8 = 2;
const OP_STORE: u8 = 3;
const OP_BRANCH: u8 = 4;
const OP_BRANCH_MISPREDICT: u8 = 5;
const TAG_MASK: u8 = 0b111;
/// Op-byte flag: the record's PC is the previous record's PC + 4, so
/// the PC column holds no entry for it.
const SEQ_PC: u8 = 0b1000;

/// Whether `tag` is [`OP_LOAD`] or [`OP_STORE`] (the tags that own an
/// address-column entry).
#[inline(always)]
const fn is_mem_tag(tag: u8) -> bool {
    tag >> 1 == OP_LOAD >> 1
}

impl Op {
    #[inline(always)]
    const fn encode(self) -> (u8, u64) {
        match self {
            Op::Alu => (OP_ALU, 0),
            Op::Long => (OP_LONG, 0),
            Op::Load(a) => (OP_LOAD, a),
            Op::Store(a) => (OP_STORE, a),
            Op::Branch { mispredict: false } => (OP_BRANCH, 0),
            Op::Branch { mispredict: true } => (OP_BRANCH_MISPREDICT, 0),
        }
    }

    /// Inverse of [`Op::encode`]. Total over `u8`, so decoding has no
    /// panic path; [`TraceBuffer::push`] writes no tag above
    /// [`OP_BRANCH_MISPREDICT`].
    #[inline(always)]
    const fn decode(tag: u8, payload: u64) -> Op {
        match tag {
            OP_ALU => Op::Alu,
            OP_LONG => Op::Long,
            OP_LOAD => Op::Load(payload),
            OP_STORE => Op::Store(payload),
            OP_BRANCH => Op::Branch { mispredict: false },
            OP_BRANCH_MISPREDICT..=u8::MAX => Op::Branch { mispredict: true },
        }
    }
}

/// Entries a PC or address column grows by when it runs out of room.
const BLOCK: usize = 1024;

/// A compact column-wise buffer of [`TraceRecord`]s.
///
/// The experiment engine materializes each generated trace once and
/// replays it many times, so the encoding stores only what the stream
/// carries:
///
/// - one op byte per record: the op tag, plus a flag set when the PC is
///   the previous record's PC + 4 (over 99% of SPEC-profile records);
/// - a PC column with an entry only for records without that flag;
/// - an address column with an entry only for loads and stores (34–40%
///   of records).
///
/// On the SPEC profiles that is about 4 bytes per record, against 24
/// for a `Vec<TraceRecord>`. Consumers read it through
/// [`TraceBuffer::iter`], which re-assembles value-type
/// [`TraceRecord`]s on the fly.
///
/// Neither the column writes of [`push`](Self::push) nor the
/// iterator's reads branch on the op kind, which is unpredictable:
/// every record writes (and reads back) one slot of each column and
/// advances that column's cursor only if the record owns an entry
/// there. The columns are therefore padded: their `Vec` length runs up
/// to one block of 1024 entries past the entries in use, and the
/// iterator relies on the invariant that every record's slot lies
/// within it.
#[derive(Clone, Default)]
pub struct TraceBuffer {
    ops: Vec<u8>,
    /// `pcs[..n_pcs]` are PCs; the rest is padding.
    pcs: Vec<u64>,
    n_pcs: usize,
    /// `addrs[..n_addrs]` are data addresses; the rest is padding.
    addrs: Vec<u64>,
    n_addrs: usize,
    /// PC of the last record pushed (0 before the first).
    last_pc: u64,
}

/// Writes `value` to the slot after the `*used` entries of a padded
/// column and keeps it only if `keep`: the caller's choice costs an add,
/// not a branch.
#[inline(always)]
fn append(column: &mut Vec<u64>, used: &mut usize, value: u64, keep: bool) {
    if *used == column.len() {
        column.resize(*used + BLOCK, 0);
    }
    column[*used] = value;
    *used += usize::from(keep);
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with room for `records` records.
    ///
    /// Only the op column is sized up front; the PC and address columns
    /// grow with the records that need them.
    pub fn with_capacity(records: usize) -> Self {
        TraceBuffer {
            ops: Vec::with_capacity(records),
            ..Self::default()
        }
    }

    /// Appends one record.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        let (tag, addr) = rec.op.encode();
        let seq = rec.pc == self.last_pc.wrapping_add(4);
        self.last_pc = rec.pc;
        self.ops.push(tag | (u8::from(seq) * SEQ_PC));
        append(&mut self.pcs, &mut self.n_pcs, rec.pc, !seq);
        append(&mut self.addrs, &mut self.n_addrs, addr, is_mem_tag(tag));
    }

    /// Releases spare capacity once the buffer is complete (the padding
    /// stays: the iterator reads it).
    pub(crate) fn shrink_to_fit(&mut self) {
        self.ops.shrink_to_fit();
        self.pcs.shrink_to_fit();
        self.addrs.shrink_to_fit();
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the buffer holds no records.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterates over the records by value.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            ops: self.ops.iter(),
            pcs: &self.pcs,
            addrs: &self.addrs,
            pc: 0,
        }
    }

    /// Heap bytes held by the three columns, padding included.
    #[cfg(test)]
    fn column_bytes(&self) -> usize {
        self.ops.capacity() + 8 * (self.pcs.capacity() + self.addrs.capacity())
    }
}

impl PartialEq for TraceBuffer {
    /// Record-wise equality (the padding is not compared).
    fn eq(&self, other: &Self) -> bool {
        self.ops == other.ops
            && self.pcs[..self.n_pcs] == other.pcs[..other.n_pcs]
            && self.addrs[..self.n_addrs] == other.addrs[..other.n_addrs]
    }
}

impl Eq for TraceBuffer {}

impl fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<TraceRecord> for TraceBuffer {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        let mut buf = TraceBuffer::new();
        buf.extend(iter);
        buf.shrink_to_fit();
        buf
    }
}

impl Extend<TraceRecord> for TraceBuffer {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.ops.reserve(iter.size_hint().0);
        for rec in iter {
            self.push(rec);
        }
    }
}

impl<'a> IntoIterator for &'a TraceBuffer {
    type Item = TraceRecord;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// By-value iterator over a [`TraceBuffer`].
///
/// The PC and address cursors advance exactly as
/// [`TraceBuffer::push`]'s column counts did, so each record's slot is
/// the first of each cursor.
#[derive(Clone, Debug)]
pub struct TraceIter<'a> {
    ops: std::slice::Iter<'a, u8>,
    pcs: &'a [u64],
    addrs: &'a [u64],
    /// PC of the last record yielded (0 before the first).
    pc: u64,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        let op = *self.ops.next()?;
        let seq = op & SEQ_PC != 0;
        let tag = op & TAG_MASK;
        debug_assert!(!self.pcs.is_empty() && !self.addrs.is_empty());
        // SAFETY: `push` wrote this record's value to the slot after the
        // entries of each column kept before it, and grew the column to
        // hold that slot first; the cursors have skipped exactly those
        // entries, and the padding is never truncated. So both cursors
        // are non-empty here.
        let (pc_entry, addr) =
            unsafe { (*self.pcs.get_unchecked(0), *self.addrs.get_unchecked(0)) };
        let pc = if seq {
            self.pc.wrapping_add(4)
        } else {
            pc_entry
        };
        self.pc = pc;
        // SAFETY: each cursor is non-empty (above), so skipping at most
        // one entry stays in bounds.
        unsafe {
            self.pcs = self.pcs.get_unchecked(usize::from(!seq)..);
            self.addrs = self.addrs.get_unchecked(usize::from(is_mem_tag(tag))..);
        }
        Some(TraceRecord {
            pc,
            op: Op::decode(tag, addr),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ops.size_hint()
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Alu => write!(f, "alu"),
            Op::Long => write!(f, "long"),
            Op::Load(a) => write!(f, "load {a:#x}"),
            Op::Store(a) => write!(f, "store {a:#x}"),
            Op::Branch { mispredict: true } => write!(f, "branch (mispredicted)"),
            Op::Branch { mispredict: false } => write!(f, "branch"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_addr_only_for_memory_ops() {
        assert_eq!(Op::Load(0x100).data_addr(), Some(0x100));
        assert_eq!(Op::Store(0x200).data_addr(), Some(0x200));
        assert_eq!(Op::Alu.data_addr(), None);
        assert_eq!(Op::Branch { mispredict: false }.data_addr(), None);
    }

    #[test]
    fn is_mem_classification() {
        assert!(Op::Load(0).is_mem());
        assert!(Op::Store(0).is_mem());
        assert!(!Op::Long.is_mem());
    }

    #[test]
    fn buffer_round_trips_every_op_kind() {
        let records = [
            TraceRecord { pc: 0, op: Op::Alu },
            TraceRecord {
                pc: 4,
                op: Op::Long,
            },
            TraceRecord {
                pc: 8,
                op: Op::Load(0xDEAD),
            },
            TraceRecord {
                pc: 12,
                op: Op::Store(0xBEEF),
            },
            TraceRecord {
                pc: 16,
                op: Op::Branch { mispredict: false },
            },
            TraceRecord {
                pc: 20,
                op: Op::Branch { mispredict: true },
            },
        ];
        let buf: TraceBuffer = records.iter().copied().collect();
        assert_eq!(buf.len(), records.len());
        assert!(!buf.is_empty());
        let back: Vec<TraceRecord> = buf.iter().collect();
        assert_eq!(back, records);
        assert_eq!(buf.iter().len(), records.len());
    }

    #[test]
    fn buffer_push_and_extend_match_collect() {
        let records = [
            TraceRecord {
                pc: 1,
                op: Op::Load(2),
            },
            TraceRecord { pc: 3, op: Op::Alu },
        ];
        let mut pushed = TraceBuffer::new();
        for &rec in &records {
            pushed.push(rec);
        }
        let mut extended = TraceBuffer::with_capacity(2);
        extended.extend(records.iter().copied());
        let collected: TraceBuffer = records.iter().copied().collect();
        assert_eq!(pushed, extended);
        assert_eq!(pushed, collected);
    }

    #[test]
    fn columns_cross_block_boundaries() {
        // Runs of sequential and non-memory records leave the PC and
        // address cursors parked on padding across several blocks.
        let records: Vec<TraceRecord> = (0..5 * BLOCK as u64)
            .map(|i| TraceRecord {
                pc: if i % 700 == 0 {
                    i << 20
                } else {
                    0x40_0000 + 4 * i
                },
                op: if i % 3 == 0 { Op::Store(i) } else { Op::Alu },
            })
            .collect();
        let buf: TraceBuffer = records.iter().copied().collect();
        assert!(buf.iter().eq(records.iter().copied()));
        assert_eq!(buf.iter().len(), records.len());
    }

    #[test]
    fn spec_profiles_fit_in_five_bytes_per_record() {
        const RECORDS: usize = 100_000;
        for p in crate::profiles::all() {
            let buf = crate::Trace::new(&p, 1).take_buffer(RECORDS);
            let per_record = buf.column_bytes() as f64 / RECORDS as f64;
            assert!(per_record <= 5.0, "{}: {per_record:.2} B/record", p.name);
        }
    }

    #[test]
    fn display_is_nonempty() {
        for op in [
            Op::Alu,
            Op::Long,
            Op::Load(1),
            Op::Store(2),
            Op::Branch { mispredict: true },
        ] {
            assert!(!op.to_string().is_empty());
        }
    }
}
