//! A tiny register machine that *executes* programs and emits their real
//! address traces.
//!
//! The statistical profiles in [`crate::profiles`] model SPEC2K's cache
//! signatures; this module complements them with traces derived from
//! actual program semantics — loops, loads and stores whose addresses
//! come from computed values, data-dependent branches — so experiments
//! can be cross-checked against program-derived behaviour (see
//! [`crate::kernels`] for the program library).
//!
//! The machine is deliberately minimal: 32 integer registers, a flat
//! byte-addressed data memory, and a small RISC-style instruction set.
//! Every executed instruction becomes one [`TraceRecord`] whose PC is the
//! instruction's address in a configurable code region.

use std::collections::HashMap;

use crate::record::{Op, TraceRecord};

/// A register name (0..32). Register 0 is an ordinary register (no
/// hard-wired zero).
pub type Reg = u8;

/// Number of architectural registers.
pub const NUM_REGS: usize = 32;

/// The instruction set.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Insn {
    /// `rd = imm`
    Li(Reg, i64),
    /// `rd = rs + rt`
    Add(Reg, Reg, Reg),
    /// `rd = rs + imm`
    Addi(Reg, Reg, i64),
    /// `rd = rs * rt` (a long-latency op in the timing model)
    Mul(Reg, Reg, Reg),
    /// `rd = rs & imm`
    Andi(Reg, Reg, i64),
    /// `rd = rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd = rs << imm`
    Slli(Reg, Reg, u32),
    /// `rd = rs >> imm` (logical)
    Srli(Reg, Reg, u32),
    /// `rd = mem64[rs + imm]`
    Ld(Reg, Reg, i64),
    /// `mem64[rs + imm] = rt`
    Sd(Reg, Reg, i64),
    /// `if rs < rt goto label`
    Blt(Reg, Reg, Label),
    /// `if rs == rt goto label`
    Beq(Reg, Reg, Label),
    /// `if rs != rt goto label`
    Bne(Reg, Reg, Label),
    /// unconditional jump
    Jmp(Label),
    /// program end
    Halt,
    /// label marker (assembles to nothing)
    Mark(Label),
}

/// A branch target, resolved at program build time.
pub type Label = u32;

/// An assembled program: instructions plus the label table.
#[derive(Clone, Debug)]
pub struct Program {
    insns: Vec<Insn>,
    labels: HashMap<Label, usize>,
    /// Base byte address of the code region (PCs = base + 4 * index).
    pub code_base: u64,
}

impl Program {
    /// Assembles a program, resolving `Mark` labels. `Mark`s are kept in
    /// the instruction stream as zero-size markers (skipped at run time,
    /// not traced, not given PCs).
    ///
    /// # Panics
    ///
    /// Panics if a label is marked twice or a branch targets an unmarked
    /// label.
    pub fn assemble(insns: Vec<Insn>, code_base: u64) -> Self {
        let mut labels = HashMap::new();
        let mut pc = 0usize;
        for insn in &insns {
            if let Insn::Mark(l) = insn {
                let prev = labels.insert(*l, pc);
                assert!(prev.is_none(), "label {l} marked twice");
            } else {
                pc += 1;
            }
        }
        let program = Program {
            insns: insns
                .iter()
                .filter(|i| !matches!(i, Insn::Mark(_)))
                .copied()
                .collect(),
            labels,
            code_base,
        };
        for insn in &program.insns {
            if let Insn::Blt(_, _, l) | Insn::Beq(_, _, l) | Insn::Bne(_, _, l) | Insn::Jmp(l) =
                insn
            {
                assert!(
                    program.labels.contains_key(l),
                    "branch to unmarked label {l}"
                );
            }
        }
        program
    }

    /// Number of real (non-marker) instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }
}

/// The execution engine: an iterator producing one [`TraceRecord`] per
/// executed instruction.
///
/// # Examples
///
/// ```
/// use trace_gen::vm::{Insn, Machine, Program};
///
/// // for i in 0..4 { mem[0x1000 + 8*i] = i }
/// let p = Program::assemble(
///     vec![
///         Insn::Li(1, 0),            // i = 0
///         Insn::Li(2, 4),            // n = 4
///         Insn::Li(3, 0x1000),       // base
///         Insn::Mark(0),
///         Insn::Slli(4, 1, 3),       // off = i * 8
///         Insn::Add(4, 4, 3),
///         Insn::Sd(4, 1, 0),         // mem[base + off] = i
///         Insn::Addi(1, 1, 1),
///         Insn::Blt(1, 2, 0),
///         Insn::Halt,
///     ],
///     0x40_0000,
/// );
/// let trace: Vec<_> = Machine::new(p).collect();
/// assert_eq!(trace.iter().filter(|r| r.op.is_mem()).count(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct Machine {
    program: Program,
    regs: [i64; NUM_REGS],
    memory: HashMap<u64, i64>,
    pc: usize,
    halted: bool,
    executed: u64,
    fuel: u64,
}

impl Machine {
    /// Creates a machine at the program entry with zeroed registers.
    pub fn new(program: Program) -> Self {
        Machine {
            program,
            regs: [0; NUM_REGS],
            memory: HashMap::new(),
            pc: 0,
            halted: false,
            executed: 0,
            fuel: u64::MAX,
        }
    }

    /// Bounds execution to `fuel` instructions (a runaway-loop guard for
    /// tests and benches).
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Pre-writes a 64-bit value into data memory (program input).
    pub fn poke(&mut self, addr: u64, value: i64) {
        self.memory.insert(addr & !7, value);
    }

    /// Reads a 64-bit value from data memory (program output).
    pub fn peek(&self, addr: u64) -> i64 {
        *self.memory.get(&(addr & !7)).unwrap_or(&0)
    }

    /// Register contents (for assertions in tests).
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r as usize]
    }

    /// Instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    fn branch_to(&mut self, label: Label) {
        self.pc = self.program.labels[&label];
    }
}

impl Iterator for Machine {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        if self.halted || self.executed >= self.fuel || self.pc >= self.program.insns.len() {
            return None;
        }
        let insn = self.program.insns[self.pc];
        let pc_addr = self.program.code_base + 4 * self.pc as u64;
        self.pc += 1;
        self.executed += 1;

        let r = |m: &Machine, r: Reg| m.regs[r as usize];
        let op = match insn {
            Insn::Li(rd, imm) => {
                self.regs[rd as usize] = imm;
                Op::Alu
            }
            Insn::Add(rd, rs, rt) => {
                self.regs[rd as usize] = r(self, rs).wrapping_add(r(self, rt));
                Op::Alu
            }
            Insn::Addi(rd, rs, imm) => {
                self.regs[rd as usize] = r(self, rs).wrapping_add(imm);
                Op::Alu
            }
            Insn::Mul(rd, rs, rt) => {
                self.regs[rd as usize] = r(self, rs).wrapping_mul(r(self, rt));
                Op::Long
            }
            Insn::Andi(rd, rs, imm) => {
                self.regs[rd as usize] = r(self, rs) & imm;
                Op::Alu
            }
            Insn::Xor(rd, rs, rt) => {
                self.regs[rd as usize] = r(self, rs) ^ r(self, rt);
                Op::Alu
            }
            Insn::Slli(rd, rs, sh) => {
                self.regs[rd as usize] = r(self, rs).wrapping_shl(sh);
                Op::Alu
            }
            Insn::Srli(rd, rs, sh) => {
                self.regs[rd as usize] = ((r(self, rs) as u64).wrapping_shr(sh)) as i64;
                Op::Alu
            }
            Insn::Ld(rd, rs, imm) => {
                let addr = (r(self, rs).wrapping_add(imm)) as u64;
                self.regs[rd as usize] = self.peek(addr);
                Op::Load(addr)
            }
            Insn::Sd(rs, rt, imm) => {
                // mem[rs + imm] = rt (note the operand order in the enum).
                let addr = (r(self, rs).wrapping_add(imm)) as u64;
                let value = r(self, rt);
                self.memory.insert(addr & !7, value);
                Op::Store(addr)
            }
            Insn::Blt(rs, rt, l) => {
                let taken = r(self, rs) < r(self, rt);
                if taken {
                    self.branch_to(l);
                }
                // Backward taken branches predict well; model a small
                // data-dependent mispredict chance via the value parity.
                Op::Branch {
                    mispredict: taken && (r(self, rs) & 0x3F) == 0x3F,
                }
            }
            Insn::Beq(rs, rt, l) => {
                let taken = r(self, rs) == r(self, rt);
                if taken {
                    self.branch_to(l);
                }
                Op::Branch { mispredict: taken }
            }
            Insn::Bne(rs, rt, l) => {
                let taken = r(self, rs) != r(self, rt);
                if taken {
                    self.branch_to(l);
                }
                Op::Branch { mispredict: !taken }
            }
            Insn::Jmp(l) => {
                self.branch_to(l);
                Op::Branch { mispredict: false }
            }
            Insn::Halt => {
                self.halted = true;
                Op::Alu
            }
            Insn::Mark(_) => unreachable!("markers are stripped at assembly"),
        };
        Some(TraceRecord { pc: pc_addr, op })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(insns: Vec<Insn>) -> (Machine, Vec<TraceRecord>) {
        let p = Program::assemble(insns, 0x40_0000);
        let mut m = Machine::new(p).with_fuel(1_000_000);
        let trace = m.by_ref().collect();
        (m, trace)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (m, trace) = run(vec![
            Insn::Li(1, 6),
            Insn::Li(2, 7),
            Insn::Mul(3, 1, 2),
            Insn::Addi(3, 3, 1),
            Insn::Halt,
        ]);
        assert_eq!(m.reg(3), 43);
        assert!(m.halted());
        assert_eq!(trace.len(), 5);
        assert!(matches!(trace[2].op, Op::Long));
    }

    #[test]
    fn memory_round_trip() {
        let (m, trace) = run(vec![
            Insn::Li(1, 0x2000),
            Insn::Li(2, 99),
            Insn::Sd(1, 2, 8),
            Insn::Ld(3, 1, 8),
            Insn::Halt,
        ]);
        assert_eq!(m.reg(3), 99);
        assert_eq!(trace[2].op, Op::Store(0x2008));
        assert_eq!(trace[3].op, Op::Load(0x2008));
    }

    #[test]
    fn loop_executes_n_times() {
        // Sum 0..10 into r3.
        let (m, trace) = run(vec![
            Insn::Li(1, 0),
            Insn::Li(2, 10),
            Insn::Li(3, 0),
            Insn::Mark(7),
            Insn::Add(3, 3, 1),
            Insn::Addi(1, 1, 1),
            Insn::Blt(1, 2, 7),
            Insn::Halt,
        ]);
        assert_eq!(m.reg(3), 45);
        // 3 setup + 10 * 3 loop body + halt.
        assert_eq!(trace.len(), 3 + 30 + 1);
    }

    #[test]
    fn pcs_are_sequential_in_code_region() {
        let (_, trace) = run(vec![Insn::Li(1, 1), Insn::Li(2, 2), Insn::Halt]);
        assert_eq!(trace[0].pc, 0x40_0000);
        assert_eq!(trace[1].pc, 0x40_0004);
        assert_eq!(trace[2].pc, 0x40_0008);
    }

    #[test]
    fn fuel_bounds_runaway_loops() {
        let p = Program::assemble(vec![Insn::Mark(0), Insn::Jmp(0)], 0);
        let n = Machine::new(p).with_fuel(500).count();
        assert_eq!(n, 500);
    }

    #[test]
    fn poke_provides_program_input() {
        let p = Program::assemble(vec![Insn::Li(1, 0x3000), Insn::Ld(2, 1, 0), Insn::Halt], 0);
        let mut m = Machine::new(p);
        m.poke(0x3000, 1234);
        let _: Vec<_> = m.by_ref().collect();
        assert_eq!(m.reg(2), 1234);
    }

    #[test]
    #[should_panic(expected = "unmarked label")]
    fn dangling_branch_rejected() {
        Program::assemble(vec![Insn::Jmp(42), Insn::Halt], 0);
    }

    #[test]
    #[should_panic(expected = "marked twice")]
    fn duplicate_label_rejected() {
        Program::assemble(vec![Insn::Mark(1), Insn::Mark(1), Insn::Halt], 0);
    }
}
