//! Fetch/decode/execute over the shared processor substrate.

use crate::asm::{assemble, AsmError};
use crate::isa::{AluOp, BranchCond, DecodeError, Inst, Width};
use crate::lint;
use ap_cpu::{Cpu, CpuConfig};
use ap_mem::VAddr;
use std::fmt;

/// Why [`Machine::load`] refused a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The source did not assemble.
    Asm(AsmError),
    /// It assembled, but static verification found Error-severity defects
    /// (out-of-range jumps, paths off the end of the program). The full
    /// report, warnings included, is carried here.
    Lint(ap_lint::Report),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Asm(e) => write!(f, "{e}"),
            LoadError::Lint(r) => write!(f, "{}", r.render_text()),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<AsmError> for LoadError {
    fn from(e: AsmError) -> Self {
        LoadError::Asm(e)
    }
}

/// Why a run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// A `halt` instruction retired.
    Halted,
    /// The step budget ran out first.
    OutOfSteps,
}

/// An execution-time failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The PC left the program.
    PcOutOfRange(u32),
    /// An undecodable word was fetched (self-modifying code gone wrong).
    Decode(DecodeError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::PcOutOfRange(pc) => write!(f, "PC {pc} outside the program"),
            RunError::Decode(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// An SS-lite machine: registers, a PC, and the encoded program resident in
/// simulated memory, executing over [`Cpu`]'s timing model.
///
/// Every instruction charges an L1I fetch; loads and stores run through the
/// data hierarchy; branches train the 2-bit predictor; `mul`/`div` take
/// their multi-cycle latencies. See the crate-level example.
#[derive(Debug)]
pub struct Machine {
    cpu: Cpu,
    regs: [u32; 32],
    pc: u32,
    code_base: VAddr,
    code_len: u32,
    retired: u64,
    lint: ap_lint::Report,
    /// The program decoded once at load time; [`Machine::step`] dispatches
    /// from this stream when `predecode` is on (the default).
    decoded: Vec<Inst>,
    /// When `false`, every fetch re-reads the encoded word from simulated
    /// memory and decodes it — the original path, kept for decode-error
    /// tests and self-modifying code. Timing is identical either way:
    /// `charge_fetch` carries all of it, and decode is pure.
    predecode: bool,
}

impl Machine {
    /// Assembles `source`, statically verifies it, and loads it at the
    /// bottom of a fresh machine's memory (binary-encoded; the raw-word
    /// fetch path reads these words back, and the predecoded fast path is
    /// primed from the same instruction stream).
    ///
    /// # Errors
    ///
    /// Returns the assembler's error on bad source, or the lint report when
    /// verification finds an Error-severity defect. Warnings (uninitialized
    /// register reads, unreachable code, misaligned displacements) do not
    /// refuse the load; they stay available via [`Machine::lint_report`].
    pub fn load(cfg: CpuConfig, ram_capacity: usize, source: &str) -> Result<Machine, LoadError> {
        let insts = assemble(source)?;
        Self::load_insts(cfg, ram_capacity, insts)
    }

    /// Loads an already-assembled program, skipping only the text parser:
    /// the lint gate and the memory image are exactly those of
    /// [`Machine::load`].
    ///
    /// # Errors
    ///
    /// Returns the lint report when static verification finds an
    /// Error-severity defect.
    pub fn load_program(
        cfg: CpuConfig,
        ram_capacity: usize,
        insts: &[Inst],
    ) -> Result<Machine, LoadError> {
        Self::load_insts(cfg, ram_capacity, insts.to_vec())
    }

    fn load_insts(
        cfg: CpuConfig,
        ram_capacity: usize,
        insts: Vec<Inst>,
    ) -> Result<Machine, LoadError> {
        let report = lint::check("program", &insts);
        if report.has_errors() {
            return Err(LoadError::Lint(report));
        }
        let mut cpu = Cpu::new(cfg, ram_capacity);
        let code_base = cpu.ram.alloc(insts.len() * 4 + 4, 64);
        for (i, inst) in insts.iter().enumerate() {
            cpu.ram.write_u32(code_base + (i * 4) as u64, inst.encode());
        }
        Ok(Machine {
            cpu,
            regs: [0; 32],
            pc: 0,
            code_base,
            code_len: insts.len() as u32,
            retired: 0,
            lint: report,
            decoded: insts,
            predecode: true,
        })
    }

    /// Selects the fetch path: `true` (the default) dispatches from the
    /// load-time predecoded stream; `false` re-reads and re-decodes the
    /// encoded word from simulated memory on every step. Cycles, retired
    /// counts and architectural state are bit-identical between the two —
    /// they differ only for self-modifying code, which only the raw path
    /// observes (and which the store-to-code case turns into a
    /// [`RunError::Decode`] when the overwritten word is undecodable).
    pub fn set_predecode(&mut self, on: bool) {
        self.predecode = on;
    }

    /// The static-verification report of the loaded program. Never contains
    /// errors (those refuse [`Machine::load`]); warnings survive here.
    pub fn lint_report(&self) -> &ap_lint::Report {
        &self.lint
    }

    /// Register value (`r0` is always zero).
    pub fn reg(&self, n: usize) -> u32 {
        if n == 0 {
            0
        } else {
            self.regs[n]
        }
    }

    /// Sets a register (writes to `r0` are ignored).
    pub fn set_reg(&mut self, n: usize, v: u32) {
        if n != 0 {
            self.regs[n] = v;
        }
    }

    /// The machine's processor (for data setup and statistics).
    pub fn cpu(&self) -> &Cpu {
        &self.cpu
    }

    /// Mutable access to the processor (e.g. to allocate data regions).
    pub fn cpu_mut(&mut self) -> &mut Cpu {
        &mut self.cpu
    }

    /// Elapsed simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cpu.now()
    }

    /// Instructions retired.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Executes up to `max_steps` instructions.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] if the PC escapes the program or fetches an
    /// undecodable word.
    pub fn run(&mut self, max_steps: u64) -> Result<RunOutcome, RunError> {
        let (t0, retired0) = (self.cpu.now(), self.retired);
        let outcome = (|| {
            for _ in 0..max_steps {
                if self.step()? {
                    return Ok(RunOutcome::Halted);
                }
            }
            Ok(RunOutcome::OutOfSteps)
        })();
        // One `kernel.run` span per run() call: the executed cycle window,
        // with the retired-instruction count as payload.
        ap_trace::complete(
            ap_trace::Subsystem::Risc,
            "kernel.run",
            t0,
            self.cpu.now() - t0,
            self.retired - retired0,
            matches!(outcome, Ok(RunOutcome::Halted)) as u64,
        );
        outcome
    }

    /// Executes one instruction; returns `true` on `halt`.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] on a wild PC or undecodable word.
    pub fn step(&mut self) -> Result<bool, RunError> {
        if self.pc >= self.code_len {
            return Err(RunError::PcOutOfRange(self.pc));
        }
        let pc_addr = self.code_base + (self.pc as u64) * 4;
        self.cpu.charge_fetch(pc_addr);
        // `charge_fetch` carries the entire fetch cost; the functional read
        // below it is what the predecoded stream makes redundant.
        let inst = if self.predecode {
            self.decoded[self.pc as usize]
        } else {
            let word = self.cpu.ram.read_u32(pc_addr);
            Inst::decode(word).map_err(RunError::Decode)?
        };
        self.retired += 1;
        let mut next = self.pc + 1;
        match inst {
            Inst::Alu { op, rd, rs, rt } => {
                let v = self.alu(op, self.reg(rs.index()), self.reg(rt.index()));
                self.set_reg(rd.index(), v);
            }
            Inst::AluImm { op, rd, rs, imm } => {
                let v = self.alu(op, self.reg(rs.index()), imm as i32 as u32);
                self.set_reg(rd.index(), v);
            }
            Inst::Lui { rd, imm } => {
                self.cpu.alu(1);
                self.set_reg(rd.index(), (imm as u32) << 16);
            }
            Inst::Load { width, rd, rs, imm } => {
                let addr = VAddr::new((self.reg(rs.index()) as i64 + imm as i64) as u64);
                let v = match width {
                    Width::B => self.cpu.load_u8(addr) as i8 as i32 as u32,
                    Width::Bu => self.cpu.load_u8(addr) as u32,
                    Width::H => self.cpu.load_u16(addr) as i16 as i32 as u32,
                    Width::Hu => self.cpu.load_u16(addr) as u32,
                    Width::W => self.cpu.load_u32(addr),
                };
                self.set_reg(rd.index(), v);
            }
            Inst::Store { width, rt, rs, imm } => {
                let addr = VAddr::new((self.reg(rs.index()) as i64 + imm as i64) as u64);
                let v = self.reg(rt.index());
                match width {
                    Width::B | Width::Bu => self.cpu.store_u8(addr, v as u8),
                    Width::H | Width::Hu => self.cpu.store_u16(addr, v as u16),
                    Width::W => self.cpu.store_u32(addr, v),
                }
            }
            Inst::Branch { cond, rs, rt, offset } => {
                let a = self.reg(rs.index());
                let b = self.reg(rt.index());
                let taken = match cond {
                    BranchCond::Eq => a == b,
                    BranchCond::Ne => a != b,
                    BranchCond::Lt => (a as i32) < (b as i32),
                    BranchCond::Ge => (a as i32) >= (b as i32),
                    BranchCond::Ltu => a < b,
                    BranchCond::Geu => a >= b,
                };
                // The branch site is the PC, which is unique per instruction.
                self.cpu.branch(self.pc, taken);
                if taken {
                    next = (self.pc as i64 + 1 + offset as i64) as u32;
                }
            }
            Inst::Jal { rd, target } => {
                self.cpu.alu(1);
                self.set_reg(rd.index(), self.pc + 1);
                next = target;
            }
            Inst::Jr { rs } => {
                self.cpu.alu(1);
                next = self.reg(rs.index());
            }
            Inst::Halt => {
                self.cpu.alu(1);
                return Ok(true);
            }
        }
        self.pc = next;
        Ok(false)
    }

    fn alu(&mut self, op: AluOp, a: u32, b: u32) -> u32 {
        match op {
            AluOp::Mul => self.cpu.mul(),
            AluOp::Div => self.cpu.div(),
            _ => self.cpu.alu(1),
        }
        match op {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    u32::MAX
                } else {
                    ((a as i32).wrapping_div(b as i32)) as u32
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(src: &str) -> Machine {
        Machine::load(CpuConfig::reference(), 1 << 22, src).unwrap()
    }

    #[test]
    fn arithmetic_program() {
        let mut m = machine(
            r#"
            addi r1, r0, 10
            addi r2, r0, 32
            add  r3, r1, r2
            mul  r4, r3, r3     ; 42*42
            halt
            "#,
        );
        assert_eq!(m.run(100).unwrap(), RunOutcome::Halted);
        assert_eq!(m.reg(3), 42);
        assert_eq!(m.reg(4), 1764);
        assert_eq!(m.retired(), 5);
    }

    #[test]
    fn loop_sums_one_to_n() {
        let mut m = machine(
            r#"
                addi r1, r0, 0      ; sum
                addi r2, r0, 1      ; i
                addi r3, r0, 101    ; bound
            loop:
                add  r1, r1, r2
                addi r2, r2, 1
                blt  r2, r3, loop
                halt
            "#,
        );
        assert_eq!(m.run(10_000).unwrap(), RunOutcome::Halted);
        assert_eq!(m.reg(1), 5050);
    }

    #[test]
    fn memory_round_trip_and_widths() {
        let mut m = machine(
            r#"
            lui  r1, 2          ; base = 0x20000
            addi r2, r0, -1
            sw   r2, (r1)
            lb   r3, (r1)       ; sign-extended byte
            lbu  r4, (r1)
            lhu  r5, 2(r1)
            halt
            "#,
        );
        m.run(100).unwrap();
        assert_eq!(m.reg(3), u32::MAX); // -1 sign extended
        assert_eq!(m.reg(4), 0xFF);
        assert_eq!(m.reg(5), 0xFFFF);
    }

    #[test]
    fn call_and_return() {
        let mut m = machine(
            r#"
                jal  r31, fn
                addi r2, r0, 7
                halt
            fn:
                addi r1, r0, 5
                jr   r31
            "#,
        );
        m.run(100).unwrap();
        assert_eq!(m.reg(1), 5);
        assert_eq!(m.reg(2), 7);
    }

    #[test]
    fn r0_stays_zero() {
        let mut m = machine("addi r0, r0, 99\n halt");
        m.run(10).unwrap();
        assert_eq!(m.reg(0), 0);
    }

    #[test]
    fn division_by_zero_is_defined() {
        let mut m = machine("addi r1, r0, 5\n addi r2, r0, 0\n div r3, r1, r2\n halt");
        m.run(10).unwrap();
        assert_eq!(m.reg(3), u32::MAX);
    }

    #[test]
    fn out_of_steps_reports() {
        let mut m = machine("loop: j loop");
        assert_eq!(m.run(50).unwrap(), RunOutcome::OutOfSteps);
    }

    #[test]
    fn wild_jump_is_an_error() {
        let mut m = machine("addi r1, r0, 999\n jr r1\n halt");
        assert!(matches!(m.run(10), Err(RunError::PcOutOfRange(999))));
    }

    #[test]
    fn load_refuses_statically_broken_programs() {
        // No terminator: execution would run off the end.
        let e = Machine::load(CpuConfig::reference(), 1 << 20, "addi r1, r0, 1").unwrap_err();
        assert!(matches!(e, LoadError::Lint(ref r) if r.has_errors()), "{e}");
        // Static jump outside the program.
        let e = Machine::load(CpuConfig::reference(), 1 << 20, "j 99").unwrap_err();
        assert!(matches!(e, LoadError::Lint(_)));
        // Warnings (here: an uninitialized read) still load, but are kept.
        let m = machine("add r1, r2, r0\n halt");
        assert_eq!(m.lint_report().warnings(), 1);
    }

    #[test]
    fn run_emits_a_kernel_span() {
        ap_trace::session::begin(ap_trace::session::SessionConfig::filtered(ap_trace::Filter::ALL));
        let mut m = machine("addi r1, r0, 1\n addi r2, r1, 2\n halt");
        m.run(10).unwrap();
        let cycles = m.cycles();
        let trace = ap_trace::session::finish().unwrap();
        let spans: Vec<_> = trace.events(ap_trace::Subsystem::Risc).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].kind, "kernel.run");
        assert_eq!(spans[0].dur, cycles, "span covers the executed window");
        assert_eq!(spans[0].a, 3, "payload counts retired instructions");
        assert_eq!(spans[0].b, 1, "halted");
    }

    #[test]
    fn predecoded_and_raw_paths_are_bit_identical() {
        let src = r#"
                addi r1, r0, 0      ; sum
                addi r2, r0, 1      ; i
                addi r3, r0, 50     ; bound
                lui  r6, 2          ; scratch base
            loop:
                add  r1, r1, r2
                sw   r1, (r6)
                lw   r4, (r6)
                addi r2, r2, 1
                blt  r2, r3, loop
                halt
            "#;
        let mut fast = machine(src);
        let mut raw = machine(src);
        raw.set_predecode(false);
        assert_eq!(fast.run(10_000).unwrap(), raw.run(10_000).unwrap());
        assert_eq!(fast.cycles(), raw.cycles());
        assert_eq!(fast.retired(), raw.retired());
        assert_eq!(fast.pc(), raw.pc());
        for r in 0..32 {
            assert_eq!(fast.reg(r), raw.reg(r), "r{r}");
        }
    }

    #[test]
    fn raw_path_observes_self_modifying_code() {
        // Overwrite the upcoming `addi r1, r0, 7` with an undecodable word.
        // Only the raw-word path fetches it back; the predecoded stream
        // keeps executing the load-time program.
        let src = r#"
            lui  r2, 1          ; r2 = 0x10000 = code_base (first alloc)
            addi r3, r0, -1     ; 0xFFFF_FFFF decodes to no instruction
            sw   r3, 12(r2)     ; clobber instruction index 3
            addi r1, r0, 7
            halt
            "#;
        let mut raw = machine(src);
        raw.set_predecode(false);
        assert!(matches!(raw.run(10), Err(RunError::Decode(_))));
        let mut fast = machine(src);
        fast.run(10).unwrap();
        assert_eq!(fast.reg(1), 7);
    }

    #[test]
    fn load_program_matches_load() {
        let src = "addi r1, r0, 3\n add r2, r1, r1\n halt";
        let insts = crate::asm::assemble(src).unwrap();
        let mut a = machine(src);
        let mut b = Machine::load_program(CpuConfig::reference(), 1 << 22, &insts).unwrap();
        assert_eq!(a.run(10).unwrap(), b.run(10).unwrap());
        assert_eq!(a.cycles(), b.cycles());
        assert_eq!(a.reg(2), b.reg(2));
        // The lint gate is shared: a program with no terminator is refused.
        let bad = [crate::isa::Inst::Alu {
            op: AluOp::Add,
            rd: crate::isa::Reg::new(1),
            rs: crate::isa::Reg::new(0),
            rt: crate::isa::Reg::new(0),
        }];
        assert!(matches!(
            Machine::load_program(CpuConfig::reference(), 1 << 20, &bad),
            Err(LoadError::Lint(_))
        ));
    }

    #[test]
    fn cycles_accumulate_with_memory_behaviour() {
        // A strided store loop must cost far more than a register loop of
        // the same instruction count.
        let reg_loop = r#"
            addi r2, r0, 0
            addi r3, r0, 1000
        loop:
            addi r2, r2, 1
            addi r4, r4, 3
            addi r5, r5, 5
            blt  r2, r3, loop
            halt
        "#;
        let mem_loop = r#"
            addi r2, r0, 0
            addi r3, r0, 1000
            lui  r1, 4
        loop:
            sw   r2, (r1)
            addi r1, r1, 2048   ; a fresh cache line every time
            addi r2, r2, 1
            blt  r2, r3, loop
            halt
        "#;
        let mut a = machine(reg_loop);
        a.run(100_000).unwrap();
        let mut b = machine(mem_loop);
        b.run(100_000).unwrap();
        assert!(
            b.cycles() > 5 * a.cycles(),
            "memory-bound {} vs register-bound {}",
            b.cycles(),
            a.cycles()
        );
    }
}
