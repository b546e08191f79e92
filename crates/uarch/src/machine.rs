//! The simulated machine: committed execution, faults, privilege
//! transitions, and cycle accounting.
//!
//! Transient (speculative) execution lives in [`crate::transient`]; the
//! machine decides *when* a transient window opens (mispredicted branch,
//! faulting load, store-bypass opportunity) and the window module decides
//! what leaks inside it.
//!
//! # Timing model
//!
//! Every committed instruction charges cycles from the CPU model's
//! [`crate::model::LatencyProfile`], plus dynamic costs: TLB walks, L1D
//! misses, branch misprediction penalties, SSBD forwarding stalls. The
//! cycle counter is the TSC that `rdtsc` reads — measurement code inside
//! the simulation sees exactly what a real `rdtsc`-based microbenchmark
//! sees.

use crate::cache::{CacheOutcome, L1Cache};
use crate::decode::{DecodedInst, Op};
use crate::fault::{Fault, SimError};
use crate::fill_buffer::FillBuffers;
use crate::fpu::Fpu;
use crate::isa::{spec_ctrl, Cond, Flags, Pmc, Reg, Width};
use crate::mem::PhysMemory;
use crate::mmu::{Access, Mmu};
use crate::model::{CpuModel, Vendor};
use crate::msr::{MsrEffect, MsrFile};
use crate::pmc::PmcBank;
use crate::predictor::{Bhb, Btb, CondPredictor, PrivMode, Rsb};
use crate::program::{CodeMem, Program, INST_SIZE};
use crate::store_buffer::{ForwardOutcome, StoreBuffer};
use crate::trace::{TraceRecord, Tracer};
use crate::transient::{self, TransientStart};

/// Why `Machine::run` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// A `Halt` instruction committed.
    Halted,
    /// A `Vmcall` committed: the guest wants the hypervisor.
    Vmcall,
}

/// The host environment a running machine calls back into.
///
/// `sim-kernel` implements this to give `Host` instructions their
/// semantics (syscall dispatch, scheduling decisions) without modelling
/// every kernel instruction — the *mitigation-relevant* instructions are
/// all real, emitted into the entry/exit/switch paths.
pub trait Env {
    /// Handles a `Host(id)` instruction.
    fn host_call(&mut self, m: &mut Machine, id: u16) -> Result<(), SimError>;
}

/// An environment that rejects all host calls; fine for raw programs.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoEnv;

impl Env for NoEnv {
    fn host_call(&mut self, _m: &mut Machine, id: u16) -> Result<(), SimError> {
        Err(SimError::MissingHostHook { id })
    }
}

/// Saved state for fault delivery / `iret`.
#[derive(Debug, Clone, Copy)]
pub struct FaultFrame {
    /// The fault that was delivered.
    pub fault: Fault,
    /// Address of the faulting instruction.
    pub faulting_pc: u64,
    /// Where `iret` resumes; defaults to `faulting_pc` (retry). Handlers
    /// may advance it (e.g. to skip a probing load in attack code).
    pub resume_pc: u64,
    /// Privilege mode before the fault.
    pub prior_mode: PrivMode,
}

/// Registered fault handler entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultVectors {
    /// Page fault handler.
    pub page_fault: Option<u64>,
    /// General protection fault handler.
    pub general_protection: Option<u64>,
    /// Divide error handler.
    pub divide_error: Option<u64>,
    /// Device-not-available (FPU) handler — the LazyFP trap.
    pub device_not_available: Option<u64>,
    /// Invalid opcode handler.
    pub invalid_opcode: Option<u64>,
}

impl FaultVectors {
    fn entry_for(&self, fault: Fault) -> Option<u64> {
        match fault {
            Fault::Page { .. } => self.page_fault,
            Fault::GeneralProtection => self.general_protection,
            Fault::DivideError => self.divide_error,
            Fault::DeviceNotAvailable => self.device_not_available,
            Fault::InvalidOpcode => self.invalid_opcode,
        }
    }
}

/// The simulated CPU plus its memory system.
///
/// The hot architectural state (registers, flags, PC, clock, instruction
/// count, fetch hint) is declared together at the top so the dispatch
/// loop's working set clusters into a few cache lines.
#[derive(Debug)]
pub struct Machine {
    /// General-purpose registers.
    pub regs: [u64; 16],
    /// Flags from the last compare.
    pub flags: Flags,
    /// Program counter.
    pub pc: u64,
    /// Cycle counter (the TSC).
    pub(crate) cycles: u64,
    /// Committed instruction count.
    pub(crate) insts: u64,
    /// Index of the code segment that satisfied the last decoded fetch;
    /// a pure performance hint (see [`CodeMem::fetch_decoded`]).
    seg_hint: usize,
    /// Current privilege mode.
    pub mode: PrivMode,
    /// An `lfence` just committed on an AMD part: the next indirect branch
    /// does not speculate (the "AMD retpoline" semantics).
    pub(crate) lfence_shadow: bool,
    /// Cycle at which the most recent committed load finished; `lfence`
    /// is only expensive while loads are in flight (paper §5.4's caveat).
    pub(crate) last_load_cycle: u64,
    /// The CPU model being simulated.
    pub model: CpuModel,
    /// Physical memory.
    pub mem: PhysMemory,
    /// Code memory.
    pub code: CodeMem,
    /// MMU: page tables + TLB.
    pub mmu: Mmu,
    /// L1 data cache.
    pub l1d: L1Cache,
    /// Unified L2 cache (presence only, like the L1 model). An L1D flush
    /// does not touch it, so post-flush refills pay L2 latency, not DRAM.
    pub l2: L1Cache,
    /// MDS leak source.
    pub fill_buffers: FillBuffers,
    /// Store buffer (store-to-load forwarding, SSB).
    pub store_buffer: StoreBuffer,
    /// Branch target buffer.
    pub btb: Btb,
    /// Return stack buffer.
    pub rsb: Rsb,
    /// Branch history buffer.
    pub bhb: Bhb,
    /// Conditional branch predictor.
    pub cond_pred: CondPredictor,
    /// Floating point unit.
    pub fpu: Fpu,
    /// Model-specific registers.
    pub msrs: MsrFile,
    /// Performance counters.
    pub pmc: PmcBank,
    /// Syscall entry point (kernel installs it).
    pub syscall_entry: Option<u64>,
    /// Fault handler entry points.
    pub fault_vectors: FaultVectors,
    /// Pending fault frame for `iret`.
    pub fault_frame: Option<FaultFrame>,
    /// Kernel entries seen while eIBRS is active (drives the §6.2.2
    /// bimodal-latency behaviour).
    entry_counter: u64,
    /// Cycle of the last SSBD disambiguation stall: once a load has
    /// waited out the store queue, the addresses are resolved and
    /// immediately-following loads need not wait again.
    pub(crate) last_ssbd_stall: u64,
    /// Transient (squashed) instructions executed, monotonic (unlike the
    /// resettable PMC copy); feeds the process-wide obs counters.
    pub(crate) transient_insts: u64,
    /// Transient windows opened, monotonic.
    pub(crate) transient_windows: u64,
    /// Portion of `insts` already published to [`crate::pmc::global`].
    flushed_insts: u64,
    /// Portion of `transient_insts` already published.
    flushed_transient: u64,
    /// Portion of `transient_windows` already published.
    flushed_windows: u64,
    /// GS-base selector (flips on `swapgs`; semantic payload is not
    /// modelled, only the mitigation cost around it).
    pub swapgs_user: bool,
    /// Optional execution trace (off by default; see
    /// [`Machine::enable_trace`]).
    pub tracer: Option<Tracer>,
}

impl Machine {
    /// Creates a machine for the given CPU model, with empty memory.
    pub fn new(model: CpuModel) -> Machine {
        let btb_entries = model.spec.btb_entries;
        let rsb_entries = model.spec.rsb_entries;
        let bhb_len = model.spec.bhb_len;
        let mut btb = Btb::new(btb_entries);
        btb.priv_tagged = model.spec.btb_priv_tagged;
        btb.history_tagged = model.spec.btb_history_tagged;
        let arch_caps = model.arch_capabilities();
        let mut mmu = Mmu::new(1536);
        mmu.pcid_enabled = model.spec.pcid;
        Machine {
            regs: [0; 16],
            flags: Flags::default(),
            pc: 0,
            mode: PrivMode::Kernel,
            mem: PhysMemory::new(),
            code: CodeMem::new(),
            mmu,
            l1d: L1Cache::standard(),
            l2: L1Cache::new(1024, 8),
            fill_buffers: FillBuffers::new(),
            store_buffer: StoreBuffer::new(),
            btb,
            rsb: Rsb::new(rsb_entries),
            bhb: Bhb::new(bhb_len),
            cond_pred: CondPredictor::new(4096),
            fpu: Fpu::new(),
            msrs: MsrFile::new(arch_caps),
            pmc: PmcBank::new(),
            syscall_entry: None,
            fault_vectors: FaultVectors::default(),
            fault_frame: None,
            cycles: 0,
            insts: 0,
            seg_hint: 0,
            entry_counter: 0,
            lfence_shadow: false,
            last_load_cycle: 0,
            last_ssbd_stall: 0,
            transient_insts: 0,
            transient_windows: 0,
            flushed_insts: 0,
            flushed_transient: 0,
            flushed_windows: 0,
            swapgs_user: true,
            tracer: None,
            model,
        }
    }

    /// Enables execution tracing, keeping the last `capacity` committed
    /// instructions (see [`crate::trace`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// Current cycle count (the TSC value).
    #[inline]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Committed instruction count.
    #[inline]
    pub fn inst_count(&self) -> u64 {
        self.insts
    }

    /// Transient (squashed, wrong-path) instructions executed.
    #[inline]
    pub fn transient_inst_count(&self) -> u64 {
        self.transient_insts
    }

    /// Transient-execution windows opened (mispredicts, faulting loads,
    /// store-bypass opportunities, stale-FPU uses).
    #[inline]
    pub fn transient_window_count(&self) -> u64 {
        self.transient_windows
    }

    /// Cycle at which the most recent committed load finished.
    #[inline]
    pub fn last_load_cycle(&self) -> u64 {
        self.last_load_cycle
    }

    /// Adds cycles to the clock (used by host hooks to charge for work
    /// done in Rust on the machine's behalf, and by the hypervisor for
    /// host-side handling time).
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.cycles += cycles;
        self.pmc.add(Pmc::Cycles, cycles);
    }

    /// Refunds cycles that overlapped with other work (e.g. an `lfence`
    /// whose wait overlaps the following branch's target resolution).
    #[inline]
    pub(crate) fn refund(&mut self, cycles: u64) {
        self.cycles = self.cycles.saturating_sub(cycles);
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        self.regs[r.index()] = v;
    }

    /// Loads a program into code memory.
    pub fn load_program(&mut self, program: Program) {
        self.code.load(program);
    }

    /// Whether SSBD is currently in effect.
    #[inline]
    pub fn ssbd_active(&self) -> bool {
        self.model.spec.ssbd_supported && self.msrs.spec_ctrl() & spec_ctrl::SSBD != 0
    }

    /// Whether the live `IA32_SPEC_CTRL.IBRS` bit is set.
    #[inline]
    pub fn ibrs_active(&self) -> bool {
        self.msrs.spec_ctrl() & spec_ctrl::IBRS != 0
    }

    /// Looks up the BTB prediction for an indirect branch at `branch_pc`
    /// in the current mode, applying all model quirks (eIBRS privilege
    /// tagging, pre-Spectre IBRS blocking everything, the Ice Lake Client
    /// kernel-mode suppression, Zen 3 history tagging).
    pub fn predict_indirect(&self, branch_pc: u64) -> Option<u64> {
        if self.ibrs_active()
            && self.model.spec.ibrs_blocks_kernel_mode
            && self.mode == PrivMode::Kernel
        {
            return None;
        }
        self.btb.predict(
            branch_pc,
            self.mode,
            &self.bhb,
            self.msrs.spec_ctrl(),
            self.model.spec.ibrs_blocks_all_prediction,
        )
    }

    /// Translates and performs a committed load, charging TLB/cache/SSBD
    /// costs. Returns the loaded value.
    pub fn read_virt(&mut self, vaddr: u64, width: Width) -> Result<u64, Fault> {
        let user = self.mode == PrivMode::User;
        let tr = self.mmu.translate(vaddr, Access::Read, user)?;
        if !tr.tlb_hit {
            self.charge(self.model.lat.tlb_miss);
        }
        let now = self.cycles;
        // SSBD semantics: the load may not speculatively assume it does
        // not alias an older store whose address is still unresolved; it
        // stalls whenever a store issued within the resolution window,
        // aliasing or not. Store addresses resolve within a few cycles,
        // so the window is short — the cost comes from how *often* hot
        // loops load right after storing.
        if self.ssbd_active()
            && now.saturating_sub(self.last_ssbd_stall) > 12
            && self.store_buffer.has_unresolved_store(now, 6)
        {
            self.charge(self.model.lat.ssbd_forward_stall);
            self.last_ssbd_stall = self.cycles;
        }
        let value = match self.store_buffer.check_load(vaddr, width, now) {
            ForwardOutcome::Forwarded { value } => {
                self.charge(self.model.lat.l1_hit);
                // The line is (or becomes) resident either way.
                self.l1d.access(tr.paddr);
                value
            }
            ForwardOutcome::PartialOverlap => {
                // Must wait for the store buffer to drain: costly either way.
                self.charge(self.model.lat.l1_hit + 12);
                self.l1d.access(tr.paddr);
                self.mem.read(tr.paddr, width)
            }
            ForwardOutcome::NoConflict => {
                let cost = match self.l1d.access(tr.paddr) {
                    CacheOutcome::Hit => self.model.lat.l1_hit,
                    CacheOutcome::Miss => {
                        self.pmc.incr(Pmc::L1dMiss);
                        match self.l2.access(tr.paddr) {
                            CacheOutcome::Hit => self.model.lat.l2_hit,
                            CacheOutcome::Miss => self.model.lat.l1_miss,
                        }
                    }
                };
                self.charge(cost);
                self.mem.read(tr.paddr, width)
            }
        };
        self.fill_buffers.record(value);
        self.last_load_cycle = self.cycles;
        Ok(value)
    }

    /// Translates and performs a committed store.
    pub fn write_virt(&mut self, vaddr: u64, value: u64, width: Width) -> Result<(), Fault> {
        let user = self.mode == PrivMode::User;
        let tr = self.mmu.translate(vaddr, Access::Write, user)?;
        if !tr.tlb_hit {
            self.charge(self.model.lat.tlb_miss);
        }
        // Write-allocate; stores retire through the store buffer so the
        // visible latency is just the issue cost.
        self.l1d.access(tr.paddr);
        self.l2.access(tr.paddr);
        self.charge(self.model.lat.l1_hit);
        let now = self.cycles;
        // The overwritten value is what a bypassing load would see (SSB).
        let stale = self.mem.read(tr.paddr, width);
        self.store_buffer.push(vaddr, width, value, stale, now);
        self.mem.write(tr.paddr, value, width);
        self.fill_buffers.record(width.truncate(value));
        Ok(())
    }

    /// Runs until `Halt`, `Vmcall`, an error, or the instruction budget is
    /// exhausted.
    pub fn run(&mut self, env: &mut dyn Env, budget: u64) -> Result<Stop, SimError> {
        let result = self.run_inner(env, budget);
        self.flush_global_counters();
        result
    }

    fn run_inner(&mut self, env: &mut dyn Env, budget: u64) -> Result<Stop, SimError> {
        let mut remaining = budget;
        loop {
            // Tight inline loop over the hot ops: unprivileged ALU,
            // compares, and direct jumps execute here with the
            // per-instruction `Instructions` counter batched in `pending`.
            // None of these ops can fault, stop, open a transient window,
            // or observe the counters, so batching is architecturally
            // invisible; everything else (and every error path) falls back
            // to [`Machine::step`], flushing first. Skipped entirely when a
            // tracer is attached, which needs the per-step record.
            if self.tracer.is_none() {
                let mut pending: u64 = 0;
                'hot: while remaining != 0 {
                    let d = match self.code.fetch_decoded(self.pc, &mut self.seg_hint) {
                        Some(d) => d,
                        None => break 'hot, // step() raises BadFetch
                    };
                    match d.op {
                        Op::Nop | Op::Pause => {
                            self.charge(self.model.lat.alu);
                            self.pc += INST_SIZE;
                        }
                        Op::MovImm => self.alu_write(d.a, d.imm),
                        Op::Mov => self.alu_write(d.a, self.rv(d.b)),
                        Op::Add => self.alu_write(d.a, self.rv(d.a).wrapping_add(self.rv(d.b))),
                        Op::AddImm => self.alu_write(d.a, self.rv(d.a).wrapping_add(d.imm)),
                        Op::Sub => self.alu_write(d.a, self.rv(d.a).wrapping_sub(self.rv(d.b))),
                        Op::SubImm => self.alu_write(d.a, self.rv(d.a).wrapping_sub(d.imm)),
                        Op::Mul => {
                            self.charge(2);
                            let v = self.rv(d.a).wrapping_mul(self.rv(d.b));
                            self.set_rv(d.a, v);
                            self.pc += INST_SIZE;
                        }
                        Op::And => self.alu_write(d.a, self.rv(d.a) & self.rv(d.b)),
                        Op::AndImm => self.alu_write(d.a, self.rv(d.a) & d.imm),
                        Op::Or => self.alu_write(d.a, self.rv(d.a) | self.rv(d.b)),
                        Op::Xor => self.alu_write(d.a, self.rv(d.a) ^ self.rv(d.b)),
                        Op::XorImm => self.alu_write(d.a, self.rv(d.a) ^ d.imm),
                        Op::Shl => self.alu_write(d.a, self.rv(d.a) << (d.b & 63)),
                        Op::Shr => self.alu_write(d.a, self.rv(d.a) >> (d.b & 63)),
                        Op::Not => self.alu_write(d.a, !self.rv(d.a)),
                        Op::Cmp => {
                            self.flags = Flags::compare(self.rv(d.a), self.rv(d.b));
                            self.charge(self.model.lat.alu);
                            self.pc += INST_SIZE;
                        }
                        Op::CmpImm => {
                            self.flags = Flags::compare(self.rv(d.a), d.imm);
                            self.charge(self.model.lat.alu);
                            self.pc += INST_SIZE;
                        }
                        Op::Test => {
                            let v = self.rv(d.a) & self.rv(d.b);
                            self.flags = Flags {
                                zero: v == 0,
                                carry: false,
                                sign: (v as i64) < 0,
                                overflow: false,
                            };
                            self.charge(self.model.lat.alu);
                            self.pc += INST_SIZE;
                        }
                        Op::Jmp => {
                            let pc = self.pc;
                            self.charge(self.model.lat.alu);
                            self.bhb.record(pc, d.imm);
                            self.pc = d.imm;
                        }
                        Op::Jcc => {
                            let pc = self.pc;
                            self.charge(self.model.lat.alu);
                            let target = d.imm;
                            let taken = self.flags.eval(Cond::from_index(d.c as usize));
                            let predicted_taken = self.cond_pred.predict(pc, &self.bhb);
                            if predicted_taken != taken {
                                // The wrong-path window can observe the
                                // counters (`rdpmc`): flush the batch,
                                // current instruction included.
                                remaining -= 1;
                                self.insts += pending + 1;
                                self.pmc.add(Pmc::Instructions, pending + 1);
                                pending = 0;
                                self.lfence_shadow = false;
                                let wrong_path =
                                    if predicted_taken { target } else { pc + INST_SIZE };
                                self.mispredict_window(wrong_path);
                                self.cond_pred.update(pc, &self.bhb, taken);
                                if taken {
                                    self.bhb.record(pc, target);
                                    self.pc = target;
                                } else {
                                    self.pc += INST_SIZE;
                                }
                                continue 'hot;
                            }
                            self.cond_pred.update(pc, &self.bhb, taken);
                            if taken {
                                self.bhb.record(pc, target);
                                self.pc = target;
                            } else {
                                self.pc += INST_SIZE;
                            }
                        }
                        Op::Load => {
                            let pc = self.pc;
                            let width = Width::from_index((d.c & 3) as usize);
                            let vaddr = self.rv(d.b).wrapping_add(d.imm);
                            match self.read_virt(vaddr, width) {
                                Ok(v) => {
                                    self.set_rv(d.a, v);
                                    let dst = Reg::from_index((d.a & 15) as usize);
                                    if let Some(stale) = self.ssb_stale(vaddr, width, dst) {
                                        // SSB window: flush, then open.
                                        remaining -= 1;
                                        self.insts += pending + 1;
                                        self.pmc.add(Pmc::Instructions, pending + 1);
                                        pending = 0;
                                        self.lfence_shadow = false;
                                        transient::run_window(
                                            self,
                                            TransientStart::StoreBypass {
                                                stale,
                                                dst,
                                                next_pc: pc + INST_SIZE,
                                            },
                                        );
                                        self.pc = pc + INST_SIZE;
                                        continue 'hot;
                                    }
                                    self.pc += INST_SIZE;
                                }
                                Err(fault) => {
                                    // Faulting-load window + fault delivery:
                                    // flush first, error paths included.
                                    remaining -= 1;
                                    self.insts += pending + 1;
                                    self.pmc.add(Pmc::Instructions, pending + 1);
                                    pending = 0;
                                    self.lfence_shadow = false;
                                    self.load_fault(fault, pc, vaddr, width, d.a)?;
                                    continue 'hot;
                                }
                            }
                        }
                        Op::Store => {
                            let pc = self.pc;
                            let width = Width::from_index((d.c & 3) as usize);
                            let vaddr = self.rv(d.b).wrapping_add(d.imm);
                            let value = self.rv(d.a);
                            match self.write_virt(vaddr, value, width) {
                                Ok(()) => self.pc += INST_SIZE,
                                Err(fault) => {
                                    remaining -= 1;
                                    self.insts += pending + 1;
                                    self.pmc.add(Pmc::Instructions, pending + 1);
                                    pending = 0;
                                    self.lfence_shadow = false;
                                    self.deliver_fault(fault, pc)?;
                                    continue 'hot;
                                }
                            }
                        }
                        _ => break 'hot,
                    }
                    remaining -= 1;
                    pending += 1;
                    self.lfence_shadow = false;
                }
                self.insts += pending;
                self.pmc.add(Pmc::Instructions, pending);
            }
            if remaining == 0 {
                return Err(SimError::InstructionBudgetExhausted);
            }
            remaining -= 1;
            match self.step(env)? {
                Some(stop) => return Ok(stop),
                None => continue,
            }
        }
    }

    /// Runs at most `n` committed instructions. Returns `Ok(true)` when
    /// the machine stopped (halt or vmcall), `Ok(false)` when the slice
    /// was exhausted with the machine still runnable. Lets callers
    /// observe microarchitectural state at intermediate points.
    pub fn step_slice(&mut self, env: &mut dyn Env, n: u64) -> Result<bool, SimError> {
        let mut stopped = false;
        for _ in 0..n {
            match self.step(env) {
                Ok(Some(_)) => {
                    stopped = true;
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    self.flush_global_counters();
                    return Err(e);
                }
            }
        }
        self.flush_global_counters();
        Ok(stopped)
    }

    /// Publishes counter deltas to the process-wide totals in
    /// [`crate::pmc::global`]. Called when a run or slice ends (and on
    /// drop), so the per-step dispatch path stays free of atomics.
    fn flush_global_counters(&mut self) {
        crate::pmc::global::flush(
            self.insts - self.flushed_insts,
            self.transient_insts - self.flushed_transient,
            self.transient_windows - self.flushed_windows,
        );
        self.flushed_insts = self.insts;
        self.flushed_transient = self.transient_insts;
        self.flushed_windows = self.transient_windows;
    }

    /// Reads a register by decoded operand index. The mask proves the
    /// index in-range, so the array access compiles bounds-check-free.
    #[inline(always)]
    fn rv(&self, i: u8) -> u64 {
        self.regs[(i & 15) as usize]
    }

    /// Writes a register by decoded operand index.
    #[inline(always)]
    fn set_rv(&mut self, i: u8, v: u64) {
        self.regs[(i & 15) as usize] = v;
    }

    /// Common ALU epilogue: one latency charge, one register write, fall
    /// through to the next instruction.
    #[inline(always)]
    fn alu_write(&mut self, d: u8, v: u64) {
        self.charge(self.model.lat.alu);
        self.set_rv(d, v);
        self.pc += INST_SIZE;
    }

    /// Executes one committed instruction (handling any fault it raises).
    /// Returns `Some(stop)` when the machine should stop.
    ///
    /// This is the decoded-dispatch fast path: one indexed fetch from the
    /// pre-decoded stream, a jump-table `match` on the dense [`Op`] tag,
    /// with faults and the rare system instructions out-of-line behind
    /// `#[cold]` helpers. The original `Inst`-matching interpreter is
    /// preserved in [`crate::reference`] as the semantics oracle; property
    /// tests pin the two equal on every counter.
    pub fn step(&mut self, env: &mut dyn Env) -> Result<Option<Stop>, SimError> {
        let pc = self.pc;
        let d = match self.code.fetch_decoded(pc, &mut self.seg_hint) {
            Some(d) => d,
            None => return Err(SimError::BadFetch { addr: pc }),
        };
        self.insts += 1;
        self.pmc.incr(Pmc::Instructions);
        if let Some(t) = &mut self.tracer {
            t.record(TraceRecord {
                pc,
                cycles: self.cycles,
                mode: self.mode,
                mnemonic: d.op.mnemonic(),
            });
        }

        // Privilege check first: privileged instructions fault in user
        // mode. The bit was precomputed at decode time.
        if self.mode == PrivMode::User && d.is_privileged() {
            self.user_privilege_fault(pc)?;
            return Ok(None);
        }

        let lfence_shadow = std::mem::take(&mut self.lfence_shadow);

        match d.op {
            Op::Nop | Op::Pause => {
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Op::Halt => {
                self.charge(self.model.lat.alu);
                // Advance past the halt so callers can resume execution
                // at the following instruction (checkpoint pattern).
                self.pc += INST_SIZE;
                return Ok(Some(Stop::Halted));
            }
            Op::Vmcall => {
                // Guest-visible exit cost; host adds its handling time.
                self.charge(self.model.lat.vmexit);
                self.pc += INST_SIZE;
                return Ok(Some(Stop::Vmcall));
            }
            Op::Host => {
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
                env.host_call(self, d.imm as u16)?;
            }

            Op::MovImm => self.alu_write(d.a, d.imm),
            Op::Mov => self.alu_write(d.a, self.rv(d.b)),
            Op::Add => self.alu_write(d.a, self.rv(d.a).wrapping_add(self.rv(d.b))),
            Op::AddImm => self.alu_write(d.a, self.rv(d.a).wrapping_add(d.imm)),
            Op::Sub => self.alu_write(d.a, self.rv(d.a).wrapping_sub(self.rv(d.b))),
            Op::SubImm => self.alu_write(d.a, self.rv(d.a).wrapping_sub(d.imm)),
            Op::Mul => {
                self.charge(2); // multiply is slightly slower than simple ALU
                let v = self.rv(d.a).wrapping_mul(self.rv(d.b));
                self.set_rv(d.a, v);
                self.pc += INST_SIZE;
            }
            Op::Div => {
                let divisor = self.rv(d.b);
                if divisor == 0 {
                    self.deliver_fault(Fault::DivideError, pc)?;
                    return Ok(None);
                }
                let div_lat = self.model.lat.div;
                self.charge(div_lat);
                self.pmc.add(Pmc::DividerActive, div_lat);
                let v = self.rv(d.a) / divisor;
                self.set_rv(d.a, v);
                self.pc += INST_SIZE;
            }
            Op::And => self.alu_write(d.a, self.rv(d.a) & self.rv(d.b)),
            Op::AndImm => self.alu_write(d.a, self.rv(d.a) & d.imm),
            Op::Or => self.alu_write(d.a, self.rv(d.a) | self.rv(d.b)),
            Op::Xor => self.alu_write(d.a, self.rv(d.a) ^ self.rv(d.b)),
            Op::XorImm => self.alu_write(d.a, self.rv(d.a) ^ d.imm),
            Op::Shl => self.alu_write(d.a, self.rv(d.a) << (d.b & 63)),
            Op::Shr => self.alu_write(d.a, self.rv(d.a) >> (d.b & 63)),
            Op::Not => self.alu_write(d.a, !self.rv(d.a)),

            Op::Load => {
                let width = Width::from_index((d.c & 3) as usize);
                let vaddr = self.rv(d.b).wrapping_add(d.imm);
                match self.read_virt(vaddr, width) {
                    Ok(v) => {
                        self.set_rv(d.a, v);
                        // Speculative Store Bypass: if the load *forwarded*
                        // from an in-flight store, a vulnerable part may
                        // first have run ahead with the stale value.
                        self.maybe_ssb_window(
                            vaddr,
                            width,
                            Reg::from_index((d.a & 15) as usize),
                            pc + INST_SIZE,
                        );
                        self.pc += INST_SIZE;
                    }
                    Err(fault) => self.load_fault(fault, pc, vaddr, width, d.a)?,
                }
            }
            Op::Store => {
                let width = Width::from_index((d.c & 3) as usize);
                let vaddr = self.rv(d.b).wrapping_add(d.imm);
                let value = self.rv(d.a);
                match self.write_virt(vaddr, value, width) {
                    Ok(()) => self.pc += INST_SIZE,
                    Err(fault) => self.deliver_fault(fault, pc)?,
                }
            }

            Op::Cmp => {
                self.flags = Flags::compare(self.rv(d.a), self.rv(d.b));
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Op::CmpImm => {
                self.flags = Flags::compare(self.rv(d.a), d.imm);
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }
            Op::Test => {
                let v = self.rv(d.a) & self.rv(d.b);
                self.flags = Flags { zero: v == 0, carry: false, sign: (v as i64) < 0, overflow: false };
                self.charge(self.model.lat.alu);
                self.pc += INST_SIZE;
            }

            Op::Jcc => {
                self.charge(self.model.lat.alu);
                let target = d.imm;
                let taken = self.flags.eval(Cond::from_index(d.c as usize));
                let predicted_taken = self.cond_pred.predict(pc, &self.bhb);
                if predicted_taken != taken {
                    let wrong_path = if predicted_taken { target } else { pc + INST_SIZE };
                    self.mispredict_window(wrong_path);
                }
                self.cond_pred.update(pc, &self.bhb, taken);
                if taken {
                    self.bhb.record(pc, target);
                    self.pc = target;
                } else {
                    self.pc += INST_SIZE;
                }
            }
            Op::Jmp => {
                self.charge(self.model.lat.alu);
                self.bhb.record(pc, d.imm);
                self.pc = d.imm;
            }
            Op::JmpInd => {
                let target = self.rv(d.a);
                self.indirect_branch(pc, target, lfence_shadow);
                self.pc = target;
            }
            Op::Call => {
                self.charge(self.model.lat.alu);
                self.push_stack(pc + INST_SIZE)?;
                self.rsb.push(pc + INST_SIZE);
                self.bhb.record(pc, d.imm);
                self.pc = d.imm;
            }
            Op::CallInd => {
                let target = self.rv(d.a);
                self.indirect_branch(pc, target, lfence_shadow);
                self.push_stack(pc + INST_SIZE)?;
                self.rsb.push(pc + INST_SIZE);
                self.pc = target;
            }
            Op::Ret => {
                self.charge(self.model.lat.alu);
                let actual = self.pop_stack()?;
                let predicted = self.rsb.pop();
                match predicted {
                    Some(p) if p == actual => {}
                    Some(p) => {
                        // RSB mispredict: speculation goes to the stale RSB
                        // entry. This is both the retpoline capture (by
                        // design) and the SpectreRSB vector.
                        self.charge(self.model.lat.ret_mispredict);
                        transient::run_window(self, TransientStart::WrongPath { pc: p });
                    }
                    None => {
                        // RSB underflow: newer parts fall back to the BTB.
                        self.charge(self.model.lat.ret_mispredict);
                        if let Some(p) = self.predict_indirect(pc) {
                            if p != actual {
                                transient::run_window(self, TransientStart::WrongPath { pc: p });
                            }
                        }
                    }
                }
                self.bhb.record(pc, actual);
                self.pc = actual;
            }

            Op::Cmov => {
                // Conditional moves are cheap to execute but sit on the
                // dependency chain of whatever consumes the result — for
                // index masking, the following load cannot begin until the
                // flags and both inputs resolve. The extra cycles model
                // that serialization (the real cost of the mitigation,
                // §5.4).
                let v = self.rv(d.b);
                let take = self.flags.eval(Cond::from_index(d.c as usize));
                self.charge(self.model.lat.alu + 3);
                if take {
                    self.set_rv(d.a, v);
                }
                self.pc += INST_SIZE;
            }
            Op::CmovImm => {
                let take = self.flags.eval(Cond::from_index(d.c as usize));
                self.charge(self.model.lat.alu + 3);
                if take {
                    self.set_rv(d.a, d.imm);
                }
                self.pc += INST_SIZE;
            }

            Op::Lfence => {
                // On Intel, `lfence` only waits for in-flight loads: with
                // nothing outstanding (e.g. right after `swapgs` on kernel
                // entry) it is nearly free — which is why the paper found
                // no measurable LEBench impact from the Spectre V1 kernel
                // mitigation (§4.6). On AMD it is dispatch-serializing (as
                // Linux configures it), so the full cost always applies.
                let loads_in_flight = self.cycles.saturating_sub(self.last_load_cycle) < 20;
                let cost = if self.model.vendor == Vendor::Amd || loads_in_flight {
                    self.model.lat.lfence
                } else {
                    2
                };
                self.charge(cost);
                if self.model.vendor == Vendor::Amd {
                    // The next indirect branch will not speculate.
                    self.lfence_shadow = true;
                }
                self.pc += INST_SIZE;
            }
            Op::Mfence | Op::Sfence => {
                self.charge(self.model.lat.lfence + 10);
                self.store_buffer.flush();
                self.pc += INST_SIZE;
            }
            Op::Clflush => {
                let vaddr = self.rv(d.a);
                self.charge(self.model.lat.l1_hit + 8);
                let user = self.mode == PrivMode::User;
                if let Ok(tr) = self.mmu.translate(vaddr, Access::Read, user) {
                    self.l1d.flush_line(tr.paddr);
                }
                self.pc += INST_SIZE;
            }

            Op::Rdtsc => {
                self.charge(15);
                let c = self.cycles;
                self.set_rv(d.a, c);
                self.pc += INST_SIZE;
            }
            Op::Rdpmc => {
                self.charge(20);
                let v = self.pmc.read(Pmc::from_index((d.b & 7) as usize));
                self.set_rv(d.a, v);
                self.pc += INST_SIZE;
            }
            Op::Wrmsr => self.exec_wrmsr(pc, d.imm as u32, d.a)?,
            Op::Rdmsr => self.exec_rdmsr(pc, d.imm as u32, d.a)?,

            Op::Syscall => {
                if self.mode == PrivMode::Kernel {
                    return Err(SimError::ModeViolation { what: "syscall from kernel mode" });
                }
                let entry = match self.syscall_entry {
                    Some(e) => e,
                    None => return Err(SimError::ModeViolation { what: "syscall with no entry" }),
                };
                self.charge(self.model.lat.syscall);
                // Return address convention: syscall leaves it in R11.
                self.set_reg(Reg::R11, pc + INST_SIZE);
                self.mode = PrivMode::Kernel;
                self.kernel_entry_side_effects();
                self.pc = entry;
            }
            Op::Sysret => {
                self.charge(self.model.lat.sysret);
                self.mode = PrivMode::User;
                self.pc = self.reg(Reg::R11);
            }
            Op::Swapgs => {
                self.charge(self.model.lat.alu + 2);
                self.swapgs_user = !self.swapgs_user;
                self.pc += INST_SIZE;
            }
            Op::Iret => {
                let frame = match self.fault_frame.take() {
                    Some(f) => f,
                    None => return Err(SimError::ModeViolation { what: "iret with no frame" }),
                };
                self.charge(self.model.lat.sysret + 20);
                self.mode = frame.prior_mode;
                self.pc = frame.resume_pc;
            }
            Op::MovCr3 => {
                let value = self.rv(d.a);
                self.charge(self.model.lat.swap_cr3);
                if !self.mmu.load_cr3(value) {
                    return Err(SimError::BadPageTable { cr3: value });
                }
                self.pc += INST_SIZE;
            }
            Op::Verw => {
                if self.model.spec.md_clear {
                    self.charge(self.model.lat.verw_clear);
                    self.fill_buffers.clear();
                } else {
                    self.charge(self.model.lat.verw_legacy);
                }
                self.pc += INST_SIZE;
            }
            Op::Invlpg => {
                let vaddr = self.rv(d.a);
                self.charge(120);
                self.mmu.flush_tlb_page(vaddr);
                self.pc += INST_SIZE;
            }

            Op::Fadd
            | Op::Fsub
            | Op::Fmul
            | Op::Fdiv
            | Op::FmovImm
            | Op::Fload
            | Op::Fstore
            | Op::FtoG => {
                if !self.fpu.enabled {
                    self.fp_disabled(d, pc)?;
                    return Ok(None);
                }
                if let Err(fault) = self.exec_fp_decoded(d) {
                    self.deliver_fault(fault, pc)?;
                    return Ok(None);
                }
                self.pc += INST_SIZE;
            }
            Op::Xsave => {
                let cost = if self.model.spec.xsaveopt {
                    self.model.lat.xsave
                } else {
                    self.model.lat.xsave * 2
                };
                self.charge(cost);
                self.pc += INST_SIZE;
            }
            Op::Xrstor => {
                self.charge(self.model.lat.xrstor);
                self.pc += INST_SIZE;
            }
        }
        Ok(None)
    }

    /// A privileged instruction fetched in user mode: `#GP`.
    #[cold]
    fn user_privilege_fault(&mut self, pc: u64) -> Result<(), SimError> {
        self.deliver_fault(Fault::GeneralProtection, pc)
    }

    /// A committed load faulted: its dependents execute transiently with
    /// whatever the vulnerability profile lets through (Meltdown / L1TF /
    /// MDS), then the fault is delivered.
    #[cold]
    fn load_fault(
        &mut self,
        fault: Fault,
        pc: u64,
        vaddr: u64,
        width: Width,
        dst: u8,
    ) -> Result<(), SimError> {
        transient::run_window(
            self,
            TransientStart::FaultingLoad {
                vaddr,
                width,
                dst: Reg::from_index((dst & 15) as usize),
                next_pc: pc + INST_SIZE,
            },
        );
        self.deliver_fault(fault, pc)
    }

    /// A conditional branch mispredicted: charge the penalty and run the
    /// wrong-path transient window.
    #[cold]
    fn mispredict_window(&mut self, wrong_path: u64) {
        self.charge(self.model.lat.mispredict_penalty);
        transient::run_window(self, TransientStart::WrongPath { pc: wrong_path });
    }

    #[cold]
    fn exec_wrmsr(&mut self, pc: u64, msr: u32, src: u8) -> Result<(), SimError> {
        let value = self.rv(src);
        let cost = if msr == crate::isa::msr_index::IA32_SPEC_CTRL {
            self.model.lat.wrmsr_spec_ctrl
        } else if msr == crate::isa::msr_index::IA32_PRED_CMD {
            self.model.lat.ibpb
        } else if msr == crate::isa::msr_index::IA32_FLUSH_CMD {
            self.model.lat.l1d_flush
        } else {
            100
        };
        match self.msrs.write(msr, value) {
            Ok(effect) => {
                self.charge(cost);
                match effect {
                    MsrEffect::None => {}
                    MsrEffect::Ibpb => self.btb.ibpb(),
                    MsrEffect::L1dFlush => self.l1d.flush_all(),
                }
                self.pc += INST_SIZE;
                Ok(())
            }
            Err(fault) => self.deliver_fault(fault, pc),
        }
    }

    #[cold]
    fn exec_rdmsr(&mut self, pc: u64, msr: u32, dst: u8) -> Result<(), SimError> {
        match self.msrs.read(msr) {
            Ok(v) => {
                self.charge(60);
                self.set_rv(dst, v);
                self.pc += INST_SIZE;
                Ok(())
            }
            Err(fault) => self.deliver_fault(fault, pc),
        }
    }

    /// An FP instruction trapped on a disabled FPU. LazyFP trap point:
    /// architecturally this faults, but on a vulnerable part the
    /// *transient* dependents still see the stale registers.
    #[cold]
    fn fp_disabled(&mut self, d: DecodedInst, pc: u64) -> Result<(), SimError> {
        if self.model.vuln.lazy_fp {
            transient::run_window(
                self,
                TransientStart::StaleFpu { inst: d, next_pc: pc + INST_SIZE },
            );
        }
        self.deliver_fault(Fault::DeviceNotAvailable, pc)
    }

    /// Executes an enabled-FPU floating point instruction (decoded form).
    fn exec_fp_decoded(&mut self, d: DecodedInst) -> Result<(), Fault> {
        let fa = (d.a & 7) as usize;
        let fb = (d.b & 7) as usize;
        match d.op {
            Op::Fadd => {
                self.charge(3);
                self.fpu.state.regs[fa] += self.fpu.state.regs[fb];
            }
            Op::Fsub => {
                self.charge(3);
                self.fpu.state.regs[fa] -= self.fpu.state.regs[fb];
            }
            Op::Fmul => {
                self.charge(4);
                self.fpu.state.regs[fa] *= self.fpu.state.regs[fb];
            }
            Op::Fdiv => {
                let lat = self.model.lat.div;
                self.charge(lat);
                self.pmc.add(Pmc::DividerActive, lat);
                self.fpu.state.regs[fa] /= self.fpu.state.regs[fb];
            }
            Op::FmovImm => {
                self.charge(self.model.lat.alu);
                self.fpu.state.regs[fa] = f64::from_bits(d.imm);
            }
            Op::Fload => {
                let vaddr = self.rv(d.b).wrapping_add(d.imm);
                let bits = self.read_virt(vaddr, Width::B8)?;
                self.fpu.state.regs[fa] = f64::from_bits(bits);
            }
            Op::Fstore => {
                let vaddr = self.rv(d.b).wrapping_add(d.imm);
                let bits = self.fpu.state.regs[fa].to_bits();
                self.write_virt(vaddr, bits, Width::B8)?;
            }
            Op::FtoG => {
                self.charge(self.model.lat.alu + 1);
                self.set_rv(d.a, self.fpu.state.regs[fb].to_bits());
            }
            // A non-FP opcode routed here is a dispatch bug in the caller;
            // surface it as an architectural #UD instead of aborting the
            // whole process.
            _ => return Err(Fault::InvalidOpcode),
        }
        Ok(())
    }

    /// Kernel-entry side effects shared by syscalls and faults: the
    /// eIBRS periodic flush (§6.2.2 bimodal latency).
    pub(crate) fn kernel_entry_side_effects(&mut self) {
        if self.model.spec.eibrs
            && self.ibrs_active()
            && self.model.spec.eibrs_flush_interval > 0
        {
            self.entry_counter += 1;
            if self.entry_counter.is_multiple_of(self.model.spec.eibrs_flush_interval) {
                self.charge(self.model.lat.eibrs_periodic_flush);
                self.btb.flush_mode(PrivMode::Kernel);
            }
        }
    }

    /// Committed indirect branch bookkeeping: prediction check, transient
    /// window on mispredict, BTB training, BHB update.
    pub(crate) fn indirect_branch(&mut self, pc: u64, actual: u64, lfence_shadow: bool) {
        if lfence_shadow {
            // AMD retpoline: the serializing lfence's wait overlaps the
            // branch's own target resolution, so the *net* extra cost of
            // the `lfence; jmp *r` pair over a bare indirect branch is
            // Table 5's "AMD" column, not the standalone lfence cost.
            let overlap =
                self.model.lat.lfence.saturating_sub(self.model.lat.amd_retpoline_extra);
            self.refund(overlap);
        }
        self.charge(self.model.lat.indirect_branch);
        let predicted = self.predict_indirect(pc);
        match predicted {
            Some(p) if p == actual => {}
            Some(p) => {
                self.charge(self.model.lat.indirect_mispredict);
                self.pmc.incr(Pmc::IndirectMispredict);
                if !lfence_shadow {
                    transient::run_window(self, TransientStart::WrongPath { pc: p });
                }
            }
            None => {
                // No usable prediction: static fall-through, always wrong
                // for a taken indirect branch.
                self.charge(self.model.lat.indirect_mispredict);
                self.pmc.incr(Pmc::IndirectMispredict);
            }
        }
        self.btb.train(pc, actual, self.mode, &self.bhb);
        self.bhb.record(pc, actual);
    }

    /// Opens the Speculative Store Bypass transient window when a committed
    /// load forwarded from an in-flight store on a vulnerable part: the
    /// load's dependents first ran ahead with the *stale* pre-store value.
    pub(crate) fn maybe_ssb_window(&mut self, vaddr: u64, width: Width, dst: Reg, next_pc: u64) {
        if let Some(stale) = self.ssb_stale(vaddr, width, dst) {
            transient::run_window(self, TransientStart::StoreBypass { stale, dst, next_pc });
        }
    }

    /// The gate of [`Machine::maybe_ssb_window`]: returns the stale
    /// bypassed value when the window should open, without opening it —
    /// so the batched run loop can flush its counters first.
    pub(crate) fn ssb_stale(&mut self, vaddr: u64, width: Width, dst: Reg) -> Option<u64> {
        if !self.model.vuln.ssb || self.ssbd_active() {
            return None;
        }
        let now = self.cycles;
        let stale = self.store_buffer.bypass_value(vaddr, width, now)?;
        if stale == self.reg(dst) {
            // Bypass world indistinguishable from the committed world.
            return None;
        }
        Some(stale)
    }

    /// Pushes a value on the simulated stack (SP convention register).
    pub(crate) fn push_stack(&mut self, value: u64) -> Result<(), SimError> {
        let sp = self.reg(Reg::SP).wrapping_sub(8);
        self.set_reg(Reg::SP, sp);
        match self.write_virt(sp, value, Width::B8) {
            Ok(()) => Ok(()),
            Err(_) => Err(SimError::ModeViolation { what: "stack push faulted" }),
        }
    }

    /// Pops a value from the simulated stack.
    pub(crate) fn pop_stack(&mut self) -> Result<u64, SimError> {
        let sp = self.reg(Reg::SP);
        let v = match self.read_virt(sp, Width::B8) {
            Ok(v) => v,
            Err(_) => return Err(SimError::ModeViolation { what: "stack pop faulted" }),
        };
        self.set_reg(Reg::SP, sp.wrapping_add(8));
        Ok(v)
    }

    /// Delivers a fault: saves a frame and vectors to the handler.
    #[cold]
    pub(crate) fn deliver_fault(&mut self, fault: Fault, faulting_pc: u64) -> Result<(), SimError> {
        let entry = match self.fault_vectors.entry_for(fault) {
            Some(e) => e,
            None => return Err(SimError::UnhandledFault { fault, at: faulting_pc }),
        };
        if self.fault_frame.is_some() {
            return Err(SimError::ModeViolation { what: "nested fault" });
        }
        // Exception entry is comparable to a syscall entry in cost.
        self.charge(self.model.lat.syscall + self.model.lat.kernel_entry_base);
        self.fault_frame = Some(FaultFrame {
            fault,
            faulting_pc,
            resume_pc: faulting_pc,
            prior_mode: self.mode,
        });
        self.mode = PrivMode::Kernel;
        self.kernel_entry_side_effects();
        self.pc = entry;
        Ok(())
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        // Publish any counter deltas a caller-driven `step` loop (or an
        // errored run) left unflushed.
        self.flush_global_counters();
    }
}
