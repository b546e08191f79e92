//! Integration tests: the simulated kernel's process, memory, and
//! scheduling behaviour, and the coupling between kernel mitigations and
//! attack outcomes (PTI vs Meltdown, verw vs MDS, seccomp vs SSBD).

use cpu_models::{broadwell, cascade_lake, zen2};
use sim_kernel::abi::nr;
use sim_kernel::userlib::{self, begin_loop, emit_exit, emit_syscall, end_loop};
use sim_kernel::{BootParams, Kernel, ProcState, SpectreV2Mode};
use uarch::isa::{Cond, Inst, Reg, Width};
use uarch::machine::Stop;
use uarch::isa::spec_ctrl;

const BUDGET: u64 = 50_000_000;

#[test]
fn getpid_returns_pid_and_preserves_registers() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let pid = k.spawn(|b| {
        b.mov_imm(Reg::R5, 0x1234_5678); // must survive the syscall
        b.mov_imm(Reg::R12, 0x9abc_def0); // must survive despite PTI
        userlib::emit_getpid(b);
        // Stash results in the data arena for inspection.
        b.mov_imm(Reg::R4, userlib::data_base());
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 0, width: Width::B8 });
        b.push(Inst::Store { src: Reg::R5, base: Reg::R4, offset: 8, width: Width::B8 });
        b.push(Inst::Store { src: Reg::R12, base: Reg::R4, offset: 16, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let out = k.peek_user_data(pid, 0, 24);
    assert_eq!(u64::from_le_bytes(out[0..8].try_into().unwrap()), pid);
    assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 0x1234_5678);
    assert_eq!(u64::from_le_bytes(out[16..24].try_into().unwrap()), 0x9abc_def0);
}

#[test]
fn file_write_then_read_round_trips() {
    let mut k = Kernel::boot(cascade_lake(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        // creat() -> fd in R0
        emit_syscall(b, nr::CREAT);
        b.push(Inst::Mov(Reg::R7, Reg::R0)); // fd
        // write(fd, data, 64)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 64);
        emit_syscall(b, nr::WRITE);
        // lseek(fd, 0)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, 0);
        emit_syscall(b, nr::LSEEK);
        // read(fd, data+4096, 64)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, data + 4096);
        b.mov_imm(Reg::R3, 64);
        emit_syscall(b, nr::READ);
        emit_exit(b);
    });
    k.poke_user_data(pid, 0, b"The quick brown fox jumps over the lazy dog. 0123456789ABCDEF..");
    k.start();
    k.run(BUDGET).unwrap();
    let round = k.peek_user_data(pid, 4096, 64);
    assert_eq!(&round[..44], b"The quick brown fox jumps over the lazy dog.");
}

#[test]
fn pipe_ping_pong_context_switches() {
    // Parent forks; parent writes to pipe A and blocks reading pipe B;
    // child reads A and writes B; N rounds. This is LEBench's context
    // switch benchmark shape.
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    let data = userlib::data_base();
    let rounds = 8u64;
    k.spawn(move |b| {
        let child = b.new_label();
        let done = b.new_label();
        // pipe() twice: A (fds 0,1), B (fds 2,3).
        emit_syscall(b, nr::PIPE);
        emit_syscall(b, nr::PIPE);
        // fork()
        emit_syscall(b, nr::FORK);
        b.cmp_imm(Reg::R0, 0);
        b.jcc(Cond::Eq, child);

        // Parent: loop { write(A.w=1), read(B.r=2) }.
        let top = begin_loop(b, Reg::R6, rounds);
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        b.mov_imm(Reg::R1, 2);
        b.mov_imm(Reg::R2, data + 64);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        end_loop(b, Reg::R6, top);
        b.jmp(done);

        // Child: loop { read(A.r=0), write(B.w=3) }.
        b.bind(child);
        let ctop = begin_loop(b, Reg::R6, rounds);
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, data + 128);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        b.mov_imm(Reg::R1, 3);
        b.mov_imm(Reg::R2, data + 192);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        end_loop(b, Reg::R6, ctop);

        b.bind(done);
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    assert!(
        k.state.stats.ctx_switches >= rounds,
        "ping-pong must context switch every round: {} switches",
        k.state.stats.ctx_switches
    );
    assert_eq!(k.state.stats.forks, 1);
    // Default IBPB policy is conditional: plain tasks get no barrier.
    assert_eq!(k.state.stats.ibpbs, 0);
}

#[test]
fn forked_child_data_pages_byte_equal_the_parents() {
    // fork() copies each mapped page frame by frame; the child's data
    // arena must come out byte-equal, untouched pages (zeros) included.
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    let pid_slot = 200 * 4096;
    let pid = k.spawn(move |b| {
        emit_syscall(b, nr::FORK);
        // Each side records fork's return past the compared pages.
        b.mov_imm(Reg::R4, userlib::data_base() + pid_slot);
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 0, width: Width::B8 });
        emit_exit(b);
    });
    let pattern: Vec<u8> = (0..3 * 4096 + 100).map(|i| (i * 7 + 3) as u8).collect();
    k.poke_user_data(pid, 2000, &pattern);
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    assert_eq!(k.state.stats.forks, 1);
    let child = u64::from_le_bytes(k.peek_user_data(pid, pid_slot, 8).try_into().unwrap());
    assert_ne!(child, 0, "the parent sees the child's pid");
    let parent_pages = k.peek_user_data(pid, 0, 6 * 4096);
    assert_eq!(&parent_pages[2000..2000 + pattern.len()], &pattern[..]);
    assert!(k.peek_user_data(child, 0, 6 * 4096) == parent_pages, "child pages differ");
}

#[test]
fn ibpb_not_issued_with_nospectre_v2() {
    let mut k = Kernel::boot(zen2(), &BootParams::parse("nospectre_v2"));
    k.spawn(|b| {
        emit_syscall(b, nr::PIPE);
        emit_syscall(b, nr::FORK);
        b.cmp_imm(Reg::R0, 0);
        let child = b.new_label();
        b.jcc(Cond::Eq, child);
        // Parent writes so the child can read, then exits.
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, userlib::data_base());
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        emit_exit(b);
        b.bind(child);
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, userlib::data_base() + 64);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert!(k.state.stats.ctx_switches > 0);
    assert_eq!(k.state.stats.ibpbs, 0);
}

#[test]
fn seccomp_task_gets_ibpb_on_switches() {
    // Conditional IBPB: a hardened (seccomp) task is isolated from its
    // neighbours with a barrier on every switch involving it.
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        for _ in 0..4 {
            emit_syscall(b, nr::YIELD);
        }
        emit_exit(b);
    });
    k.spawn(|b| {
        for _ in 0..4 {
            emit_syscall(b, nr::YIELD);
        }
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert!(k.state.stats.ctx_switches >= 4);
    assert!(
        k.state.stats.ibpbs >= 4,
        "switches around a seccomp task must IBPB: {}",
        k.state.stats.ibpbs
    );
}

#[test]
fn mmap_demand_paging_faults_once_per_page() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let pages = 16u64;
    k.spawn(move |b| {
        b.mov_imm(Reg::R1, pages * 4096);
        emit_syscall(b, nr::MMAP);
        b.push(Inst::Mov(Reg::R7, Reg::R0)); // base
        // Touch each page twice; only the first touch faults.
        for round in 0..2 {
            let _ = round;
            let top = begin_loop(b, Reg::R6, pages);
            b.push(Inst::Store { src: Reg::R6, base: Reg::R7, offset: 0, width: Width::B8 });
            b.push(Inst::AddImm(Reg::R7, 4096));
            end_loop(b, Reg::R6, top);
            b.push(Inst::SubImm(Reg::R7, pages * 4096));
        }
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert_eq!(k.state.stats.demand_faults, pages);
}

#[test]
fn munmap_unmaps_and_faults_kill_without_handler() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    k.spawn(|b| {
        b.mov_imm(Reg::R1, 4096);
        emit_syscall(b, nr::MMAP_POPULATE);
        b.push(Inst::Mov(Reg::R7, Reg::R0));
        // Touch: fine.
        b.push(Inst::Store { src: Reg::R7, base: Reg::R7, offset: 0, width: Width::B8 });
        // munmap, then touch again: SIGSEGV (process killed).
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, 4096);
        emit_syscall(b, nr::MUNMAP);
        b.push(Inst::Store { src: Reg::R7, base: Reg::R7, offset: 0, width: Width::B8 });
        // Should never get here.
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let pid = 1;
    assert_eq!(k.process(pid).unwrap().state, ProcState::Exited);
    // Exactly one syscall round for mmap + munmap + 0 exits: the store
    // after munmap killed it, so the final `exit` never ran.
    assert!(k.state.stats.syscalls >= 2);
}

#[test]
fn select_counts_ready_fds() {
    let mut k = Kernel::boot(cascade_lake(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        emit_syscall(b, nr::PIPE); // fds 0 (r), 1 (w)
        emit_syscall(b, nr::CREAT); // fd 2
        // select(3): pipe-read not ready, pipe-write ready, file ready = 2.
        b.mov_imm(Reg::R1, 3);
        emit_syscall(b, nr::SELECT);
        b.mov_imm(Reg::R4, data);
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 0, width: Width::B8 });
        // Write to the pipe, select again: 3 ready.
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        b.mov_imm(Reg::R1, 3);
        emit_syscall(b, nr::SELECT);
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 8, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    let out = k.peek_user_data(pid, 0, 16);
    assert_eq!(u64::from_le_bytes(out[0..8].try_into().unwrap()), 2);
    assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 3);
}

#[test]
fn seccomp_enables_ssbd_under_default_policy() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        // Spin a little so we can observe the MSR while running.
        let top = begin_loop(b, Reg::R6, 4);
        b.push(Inst::Nop);
        end_loop(b, Reg::R6, top);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    // After the seccomp syscall the SSBD bit must have been set; it is
    // still set at halt since no other process ran.
    assert_ne!(k.machine.msrs.spec_ctrl() & spec_ctrl::SSBD, 0);
}

#[test]
fn seccomp_does_not_enable_ssbd_on_516_policy() {
    let mut k = Kernel::boot(
        broadwell(),
        &BootParams::parse("spec_store_bypass_disable=prctl"),
    );
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert_eq!(k.machine.msrs.spec_ctrl() & spec_ctrl::SSBD, 0);
}

#[test]
fn eibrs_is_set_once_at_boot() {
    let k = Kernel::boot(cascade_lake(), &BootParams::default());
    assert_eq!(k.state.config.spectre_v2, SpectreV2Mode::Eibrs);
    assert_ne!(k.machine.msrs.spec_ctrl() & spec_ctrl::IBRS, 0);
    // And not on retpoline parts.
    let k = Kernel::boot(broadwell(), &BootParams::default());
    assert_eq!(k.machine.msrs.spec_ctrl() & spec_ctrl::IBRS, 0);
}

#[test]
fn pti_makes_syscalls_slower() {
    // The PTI attribution: identical workload, with and without `nopti`,
    // on a Meltdown-vulnerable part.
    let run = |cmdline: &str| -> u64 {
        let mut k = Kernel::boot(broadwell(), &BootParams::parse(cmdline));
        k.spawn(|b| {
            let top = begin_loop(b, Reg::R6, 200);
            userlib::emit_getpid(b);
            end_loop(b, Reg::R6, top);
            emit_exit(b);
        });
        k.start();
        k.run(BUDGET).unwrap();
        k.cycles()
    };
    let with_pti = run("");
    let without = run("nopti");
    let delta = with_pti.saturating_sub(without);
    // Two cr3 swaps per syscall at 206 cycles each, 200 iterations.
    assert!(
        delta > 200 * 2 * 150,
        "PTI must cost ~2 swaps/syscall: delta {delta}"
    );
}

#[test]
fn mds_verw_makes_syscalls_slower_only_when_vulnerable() {
    let run = |model: uarch::CpuModel, cmdline: &str| -> u64 {
        let mut k = Kernel::boot(model, &BootParams::parse(cmdline));
        k.spawn(|b| {
            let top = begin_loop(b, Reg::R6, 200);
            userlib::emit_getpid(b);
            end_loop(b, Reg::R6, top);
            emit_exit(b);
        });
        k.start();
        k.run(BUDGET).unwrap();
        k.cycles()
    };
    let skl_on = run(cpu_models::skylake_client(), "nopti"); // isolate MDS
    let skl_off = run(cpu_models::skylake_client(), "nopti mds=off");
    assert!(
        skl_on.saturating_sub(skl_off) > 200 * 400,
        "verw (~518 cycles) per syscall exit on Skylake"
    );
    // Ice Lake Server: not vulnerable, toggle is a no-op.
    let icx_on = run(cpu_models::ice_lake_server(), "");
    let icx_off = run(cpu_models::ice_lake_server(), "mds=off");
    let rel = (icx_on as f64 - icx_off as f64).abs() / icx_off as f64;
    assert!(rel < 0.01, "mds toggle must not matter on fixed hardware: {rel}");
}

#[test]
fn meltdown_through_kernel_blocked_by_pti() {
    // End-to-end: a user process tries to Meltdown-read kernel data.
    // Without PTI on Broadwell it succeeds; with PTI the kernel mapping
    // is simply absent in user mode.
    let leak = |cmdline: &str| -> Option<u8> {
        let mut k = Kernel::boot(broadwell(), &BootParams::parse(cmdline));
        let kdata = sim_kernel::layout::KERNEL_DATA_VADDR;
        // Plant a distinctive secret as the first kernel data byte.
        let secret_paddr = k.kernel_data_paddr();
        k.machine.mem.write_u8(secret_paddr, 0xA5);
        let probe = userlib::data_base() + 0x8000; // within the data arena
        k.spawn(move |b| {
            let done = b.new_label();
            b.lea(Reg::R13, done); // fault recovery address
            b.mov_imm(Reg::R1, kdata);
            b.mov_imm(Reg::R3, probe);
            b.push(Inst::Load { dst: Reg::R4, base: Reg::R1, offset: 0, width: Width::B1 });
            b.push(Inst::Shl(Reg::R4, 9));
            b.push(Inst::Add(Reg::R4, Reg::R3));
            b.push(Inst::Load { dst: Reg::R5, base: Reg::R4, offset: 0, width: Width::B1 });
            b.bind(done);
            emit_exit(b);
        });
        k.start();
        k.machine.l1d.flush_all();
        k.run(BUDGET).unwrap();
        // Readout: which probe line is hot?
        let mut hits = vec![];
        for i in 0..256u64 {
            let vaddr = probe + i * 512;
            // The data arena is identity-offset; find its frame via the
            // page table of process 1.
            let p = k.process(1).unwrap();
            let pte = k.machine.mmu.table(p.full_table).unwrap().lookup(vaddr).unwrap();
            let paddr = (pte.pfn << 12) | (vaddr & 0xfff);
            if k.machine.l1d.probe(paddr) {
                hits.push(i as u8);
            }
        }
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    };
    let without_pti = leak("nopti");
    let with_pti = leak("");
    // Without PTI: the supervisor mapping exists, Meltdown forwards the
    // planted secret byte to the probe.
    assert_eq!(without_pti, Some(0xA5), "Meltdown leaks through a mapped kernel page");
    // With PTI there is no mapping at all: the transient load cannot
    // target the secret (at worst it samples stale, untargeted fill-buffer
    // data), so the readout never recovers it.
    assert_ne!(with_pti, Some(0xA5), "PTI must remove the kernel mapping");
}

#[test]
fn thread_create_shares_address_space() {
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        let thread = b.new_label();
        let wait = b.new_label();
        b.lea(Reg::R1, thread);
        emit_syscall(b, nr::THREAD_CREATE);
        // Main: spin until the thread stores a flag.
        b.bind(wait);
        emit_syscall(b, nr::YIELD);
        b.mov_imm(Reg::R4, data);
        b.push(Inst::Load { dst: Reg::R5, base: Reg::R4, offset: 0, width: Width::B8 });
        b.cmp_imm(Reg::R5, 0x77);
        b.jcc(Cond::Ne, wait);
        emit_exit(b);
        // Thread body: store the flag, exit.
        b.bind(thread);
        b.mov_imm(Reg::R4, data);
        b.mov_imm(Reg::R5, 0x77);
        b.push(Inst::Store { src: Reg::R5, base: Reg::R4, offset: 0, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let out = k.peek_user_data(pid, 0, 8);
    assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 0x77);
}
