//! `Machine::copy_from_virt` / `copy_to_virt` against the word loop they
//! replace.
//!
//! Two identically built machines run the same seeded sequence of
//! operations; one issues each copy as a bulk call, the other as the
//! committed word loop over `read_virt`/`write_virt` (8-byte-block
//! chunking, demand-map and resume), and after every operation every
//! observable must be equal: cycles, PMCs, L1D/L2 contents and LRU
//! stamps, TLB, store buffer, fill buffers, `last_load_cycle`, memory
//! bytes and frames, and what each copy returned. The sequences cover
//! unaligned heads and tails, page crossings, loads behind a non-empty
//! store buffer, SSBD on and off, demand-mapped and unmapped pages, and
//! Intel and AMD models.

use uarch::fault::{Fault, PageFaultKind};
use uarch::isa::{msr_index, spec_ctrl, Width};
use uarch::machine::Machine;
use uarch::mem::{PAGE_SHIFT, PAGE_SIZE};
use uarch::mmu::{make_cr3, PageTable, Pte};
use uarch::model::{CpuModel, Vendor};
use uarch::predictor::PrivMode;

/// Deterministic xorshift* PRNG (no external deps, stable across runs).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Base of the copy arena: eight pages, each with its own role.
const ARENA: u64 = 0x40_0000;
const ARENA_PAGES: u64 = 8;
/// Frames backing the arena (`FRAMES + page`), and the demand-mapped page.
const FRAMES: u64 = 0x100;
const DEMAND_FRAME: u64 = 0x200;
/// Page 3 is read-only, page 5 supervisor-only, page 6 demand-mapped on
/// first touch, page 7 unmapped for good.
const READ_ONLY: u64 = 3;
const SUPERVISOR: u64 = 5;
const DEMAND: u64 = 6;
const UNMAPPED: u64 = 7;

fn build(model: &CpuModel, ssbd: bool, user: bool, seed: u64) -> Machine {
    let mut m = Machine::new(model.clone());
    let mut pt = PageTable::new();
    for page in 0..ARENA_PAGES {
        let pte = Pte::user(FRAMES + page);
        let pte = match page {
            READ_ONLY => pte.read_only(),
            SUPERVISOR => Pte::kernel(FRAMES + page),
            DEMAND | UNMAPPED => continue,
            _ => pte,
        };
        pt.map(ARENA + page * PAGE_SIZE, pte);
    }
    let t = m.mmu.register_table(pt);
    assert!(m.mmu.load_cr3(make_cr3(t, 0, false)));
    if ssbd {
        m.msrs
            .write(msr_index::IA32_SPEC_CTRL, spec_ctrl::SSBD)
            .unwrap();
    }
    m.mode = if user {
        PrivMode::User
    } else {
        PrivMode::Kernel
    };
    // Random resident contents in all but two frames.
    let mut rng = Rng::new(seed ^ 0x5eed);
    for page in 0..ARENA_PAGES - 2 {
        let bytes: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next() as u8).collect();
        m.mem.write_bytes((FRAMES + page) << PAGE_SHIFT, &bytes);
    }
    m
}

/// Maps the demand page on its first not-mapped fault, as the kernel's
/// mmap regions do; any other fault stops the copy.
fn resume_after(m: &mut Machine, fault: Option<Fault>) -> bool {
    match fault {
        Some(Fault::Page {
            vaddr,
            kind: PageFaultKind::NotMapped,
            ..
        }) if (vaddr - ARENA) >> PAGE_SHIFT == DEMAND => {
            let table = m.mmu.current_table();
            m.mmu
                .table_mut(table)
                .unwrap()
                .map(vaddr, Pte::user(DEMAND_FRAME));
            true
        }
        _ => false,
    }
}

fn bulk_read(m: &mut Machine, addr: u64, len: usize) -> (Vec<u8>, Option<Fault>) {
    let mut out = vec![0; len];
    let mut done = 0;
    loop {
        let (n, fault) = m.copy_from_virt(addr + done as u64, &mut out[done..]);
        done += n;
        if !resume_after(m, fault) {
            out.truncate(done);
            return (out, fault);
        }
    }
}

fn bulk_write(m: &mut Machine, addr: u64, data: &[u8]) -> (usize, Option<Fault>) {
    let mut done = 0;
    loop {
        let (n, fault) = m.copy_to_virt(addr + done as u64, &data[done..]);
        done += n;
        if !resume_after(m, fault) {
            return (done, fault);
        }
    }
}

/// The width of the next word: the largest power of two that fits both
/// the bytes left and the rest of the 8-byte block.
fn width_at(addr: u64, end: u64) -> Width {
    match (end - addr).min(8 - (addr & 7)) {
        1 => Width::B1,
        2..=3 => Width::B2,
        4..=7 => Width::B4,
        _ => Width::B8,
    }
}

fn word_read(m: &mut Machine, addr: u64, len: usize) -> (Vec<u8>, Option<Fault>) {
    let mut out = Vec::new();
    let end = addr + len as u64;
    while (out.len() as u64) < len as u64 {
        let at = addr + out.len() as u64;
        let width = width_at(at, end);
        match m.read_virt(at, width) {
            Ok(v) => out.extend_from_slice(&v.to_le_bytes()[..width.bytes() as usize]),
            Err(f) if resume_after(m, Some(f)) => {}
            Err(f) => return (out, Some(f)),
        }
    }
    (out, None)
}

fn word_write(m: &mut Machine, addr: u64, data: &[u8]) -> (usize, Option<Fault>) {
    let end = addr + data.len() as u64;
    let mut done = 0;
    while done < data.len() {
        let at = addr + done as u64;
        let width = width_at(at, end);
        let n = width.bytes() as usize;
        let mut bytes = [0u8; 8];
        bytes[..n].copy_from_slice(&data[done..done + n]);
        match m.write_virt(at, u64::from_le_bytes(bytes), width) {
            Ok(()) => done += n,
            Err(f) if resume_after(m, Some(f)) => {}
            Err(f) => return (done, Some(f)),
        }
    }
    (done, None)
}

fn assert_same(a: &Machine, b: &Machine, ctx: &str) {
    assert_eq!(a.cycles(), b.cycles(), "{ctx}: cycles");
    assert_eq!(a.pmc, b.pmc, "{ctx}: PMCs");
    assert_eq!(
        a.last_load_cycle(),
        b.last_load_cycle(),
        "{ctx}: last_load_cycle"
    );
    assert_eq!(a.store_buffer, b.store_buffer, "{ctx}: store buffer");
    assert_eq!(a.fill_buffers, b.fill_buffers, "{ctx}: fill buffers");
    // The rest print kilobytes on mismatch; name the part instead.
    assert!(a.l1d == b.l1d, "{ctx}: L1D contents or LRU stamps");
    assert!(a.l2 == b.l2, "{ctx}: L2 contents or LRU stamps");
    assert!(a.mmu == b.mmu, "{ctx}: TLB or page tables");
    assert!(a.mem == b.mem, "{ctx}: memory bytes, frames or frame cache");
}

/// A copy range: unaligned start and length, biased to short copies but
/// often crossing one or two page boundaries.
fn range(rng: &mut Rng) -> (u64, usize) {
    let addr = ARENA + rng.below(ARENA_PAGES * PAGE_SIZE);
    let len = match rng.below(4) {
        0 => rng.below(24),
        1 => rng.below(600),
        _ => rng.below(2 * PAGE_SIZE + 300),
    };
    (
        addr,
        (len as usize).min((ARENA + ARENA_PAGES * PAGE_SIZE - addr) as usize),
    )
}

#[derive(Default)]
struct Coverage {
    reads_behind_stores: u64,
    demand_maps: u64,
    stopped_by_fault: u64,
    page_crossings: u64,
}

fn run_sequence(model: &CpuModel, ssbd: bool, user: bool, seed: u64, cov: &mut Coverage) {
    let mut a = build(model, ssbd, user, seed);
    let mut b = build(model, ssbd, user, seed);
    assert_same(&a, &b, "initial");
    let demand_mapped = |m: &Machine| {
        let table = m.mmu.table(m.mmu.current_table()).unwrap();
        table.lookup(ARENA + DEMAND * PAGE_SIZE).is_some()
    };
    let mut rng = Rng::new(seed);
    for step in 0..40 {
        let ctx = format!(
            "{} ssbd={ssbd} user={user} seed={seed} step={step}",
            model.name
        );
        match rng.below(10) {
            0..=3 => {
                let (addr, len) = range(&mut rng);
                cov.reads_behind_stores += u64::from(!a.store_buffer.is_empty());
                cov.page_crossings +=
                    u64::from((addr + len as u64 - 1) / PAGE_SIZE > addr / PAGE_SIZE);
                let got = bulk_read(&mut a, addr, len);
                let want = word_read(&mut b, addr, len);
                assert_eq!(got, want, "{ctx}: read {addr:#x}+{len}");
                cov.stopped_by_fault += u64::from(got.1.is_some());
            }
            4..=7 => {
                let (addr, len) = range(&mut rng);
                let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
                let got = bulk_write(&mut a, addr, &data);
                let want = word_write(&mut b, addr, &data);
                assert_eq!(got, want, "{ctx}: write {addr:#x}+{len}");
                cov.stopped_by_fault += u64::from(got.1.is_some());
            }
            8 => {
                // A lone committed store, often right where the next read
                // lands, so reads start behind a live store buffer.
                let addr = (ARENA + rng.below(3 * PAGE_SIZE)) & !7;
                let v = rng.next();
                assert_eq!(
                    a.write_virt(addr, v, Width::B8),
                    b.write_virt(addr, v, Width::B8)
                );
            }
            _ => {
                // Let time pass (stores drain or stay in flight), and
                // sometimes flush a cache or the TLB.
                let c = rng.below(120);
                a.charge(c);
                b.charge(c);
                match rng.below(4) {
                    0 => {
                        a.l1d.flush_all();
                        b.l1d.flush_all();
                    }
                    1 => {
                        a.mmu.flush_tlb_all();
                        b.mmu.flush_tlb_all();
                    }
                    _ => {}
                }
            }
        }
        assert_same(&a, &b, &ctx);
    }
    cov.demand_maps += u64::from(demand_mapped(&a));
}

#[test]
fn bulk_copies_match_the_word_loop_on_every_observable() {
    let models: Vec<CpuModel> = cpu_models::all_models()
        .into_iter()
        .filter(|m| m.vendor == Vendor::Intel || m.vendor == Vendor::Amd)
        .collect();
    assert!(models.iter().any(|m| m.vendor == Vendor::Intel));
    assert!(models.iter().any(|m| m.vendor == Vendor::Amd));
    let mut cov = Coverage::default();
    for (i, model) in models.iter().enumerate() {
        for ssbd in [false, true] {
            for seed in 0..6u64 {
                let seed = 1 + seed * 7919 + i as u64 * 104_729 + u64::from(ssbd);
                run_sequence(model, ssbd, seed.is_multiple_of(3), seed, &mut cov);
            }
        }
    }
    assert!(
        cov.reads_behind_stores > 0,
        "no read started behind a live store buffer"
    );
    assert!(cov.demand_maps > 0, "no copy demand-mapped a page");
    assert!(cov.stopped_by_fault > 0, "no copy stopped at a fault");
    assert!(cov.page_crossings > 0, "no copy crossed a page");
}
