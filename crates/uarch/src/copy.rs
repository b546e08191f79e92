//! Bulk committed copies between a kernel buffer and virtual memory.
//!
//! `copy_from_user`/`copy_to_user` move data as a run of committed
//! word-sized loads or stores (see [`words`]). Issued one at a time through
//! [`Machine::read_virt`]/[`Machine::write_virt`], every word pays the full
//! per-access cost, yet the model's state changes only once per page
//! (translation) and once per line (cache fill). The entry points here do
//! that work once per page and once per line and leave every observable
//! exactly as the word loop would: cycles, PMCs, L1D/L2 contents and LRU
//! stamps, TLB, store buffer, fill buffers, `last_load_cycle` and memory
//! bytes. `tests/bulk_copy.rs` pins the equivalence against the word loop.

use crate::cache::CacheOutcome;
use crate::fault::Fault;
use crate::isa::{Pmc, Width};
use crate::machine::Machine;
use crate::mem::{page_offset, LINE_SIZE, PAGE_SIZE};
use crate::mmu::Access;
use crate::predictor::PrivMode;
use crate::{fill_buffer, store_buffer};

/// The word accesses a copy of `[addr, end)` makes, in order. The part of
/// the range inside each 8-byte-aligned block splits greedily into
/// descending powers of two, so no access crosses an 8-byte (hence line or
/// page) boundary, and the split from any word boundary on does not depend
/// on where the copy started.
fn words(addr: u64, end: u64) -> impl Iterator<Item = (u64, Width)> {
    let mut at = addr;
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let width = match (end - at).min(8 - (at & 7)) {
            1 => Width::B1,
            2..=3 => Width::B2,
            4..=7 => Width::B4,
            _ => Width::B8,
        };
        let word = (at, width);
        at += width.bytes();
        Some(word)
    })
}

/// How many words [`words`] yields for `[addr, end)`: a piece of `n`
/// bytes inside one 8-byte block splits into `popcount(n)` words.
fn word_count(addr: u64, end: u64) -> u64 {
    let head_end = ((addr + 7) & !7).min(end);
    let tail_start = (end & !7).max(head_end);
    u64::from((head_end - addr).count_ones())
        + (tail_start - head_end) / 8
        + u64::from((end - tail_start).count_ones())
}

/// The last `n` (≥ 1) words of `[addr, end)`, with their index in the
/// whole run. Every 8-byte block holds at least one word, so they lie in
/// the last `n` blocks, and a block boundary is a word boundary.
fn last_words(addr: u64, end: u64, n: usize) -> impl Iterator<Item = (u64, (u64, Width))> {
    let from = ((end - 1) & !7)
        .saturating_sub(8 * (n as u64 - 1))
        .max(addr);
    let before = word_count(addr, from);
    let skip = word_count(from, end).saturating_sub(n as u64);
    (before + skip..).zip(words(from, end).skip(skip as usize))
}

/// The cache lines `[addr, end)` touches, each with how many of the
/// copy's words fall in it.
fn lines(addr: u64, end: u64) -> impl Iterator<Item = (u64, u64)> {
    let mut at = addr;
    std::iter::from_fn(move || {
        if at >= end {
            return None;
        }
        let line_end = ((at | (LINE_SIZE - 1)) + 1).min(end);
        let line = (at, word_count(at, line_end));
        at = line_end;
        Some(line)
    })
}

/// The little-endian value of a word's bytes (zero-extended).
fn le_value(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |v, b| (v << 8) | u64::from(*b))
}

impl Machine {
    /// Records the values of the youngest `fill_buffer::CAPACITY` words
    /// of a page's run, `bytes` being the run's data from `va` on.
    fn record_fill_tail(&mut self, va: u64, bytes: &[u8]) {
        for (_, (addr, width)) in last_words(va, va + bytes.len() as u64, fill_buffer::CAPACITY) {
            let at = (addr - va) as usize;
            self.fill_buffers
                .record(le_value(&bytes[at..at + width.bytes() as usize]));
        }
    }

    /// Copies `out.len()` bytes from virtual memory at `vaddr` as the run
    /// of committed loads `words` describes, each with
    /// [`Machine::read_virt`]'s exact effects. Returns how many bytes were
    /// copied and, if the copy stopped early, the fault the next word
    /// raised; `out` holds the copied prefix.
    ///
    /// Loads issued while the store buffer holds entries take the word
    /// path: forwarding, partial overlap and SSBD stalls depend on each
    /// one. Loads never push, so once the buffer drains it stays empty and
    /// the rest of the copy runs a page at a time.
    pub fn copy_from_virt(&mut self, vaddr: u64, out: &mut [u8]) -> (usize, Option<Fault>) {
        let end = vaddr + out.len() as u64;
        let mut done = 0usize;
        while !self.store_buffer.is_empty() {
            let Some((addr, width)) = words(vaddr + done as u64, end).next() else {
                return (done, None);
            };
            match self.read_virt(addr, width) {
                Ok(v) => {
                    let n = width.bytes() as usize;
                    out[done..done + n].copy_from_slice(&v.to_le_bytes()[..n]);
                    done += n;
                }
                Err(f) => return (done, Some(f)),
            }
        }
        let user = self.mode == PrivMode::User;
        let l1_hit = self.model.lat.l1_hit;
        while done < out.len() {
            let va = vaddr + done as u64;
            let n = (out.len() - done).min((PAGE_SIZE - page_offset(va)) as usize);
            let page_end = va + n as u64;
            let tr = match self.mmu.translate(va, Access::Read, user) {
                Ok(tr) => tr,
                Err(f) => return (done, Some(f)),
            };
            if !tr.tlb_hit {
                self.charge(self.model.lat.tlb_miss);
            }
            let mut cost = 0;
            for (line, k) in lines(va, page_end) {
                let paddr = tr.paddr + (line - va);
                cost += (k - 1) * l1_hit
                    + match self.l1d.access_run(paddr, k) {
                        CacheOutcome::Hit => l1_hit,
                        CacheOutcome::Miss => {
                            self.pmc.incr(Pmc::L1dMiss);
                            match self.l2.access(paddr) {
                                CacheOutcome::Hit => self.model.lat.l2_hit,
                                CacheOutcome::Miss => self.model.lat.l1_miss,
                            }
                        }
                    };
            }
            self.charge(cost);
            let bytes = &mut out[done..done + n];
            self.mem.read_into(tr.paddr, bytes);
            self.record_fill_tail(va, bytes);
            self.last_load_cycle = self.cycles;
            done += n;
        }
        (done, None)
    }

    /// Copies `data` into virtual memory at `vaddr` as the run of
    /// committed stores `words` describes, each with
    /// [`Machine::write_virt`]'s exact effects. Returns how many bytes were
    /// copied and, if the copy stopped early, the fault the next word
    /// raised.
    ///
    /// Only the youngest `store_buffer::CAPACITY` stores of a page can
    /// survive in the store buffer and only the youngest
    /// `fill_buffer::CAPACITY` values in the fill buffers, so only those
    /// are pushed; the buffer's address range still covers the whole run.
    pub fn copy_to_virt(&mut self, vaddr: u64, data: &[u8]) -> (usize, Option<Fault>) {
        let user = self.mode == PrivMode::User;
        let l1_hit = self.model.lat.l1_hit;
        let mut done = 0usize;
        while done < data.len() {
            let va = vaddr + done as u64;
            let n = (data.len() - done).min((PAGE_SIZE - page_offset(va)) as usize);
            let page_end = va + n as u64;
            let tr = match self.mmu.translate(va, Access::Write, user) {
                Ok(tr) => tr,
                Err(f) => return (done, Some(f)),
            };
            if !tr.tlb_hit {
                self.charge(self.model.lat.tlb_miss);
            }
            for (line, k) in lines(va, page_end) {
                let paddr = tr.paddr + (line - va);
                self.l1d.access_run(paddr, k);
                self.l2.access_run(paddr, k);
            }
            let bytes = &data[done..done + n];
            // The i-th store of the page issues after i + 1 issue charges.
            // Stale values must be read before the page is written.
            let base = self.cycles;
            for (i, (addr, width)) in last_words(va, page_end, store_buffer::CAPACITY) {
                let at = (addr - va) as usize;
                let value = le_value(&bytes[at..at + width.bytes() as usize]);
                let stale = self.mem.read(tr.paddr + at as u64, width);
                self.store_buffer
                    .push(addr, width, value, stale, base + (i + 1) * l1_hit);
            }
            self.store_buffer.cover(va, page_end);
            self.charge(word_count(va, page_end) * l1_hit);
            self.mem.write_bytes(tr.paddr, bytes);
            self.record_fill_tail(va, bytes);
            done += n;
        }
        (done, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_split_unaligned_runs_at_eight_byte_blocks() {
        let got: Vec<_> = words(1, 20).map(|(a, w)| (a, w.bytes())).collect();
        assert_eq!(got, [(1, 4), (5, 2), (7, 1), (8, 8), (16, 4)]);
        assert_eq!(words(5, 5).count(), 0);
    }

    #[test]
    fn word_count_and_last_words_agree_with_words() {
        for addr in 0..40u64 {
            for end in addr + 1..addr + 200 {
                let all: Vec<_> = words(addr, end).collect();
                assert_eq!(word_count(addr, end), all.len() as u64, "[{addr}, {end})");
                for n in [1, 3, 12, 48] {
                    let tail: Vec<_> = last_words(addr, end, n).collect();
                    let skip = all.len().saturating_sub(n);
                    let want: Vec<_> = (skip as u64..).zip(all[skip..].iter().copied()).collect();
                    assert_eq!(tail, want, "[{addr}, {end}) n={n}");
                }
            }
        }
    }
}
