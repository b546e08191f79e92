//! Virtual memory: page tables, CR3, and a PCID-tagged TLB.
//!
//! The model is a single-level map from virtual page number to
//! [`Pte`] — the paper's mitigations care about *which* mappings exist in
//! which address space (PTI) and about PTE bit patterns (L1TF's non-present
//! entries), not about the radix-tree walk itself. The walk cost is charged
//! as a flat `tlb_miss` latency on a TLB miss.
//!
//! CR3 layout follows x86: bits 11:0 carry the PCID, bit 63 is the
//! "no-flush" bit, and the remaining bits identify the page table. With
//! PCID support, reloading CR3 with the no-flush bit set preserves TLB
//! entries tagged with other PCIDs — which is why PTI's TLB impact is
//! marginal next to the direct `mov %cr3` cost (paper §5.1).

use std::collections::HashMap;

use crate::fault::{Fault, PageFaultKind};
use crate::mem::{page_number, page_offset, PAGE_SHIFT};

/// A page table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte {
    /// Physical frame number.
    pub pfn: u64,
    /// Present bit. A clear present bit with a stale `pfn` is exactly the
    /// configuration L1TF exploits; PTE inversion avoids ever creating it.
    pub present: bool,
    /// User-accessible bit; clear means supervisor-only (Meltdown target).
    pub user: bool,
    /// Writable bit.
    pub writable: bool,
    /// No-execute bit.
    pub nx: bool,
}

impl Pte {
    /// A present, writable kernel (supervisor) mapping.
    pub fn kernel(pfn: u64) -> Pte {
        Pte { pfn, present: true, user: false, writable: true, nx: false }
    }

    /// A present, writable user mapping.
    pub fn user(pfn: u64) -> Pte {
        Pte { pfn, present: true, user: true, writable: true, nx: false }
    }

    /// A read-only variant of this PTE.
    pub fn read_only(mut self) -> Pte {
        self.writable = false;
        self
    }

    /// A non-present variant that *retains* its frame number — the unsafe
    /// pattern L1TF leaks through. [`Pte::inverted`] is the mitigation.
    pub fn non_present_stale(mut self) -> Pte {
        self.present = false;
        self
    }

    /// PTE inversion (the L1TF mitigation): non-present with the frame
    /// bits inverted so the stale address points outside cacheable memory.
    pub fn inverted(mut self) -> Pte {
        self.present = false;
        self.pfn = !self.pfn & 0x000f_ffff_ffff_ffff;
        self
    }
}

/// The access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// Identifier of a registered page table (the non-PCID bits of CR3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageTableId(pub u64);

/// CR3 no-flush bit.
pub const CR3_NOFLUSH: u64 = 1 << 63;
/// Mask of the PCID field in CR3.
pub const CR3_PCID_MASK: u64 = 0xfff;

/// Builds a CR3 value from a table id and PCID.
pub fn make_cr3(table: PageTableId, pcid: u16, noflush: bool) -> u64 {
    let mut v = (table.0 << PAGE_SHIFT) | (pcid as u64 & CR3_PCID_MASK);
    if noflush {
        v |= CR3_NOFLUSH;
    }
    v
}

/// Splits a CR3 value into (table id, pcid, noflush).
pub fn split_cr3(cr3: u64) -> (PageTableId, u16, bool) {
    let noflush = cr3 & CR3_NOFLUSH != 0;
    let pcid = (cr3 & CR3_PCID_MASK) as u16;
    let table = PageTableId((cr3 & !CR3_NOFLUSH) >> PAGE_SHIFT);
    (table, pcid, noflush)
}

/// A single page table: virtual page number → PTE.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PageTable {
    entries: HashMap<u64, Pte>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Maps the page containing `vaddr` with the given PTE.
    pub fn map(&mut self, vaddr: u64, pte: Pte) {
        self.entries.insert(page_number(vaddr), pte);
    }

    /// Maps `pages` consecutive pages starting at `vaddr`, identity-offset
    /// into consecutive frames starting at `pfn`.
    pub fn map_range(&mut self, vaddr: u64, pfn: u64, pages: u64, template: Pte) {
        for i in 0..pages {
            let mut pte = template;
            pte.pfn = pfn + i;
            self.entries.insert(page_number(vaddr) + i, pte);
        }
    }

    /// Removes the mapping for the page containing `vaddr`.
    pub fn unmap(&mut self, vaddr: u64) -> Option<Pte> {
        self.entries.remove(&page_number(vaddr))
    }

    /// Looks up the PTE for `vaddr`, mapped or not.
    pub fn lookup(&self, vaddr: u64) -> Option<Pte> {
        self.entries.get(&page_number(vaddr)).copied()
    }

    /// Number of entries (for diagnostics).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(vpn, pte)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, *v))
    }
}

/// A TLB entry.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TlbEntry {
    pcid: u16,
    vpn: u64,
    pte: Pte,
    /// Insertion stamp for FIFO eviction.
    stamp: u64,
}

/// Result of a translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical address.
    pub paddr: u64,
    /// Whether the TLB satisfied the lookup (no walk charged).
    pub tlb_hit: bool,
}

/// The outcome of a translation including the PTE, used by the transient
/// path which needs the stale frame number even on faults.
#[derive(Debug, Clone, Copy)]
pub struct WalkResult {
    /// The PTE found (if any mapping exists at all).
    pub pte: Option<Pte>,
    /// Whether the TLB satisfied the lookup.
    pub tlb_hit: bool,
}

/// The MMU: page-table registry, current CR3, and the TLB.
#[derive(Debug, PartialEq)]
pub struct Mmu {
    tables: HashMap<PageTableId, PageTable>,
    next_table: u64,
    /// Current CR3 (table id + PCID bits, no-flush bit excluded).
    cr3: u64,
    tlb: Vec<TlbEntry>,
    tlb_capacity: usize,
    stamp: u64,
    /// Last-translation micro-cache: `(pcid, vpn, pte)` of the most recent
    /// hit or fill. Hot loops touch the same page repeatedly, so this
    /// answers most walks without the linear TLB scan. Invariant: when
    /// `Some`, the entry is also live in `tlb` and is what
    /// [`Mmu::tlb_lookup`] would return — every TLB mutation clears or
    /// overwrites it — so hit/miss accounting is bit-identical.
    last: Option<(u16, u64, Pte)>,
    /// Whether PCID tagging is honoured (CPU + kernel enable it).
    pub pcid_enabled: bool,
    /// Count of full TLB flushes (diagnostics).
    pub flush_count: u64,
}

impl Mmu {
    /// Creates an MMU with the given TLB capacity.
    pub fn new(tlb_capacity: usize) -> Mmu {
        Mmu {
            tables: HashMap::new(),
            next_table: 1,
            cr3: 0,
            tlb: Vec::with_capacity(tlb_capacity),
            tlb_capacity,
            stamp: 0,
            last: None,
            pcid_enabled: false,
            flush_count: 0,
        }
    }

    /// Registers a new page table and returns its id.
    pub fn register_table(&mut self, table: PageTable) -> PageTableId {
        let id = PageTableId(self.next_table);
        self.next_table += 1;
        self.tables.insert(id, table);
        id
    }

    /// Mutable access to a registered table (e.g. for demand paging).
    pub fn table_mut(&mut self, id: PageTableId) -> Option<&mut PageTable> {
        self.tables.get_mut(&id)
    }

    /// Shared access to a registered table.
    pub fn table(&self, id: PageTableId) -> Option<&PageTable> {
        self.tables.get(&id)
    }

    /// The current CR3 value (without the transient no-flush bit).
    pub fn cr3(&self) -> u64 {
        self.cr3
    }

    /// The currently active page table id.
    pub fn current_table(&self) -> PageTableId {
        split_cr3(self.cr3).0
    }

    /// The current PCID.
    pub fn current_pcid(&self) -> u16 {
        split_cr3(self.cr3).1
    }

    /// Loads CR3. Returns `false` if the value names no registered table.
    ///
    /// Without PCID support (or without the no-flush bit) the whole TLB is
    /// flushed, which is the expensive part of PTI on pre-PCID parts.
    pub fn load_cr3(&mut self, value: u64) -> bool {
        let (table, _pcid, noflush) = split_cr3(value);
        if !self.tables.contains_key(&table) {
            return false;
        }
        self.cr3 = value & !CR3_NOFLUSH;
        if !(self.pcid_enabled && noflush) {
            self.flush_tlb_all();
        }
        true
    }

    /// Flushes the entire TLB.
    pub fn flush_tlb_all(&mut self) {
        self.tlb.clear();
        self.last = None;
        self.flush_count += 1;
    }

    /// Flushes the TLB entry for one virtual address in the current PCID.
    pub fn flush_tlb_page(&mut self, vaddr: u64) {
        let pcid = self.current_pcid();
        let vpn = page_number(vaddr);
        self.last = None;
        self.tlb.retain(|e| !(e.pcid == pcid && e.vpn == vpn));
    }

    fn tlb_lookup(&self, pcid: u16, vpn: u64) -> Option<Pte> {
        self.tlb
            .iter()
            .find(|e| e.vpn == vpn && (!self.pcid_enabled || e.pcid == pcid))
            .map(|e| e.pte)
    }

    fn tlb_insert(&mut self, pcid: u16, vpn: u64, pte: Pte) {
        self.stamp += 1;
        if self.tlb.len() >= self.tlb_capacity {
            // FIFO eviction: drop the oldest entry.
            if let Some((idx, _)) = self
                .tlb
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
            {
                self.tlb.swap_remove(idx);
            }
        }
        self.tlb.push(TlbEntry { pcid, vpn, pte, stamp: self.stamp });
        // The just-inserted entry is by construction live and youngest, so
        // it is always safe to cache (an eviction above cannot remove it).
        self.last = Some((pcid, vpn, pte));
    }

    /// Performs the page walk for `vaddr` in the current address space,
    /// consulting and filling the TLB, *without* permission checks.
    ///
    /// Used by both the committed path (which then checks permissions) and
    /// the transient path (which deliberately skips or defers them).
    pub fn walk(&mut self, vaddr: u64) -> WalkResult {
        let (table, pcid, _) = split_cr3(self.cr3);
        let vpn = page_number(vaddr);
        if let Some((lp, lv, pte)) = self.last {
            if lv == vpn && (!self.pcid_enabled || lp == pcid) {
                return WalkResult { pte: Some(pte), tlb_hit: true };
            }
        }
        if let Some(pte) = self.tlb_lookup(pcid, vpn) {
            self.last = Some((pcid, vpn, pte));
            return WalkResult { pte: Some(pte), tlb_hit: true };
        }
        let pte = self.tables.get(&table).and_then(|t| t.entries.get(&vpn)).copied();
        if let Some(pte) = pte {
            // Only present translations are cached, as on hardware.
            if pte.present {
                self.tlb_insert(pcid, vpn, pte);
            }
        }
        WalkResult { pte, tlb_hit: false }
    }

    /// Translates `vaddr` for a committed access, enforcing permissions.
    pub fn translate(
        &mut self,
        vaddr: u64,
        access: Access,
        user_mode: bool,
    ) -> Result<Translation, Fault> {
        let walk = self.walk(vaddr);
        let pte = match walk.pte {
            None => {
                return Err(Fault::Page {
                    vaddr,
                    kind: PageFaultKind::NotMapped,
                    write: access == Access::Write,
                })
            }
            Some(p) => p,
        };
        if !pte.present {
            return Err(Fault::Page {
                vaddr,
                kind: PageFaultKind::NotPresent,
                write: access == Access::Write,
            });
        }
        if user_mode && !pte.user {
            return Err(Fault::Page {
                vaddr,
                kind: PageFaultKind::Supervisor,
                write: access == Access::Write,
            });
        }
        if access == Access::Write && !pte.writable {
            return Err(Fault::Page { vaddr, kind: PageFaultKind::ReadOnly, write: true });
        }
        if access == Access::Fetch && pte.nx {
            return Err(Fault::Page { vaddr, kind: PageFaultKind::NoExecute, write: false });
        }
        Ok(Translation {
            paddr: (pte.pfn << PAGE_SHIFT) | page_offset(vaddr),
            tlb_hit: walk.tlb_hit,
        })
    }

    /// The seed's page walk, kept verbatim (no last-translation
    /// micro-cache, the TLB scan runs every time) so the reference
    /// interpreter's timing reflects the pre-refactor implementation.
    /// Observable-identical to [`Mmu::walk`]; the property tests in
    /// `tests/decode_roundtrip.rs` pin that equivalence.
    pub(crate) fn walk_reference(&mut self, vaddr: u64) -> WalkResult {
        let (table, pcid, _) = split_cr3(self.cr3);
        let vpn = page_number(vaddr);
        if let Some(pte) = self.tlb_lookup(pcid, vpn) {
            return WalkResult { pte: Some(pte), tlb_hit: true };
        }
        let pte = self.tables.get(&table).and_then(|t| t.entries.get(&vpn)).copied();
        if let Some(pte) = pte {
            if pte.present {
                self.tlb_insert(pcid, vpn, pte);
            }
        }
        WalkResult { pte, tlb_hit: false }
    }

    /// [`Mmu::translate`] on top of [`Mmu::walk_reference`]: the
    /// pre-refactor translation path, for the reference interpreter.
    pub(crate) fn translate_reference(
        &mut self,
        vaddr: u64,
        access: Access,
        user_mode: bool,
    ) -> Result<Translation, Fault> {
        let walk = self.walk_reference(vaddr);
        let pte = match walk.pte {
            None => {
                return Err(Fault::Page {
                    vaddr,
                    kind: PageFaultKind::NotMapped,
                    write: access == Access::Write,
                })
            }
            Some(p) => p,
        };
        if !pte.present {
            return Err(Fault::Page {
                vaddr,
                kind: PageFaultKind::NotPresent,
                write: access == Access::Write,
            });
        }
        if user_mode && !pte.user {
            return Err(Fault::Page {
                vaddr,
                kind: PageFaultKind::Supervisor,
                write: access == Access::Write,
            });
        }
        if access == Access::Write && !pte.writable {
            return Err(Fault::Page { vaddr, kind: PageFaultKind::ReadOnly, write: true });
        }
        if access == Access::Fetch && pte.nx {
            return Err(Fault::Page { vaddr, kind: PageFaultKind::NoExecute, write: false });
        }
        Ok(Translation {
            paddr: (pte.pfn << PAGE_SHIFT) | page_offset(vaddr),
            tlb_hit: walk.tlb_hit,
        })
    }

    /// Number of live TLB entries (diagnostics).
    pub fn tlb_len(&self) -> usize {
        self.tlb.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mmu_with_table() -> (Mmu, PageTableId) {
        let mut mmu = Mmu::new(64);
        let mut pt = PageTable::new();
        pt.map(0x1000, Pte::user(0x10));
        pt.map(0x2000, Pte::kernel(0x20));
        pt.map(0x3000, Pte::user(0x30).read_only());
        let id = mmu.register_table(pt);
        assert!(mmu.load_cr3(make_cr3(id, 0, false)));
        (mmu, id)
    }

    #[test]
    fn cr3_roundtrip() {
        let cr3 = make_cr3(PageTableId(42), 7, true);
        let (t, p, n) = split_cr3(cr3);
        assert_eq!(t, PageTableId(42));
        assert_eq!(p, 7);
        assert!(n);
    }

    #[test]
    fn user_translation_succeeds() {
        let (mut mmu, _) = mmu_with_table();
        let t = mmu.translate(0x1008, Access::Read, true).unwrap();
        assert_eq!(t.paddr, (0x10 << PAGE_SHIFT) | 8);
        assert!(!t.tlb_hit);
        // Second access hits the TLB.
        let t = mmu.translate(0x1010, Access::Read, true).unwrap();
        assert!(t.tlb_hit);
    }

    #[test]
    fn supervisor_page_faults_in_user_mode() {
        let (mut mmu, _) = mmu_with_table();
        let err = mmu.translate(0x2000, Access::Read, true).unwrap_err();
        assert!(matches!(err, Fault::Page { kind: PageFaultKind::Supervisor, .. }));
        // Kernel mode is fine.
        assert!(mmu.translate(0x2000, Access::Read, false).is_ok());
    }

    #[test]
    fn write_to_readonly_faults() {
        let (mut mmu, _) = mmu_with_table();
        assert!(mmu.translate(0x3000, Access::Read, true).is_ok());
        let err = mmu.translate(0x3000, Access::Write, true).unwrap_err();
        assert!(matches!(err, Fault::Page { kind: PageFaultKind::ReadOnly, .. }));
    }

    #[test]
    fn unmapped_faults() {
        let (mut mmu, _) = mmu_with_table();
        let err = mmu.translate(0x9000, Access::Read, false).unwrap_err();
        assert!(matches!(err, Fault::Page { kind: PageFaultKind::NotMapped, .. }));
    }

    #[test]
    fn non_present_faults_but_walk_sees_stale_pfn() {
        let (mut mmu, id) = mmu_with_table();
        mmu.table_mut(id).unwrap().map(0x4000, Pte::user(0x44).non_present_stale());
        let err = mmu.translate(0x4000, Access::Read, true).unwrap_err();
        assert!(matches!(err, Fault::Page { kind: PageFaultKind::NotPresent, .. }));
        // The transient path can still see the stale frame — L1TF's lever.
        let walk = mmu.walk(0x4000);
        assert_eq!(walk.pte.unwrap().pfn, 0x44);
    }

    #[test]
    fn pte_inversion_scrambles_frame() {
        let pte = Pte::user(0x44).inverted();
        assert!(!pte.present);
        assert_ne!(pte.pfn, 0x44);
    }

    #[test]
    fn cr3_reload_flushes_tlb_without_pcid() {
        let (mut mmu, id) = mmu_with_table();
        mmu.translate(0x1000, Access::Read, true).unwrap();
        assert_eq!(mmu.tlb_len(), 1);
        mmu.load_cr3(make_cr3(id, 0, false));
        assert_eq!(mmu.tlb_len(), 0);
    }

    #[test]
    fn pcid_noflush_preserves_tlb() {
        let (mut mmu, id) = mmu_with_table();
        mmu.pcid_enabled = true;
        mmu.load_cr3(make_cr3(id, 1, false));
        mmu.translate(0x1000, Access::Read, true).unwrap();
        assert_eq!(mmu.tlb_len(), 1);
        // Switch to PCID 2 with no-flush: entry for PCID 1 survives.
        mmu.load_cr3(make_cr3(id, 2, true));
        assert_eq!(mmu.tlb_len(), 1);
        // But it is not used for PCID 2 lookups.
        let t = mmu.translate(0x1000, Access::Read, true).unwrap();
        assert!(!t.tlb_hit);
    }

    #[test]
    fn tlb_eviction_is_bounded() {
        let mut mmu = Mmu::new(4);
        let mut pt = PageTable::new();
        for i in 0..16u64 {
            pt.map(i << PAGE_SHIFT, Pte::user(0x100 + i));
        }
        let id = mmu.register_table(pt);
        mmu.load_cr3(make_cr3(id, 0, false));
        for i in 0..16u64 {
            mmu.translate(i << PAGE_SHIFT, Access::Read, true).unwrap();
        }
        assert!(mmu.tlb_len() <= 4);
    }

    #[test]
    fn flush_single_page() {
        let (mut mmu, _) = mmu_with_table();
        mmu.translate(0x1000, Access::Read, true).unwrap();
        mmu.flush_tlb_page(0x1000);
        let t = mmu.translate(0x1000, Access::Read, true).unwrap();
        assert!(!t.tlb_hit);
    }

    #[test]
    fn bad_cr3_rejected() {
        let (mut mmu, _) = mmu_with_table();
        assert!(!mmu.load_cr3(make_cr3(PageTableId(999), 0, false)));
    }

    #[test]
    fn map_range_maps_consecutive_frames() {
        let mut pt = PageTable::new();
        pt.map_range(0x10000, 0x50, 4, Pte::user(0));
        assert_eq!(pt.lookup(0x10000).unwrap().pfn, 0x50);
        assert_eq!(pt.lookup(0x13000).unwrap().pfn, 0x53);
        assert_eq!(pt.len(), 4);
    }
}
