//! Sparse physical memory.
//!
//! Physical memory is a sparse map of 4 KiB frames, allocated on first
//! touch. All accesses are by *physical* address; virtual-to-physical
//! translation happens in [`crate::mmu`].

use std::cell::Cell;
use std::collections::HashMap;

use crate::isa::Width;

/// Size of a physical frame / virtual page in bytes.
pub const PAGE_SIZE: u64 = 4096;
/// Log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;
/// Size of a cache line in bytes.
pub const LINE_SIZE: u64 = 64;
/// Log2 of [`LINE_SIZE`].
pub const LINE_SHIFT: u32 = 6;

/// Returns the frame (or page) number containing `addr`.
#[inline]
pub fn page_number(addr: u64) -> u64 {
    addr >> PAGE_SHIFT
}

/// Returns the byte offset of `addr` within its page.
#[inline]
pub fn page_offset(addr: u64) -> u64 {
    addr & (PAGE_SIZE - 1)
}

/// Returns the cache-line number containing `addr`.
#[inline]
pub fn line_number(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Cache-slot sentinel: no frame number is ever `u64::MAX` in practice
/// (it would imply a physical address above 2^76).
const NO_FRAME: u64 = u64::MAX;

/// Sparse byte-addressable physical memory.
///
/// Reads of untouched memory return zero, mirroring zero-fill-on-demand.
/// Frames live in a stable slab (`slabs`) indexed by a `pfn -> slot` hash
/// map; a one-entry [`Cell`] cache keeps the simulator's hot loop off the
/// hash map entirely when consecutive accesses land in the same frame —
/// which is nearly always, since a cache line never spans frames.
#[derive(Debug, Default, PartialEq)]
pub struct PhysMemory {
    slabs: Vec<Box<[u8; PAGE_SIZE as usize]>>,
    index: HashMap<u64, u32>,
    /// `(pfn, slab slot)` of the most recently touched frame;
    /// `(NO_FRAME, _)` when empty. A `Cell` so the read path can refresh
    /// it through `&self`.
    last: Cell<(u64, u32)>,
}

impl PhysMemory {
    /// Creates empty physical memory.
    pub fn new() -> PhysMemory {
        PhysMemory { slabs: Vec::new(), index: HashMap::new(), last: Cell::new((NO_FRAME, 0)) }
    }

    /// Number of frames that have been touched.
    pub fn resident_frames(&self) -> usize {
        self.slabs.len()
    }

    /// Resolves a frame for reading, refreshing the one-entry cache.
    #[inline]
    fn frame(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let (cached_pfn, slot) = self.last.get();
        if cached_pfn == pfn {
            return Some(&self.slabs[slot as usize]);
        }
        let slot = *self.index.get(&pfn)?;
        self.last.set((pfn, slot));
        Some(&self.slabs[slot as usize])
    }

    /// Resolves a frame without the cache: one hash lookup per call, the
    /// seed's cost model. Used only by the `*_reference` entry points.
    #[inline]
    fn frame_uncached(&self, pfn: u64) -> Option<&[u8; PAGE_SIZE as usize]> {
        let slot = *self.index.get(&pfn)?;
        Some(&self.slabs[slot as usize])
    }

    fn frame_mut(&mut self, pfn: u64) -> &mut [u8; PAGE_SIZE as usize] {
        let (cached_pfn, slot) = self.last.get();
        if cached_pfn == pfn {
            return &mut self.slabs[slot as usize];
        }
        let slot = match self.index.get(&pfn) {
            Some(&s) => s,
            None => {
                let s = self.slabs.len() as u32;
                self.slabs.push(Box::new([0u8; PAGE_SIZE as usize]));
                self.index.insert(pfn, s);
                s
            }
        };
        self.last.set((pfn, slot));
        &mut self.slabs[slot as usize]
    }

    /// Reads one byte at a physical address.
    #[inline]
    pub fn read_u8(&self, paddr: u64) -> u8 {
        match self.frame(page_number(paddr)) {
            Some(f) => f[page_offset(paddr) as usize],
            None => 0,
        }
    }

    /// Writes one byte at a physical address.
    #[inline]
    pub fn write_u8(&mut self, paddr: u64, v: u8) {
        let off = page_offset(paddr) as usize;
        self.frame_mut(page_number(paddr))[off] = v;
    }

    /// Reads `width` bytes (little-endian, zero-extended).
    ///
    /// An access that stays inside one frame — the overwhelmingly common
    /// case — costs at most a single frame lookup (usually none, via the
    /// one-entry cache); only accesses that straddle a page boundary fall
    /// back to the bytewise path.
    pub fn read(&self, paddr: u64, width: Width) -> u64 {
        let n = width.bytes();
        let off = page_offset(paddr) as usize;
        if off as u64 + n <= PAGE_SIZE {
            return match self.frame(page_number(paddr)) {
                Some(f) => {
                    let mut v = 0u64;
                    for (i, b) in f[off..off + n as usize].iter().enumerate() {
                        v |= (*b as u64) << (8 * i);
                    }
                    v
                }
                None => 0,
            };
        }
        let mut v = 0u64;
        for i in 0..n {
            v |= (self.read_u8(paddr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `v` (little-endian).
    pub fn write(&mut self, paddr: u64, v: u64, width: Width) {
        let n = width.bytes();
        let off = page_offset(paddr) as usize;
        if off as u64 + n <= PAGE_SIZE {
            let f = self.frame_mut(page_number(paddr));
            for i in 0..n as usize {
                f[off + i] = (v >> (8 * i)) as u8;
            }
            return;
        }
        for i in 0..n {
            self.write_u8(paddr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    /// The seed's bytewise read, kept verbatim (one uncached frame lookup
    /// per byte) so the reference interpreter's timing reflects the
    /// pre-refactor implementation. Observable-identical to
    /// [`PhysMemory::read`].
    pub(crate) fn read_reference(&self, paddr: u64, width: Width) -> u64 {
        let mut v = 0u64;
        for i in 0..width.bytes() {
            let a = paddr.wrapping_add(i);
            let byte = match self.frame_uncached(page_number(a)) {
                Some(f) => f[page_offset(a) as usize],
                None => 0,
            };
            v |= (byte as u64) << (8 * i);
        }
        v
    }

    /// The seed's bytewise write; see [`PhysMemory::read_reference`].
    /// Allocation still goes through [`PhysMemory::frame_mut`] (the seed
    /// allocated on first touch too); the per-byte hash lookup is the
    /// preserved cost.
    pub(crate) fn write_reference(&mut self, paddr: u64, v: u64, width: Width) {
        for i in 0..width.bytes() {
            let a = paddr.wrapping_add(i);
            let pfn = page_number(a);
            let off = page_offset(a) as usize;
            match self.index.get(&pfn) {
                Some(&slot) => self.slabs[slot as usize][off] = (v >> (8 * i)) as u8,
                None => self.frame_mut(pfn)[off] = (v >> (8 * i)) as u8,
            }
        }
    }

    /// Reads a u64.
    pub fn read_u64(&self, paddr: u64) -> u64 {
        self.read(paddr, Width::B8)
    }

    /// Writes a u64.
    pub fn write_u64(&mut self, paddr: u64, v: u64) {
        self.write(paddr, v, Width::B8)
    }

    /// Reads an f64 (bitcast of the u64 at `paddr`).
    pub fn read_f64(&self, paddr: u64) -> f64 {
        f64::from_bits(self.read_u64(paddr))
    }

    /// Writes an f64 (bitcast).
    pub fn write_f64(&mut self, paddr: u64, v: f64) {
        self.write_u64(paddr, v.to_bits())
    }

    /// Copies a byte slice into physical memory, one frame slice at a
    /// time: frames are allocated in address order, as a bytewise copy
    /// would, and written even when the bytes are zero.
    pub fn write_bytes(&mut self, paddr: u64, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let a = paddr + done as u64;
            let off = page_offset(a) as usize;
            let n = (bytes.len() - done).min(PAGE_SIZE as usize - off);
            let frame = self.frame_mut(page_number(a));
            frame[off..off + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// Fills `out` from physical memory at `paddr`, one frame slice at a
    /// time; untouched frames read as zero.
    pub fn read_into(&self, paddr: u64, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let a = paddr + done as u64;
            let off = page_offset(a) as usize;
            let n = (out.len() - done).min(PAGE_SIZE as usize - off);
            match self.frame(page_number(a)) {
                Some(f) => out[done..done + n].copy_from_slice(&f[off..off + n]),
                None => out[done..done + n].fill(0),
            }
            done += n;
        }
    }

    /// Reads `len` bytes starting at `paddr`.
    pub fn read_bytes(&self, paddr: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        self.read_into(paddr, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_on_demand() {
        let m = PhysMemory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read(0xdead_beef, Width::B4), 0);
    }

    #[test]
    fn read_write_roundtrip_all_widths() {
        let mut m = PhysMemory::new();
        for (w, val) in [
            (Width::B1, 0xabu64),
            (Width::B2, 0xabcd),
            (Width::B4, 0xdead_beef),
            (Width::B8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(0x4000, val, w);
            assert_eq!(m.read(0x4000, w), val);
        }
    }

    #[test]
    fn cross_page_access() {
        let mut m = PhysMemory::new();
        let addr = PAGE_SIZE - 4; // straddles the first page boundary
        m.write(addr, 0x1122_3344_5566_7788, Width::B8);
        assert_eq!(m.read(addr, Width::B8), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_frames(), 2);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = PhysMemory::new();
        m.write(0, 0x0102_0304, Width::B4);
        assert_eq!(m.read_u8(0), 0x04);
        assert_eq!(m.read_u8(3), 0x01);
    }

    #[test]
    fn f64_roundtrip() {
        let mut m = PhysMemory::new();
        m.write_f64(0x100, std::f64::consts::PI);
        assert_eq!(m.read_f64(0x100), std::f64::consts::PI);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = PhysMemory::new();
        m.write_bytes(0x55, b"hello world");
        assert_eq!(m.read_bytes(0x55, 11), b"hello world");
    }

    /// Frame-wise `write_bytes`/`read_bytes` against the bytewise
    /// `write_u8`/`read_u8` loops: same bytes, same frames allocated in
    /// the same order, same one-entry frame cache.
    #[test]
    fn frame_wise_copies_match_bytewise_copies() {
        let mut bulk = PhysMemory::new();
        let mut bytewise = PhysMemory::new();
        // Within one frame, ending on a boundary, crossing one and two
        // boundaries, and starting on one.
        let runs = [
            (0x10, 40),
            (PAGE_SIZE - 8, 8),
            (3 * PAGE_SIZE - 5, 13),
            (5 * PAGE_SIZE - 1, PAGE_SIZE + 2),
            (8 * PAGE_SIZE, 9),
        ];
        for (i, &(paddr, len)) in runs.iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|j| (i as u64 * 31 + j) as u8 | 1).collect();
            bulk.write_bytes(paddr, &data);
            for (j, b) in data.iter().enumerate() {
                bytewise.write_u8(paddr + j as u64, *b);
            }
            assert!(bulk == bytewise, "write {paddr:#x}+{len}");
            assert_eq!(bulk.read_bytes(paddr, len as usize), data);
        }
        // A read spanning resident and untouched frames reads zeros from
        // the untouched ones and leaves the cache on the last resident
        // frame it touched, as bytewise reads do.
        let span = bulk.read_bytes(PAGE_SIZE - 4, 3 * PAGE_SIZE as usize);
        let by_byte: Vec<u8> =
            (0..3 * PAGE_SIZE).map(|j| bytewise.read_u8(PAGE_SIZE - 4 + j)).collect();
        assert_eq!(span, by_byte);
        let frame1 = &span[4..4 + PAGE_SIZE as usize];
        assert!(frame1.iter().all(|b| *b == 0), "frame 1 was never written");
        assert!(bulk == bytewise, "read leaves the same frame cache");
    }

    #[test]
    fn zero_length_copies_are_no_ops() {
        let mut m = PhysMemory::new();
        m.write_u8(0x10, 7);
        let before =
            PhysMemory { slabs: m.slabs.clone(), index: m.index.clone(), last: m.last.clone() };
        m.write_bytes(5 * PAGE_SIZE, &[]);
        assert!(m.read_bytes(9 * PAGE_SIZE, 0).is_empty());
        assert!(m == before);
        assert_eq!(m.resident_frames(), 1);
    }

    #[test]
    fn writing_zeros_still_allocates_frames() {
        let mut m = PhysMemory::new();
        m.write_bytes(PAGE_SIZE - 1, &[0; 2]);
        assert_eq!(m.resident_frames(), 2, "both touched frames are resident");
        m.write_bytes(0, &[0; PAGE_SIZE as usize]);
        assert_eq!(m.resident_frames(), 2, "re-writing a resident frame allocates nothing");
        assert_eq!(m.read_bytes(0, 2 * PAGE_SIZE as usize), vec![0; 2 * PAGE_SIZE as usize]);
    }

    #[test]
    fn line_and_page_math() {
        assert_eq!(page_number(0x1fff), 1);
        assert_eq!(page_offset(0x1fff), 0xfff);
        assert_eq!(line_number(0x7f), 1);
        assert_eq!(line_number(0x3f), 0);
    }
}
