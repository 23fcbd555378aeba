//! Byte-addressed memory abstraction.
//!
//! The functional state of the simulated machine is a flat, sparse,
//! byte-addressed memory. Caches in `levi-sim` are *tag-only* (they model
//! timing and coherence); values live here. Data-triggered "phantom" ranges
//! also live here — their contents are (re)materialized by constructors when
//! lines are inserted into the cache.

use crate::fx::FxHashMap;
use crate::inst::{Addr, MemWidth};

const PAGE_SHIFT: u32 = 12;
pub(crate) const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Byte-addressed memory with typed accessors.
///
/// All multi-byte accesses are little-endian. Reads of untouched memory
/// return zero. Implementations may be sparse.
///
/// Pass a `&mut M` where a `&mut dyn Memory` is wanted: there is
/// deliberately no `impl Memory for &mut M`. With one, a method call on a
/// `mem: &mut dyn Memory` autorefs to `<&mut dyn Memory as Memory>::read`,
/// which is this trait's default byte loop, and never reaches an
/// implementation's own `read`.
pub trait Memory {
    /// Reads one byte.
    fn read_u8(&self, addr: Addr) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, addr: Addr, val: u8);

    /// Reads `width` bytes, little-endian, zero-extended to u64.
    fn read(&self, addr: Addr, width: MemWidth) -> u64 {
        let n = width.bytes();
        let mut v: u64 = 0;
        for i in 0..n {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes the low `width` bytes of `val`, little-endian.
    fn write(&mut self, addr: Addr, val: u64, width: MemWidth) {
        let n = width.bytes();
        for i in 0..n {
            self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// Reads an unsigned 16-bit value.
    fn read_u16(&self, addr: Addr) -> u16 {
        self.read(addr, MemWidth::B2) as u16
    }

    /// Reads an unsigned 32-bit value.
    fn read_u32(&self, addr: Addr) -> u32 {
        self.read(addr, MemWidth::B4) as u32
    }

    /// Reads an unsigned 64-bit value.
    fn read_u64(&self, addr: Addr) -> u64 {
        self.read(addr, MemWidth::B8)
    }

    /// Writes an unsigned 16-bit value.
    fn write_u16(&mut self, addr: Addr, val: u16) {
        self.write(addr, val as u64, MemWidth::B2)
    }

    /// Writes an unsigned 32-bit value.
    fn write_u32(&mut self, addr: Addr, val: u32) {
        self.write(addr, val as u64, MemWidth::B4)
    }

    /// Writes an unsigned 64-bit value.
    fn write_u64(&mut self, addr: Addr, val: u64) {
        self.write(addr, val, MemWidth::B8)
    }

    /// Fills `[addr, addr+len)` with `byte`.
    fn fill(&mut self, addr: Addr, len: u64, byte: u8) {
        for i in 0..len {
            self.write_u8(addr.wrapping_add(i), byte);
        }
    }
}

/// Sparse, page-granular memory. The default [`Memory`] implementation.
///
/// Pages (4 KiB) are allocated on first write; reads of unallocated pages
/// return zero without allocating.
#[derive(Clone, Debug, Default)]
pub struct PagedMem {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl PagedMem {
    /// The page holding `addr`, allocated (zeroed) on first touch.
    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident (written-to) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Resident memory footprint in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.pages.len() * PAGE_SIZE
    }

    /// The resident page table, for serialization (see [`crate::codec`]).
    pub(crate) fn pages_ref(&self) -> &FxHashMap<u64, Box<[u8; PAGE_SIZE]>> {
        &self.pages
    }

    /// Rebuilds a memory from a deserialized page table.
    pub(crate) fn from_pages(pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>) -> Self {
        PagedMem { pages }
    }
}

/// The `N` bytes of `page` at `off`, which the caller has checked fit.
#[inline]
fn load<const N: usize>(page: &[u8; PAGE_SIZE], off: usize) -> [u8; N] {
    page[off..off + N]
        .try_into()
        .expect("access fits in its page")
}

/// Writes `bytes` into `page` at `off`, which the caller has checked fits.
#[inline]
fn store<const N: usize>(page: &mut [u8; PAGE_SIZE], off: usize, bytes: [u8; N]) {
    page[off..off + N].copy_from_slice(&bytes);
}

impl Memory for PagedMem {
    #[inline]
    fn read_u8(&self, addr: Addr) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    #[inline]
    fn write_u8(&mut self, addr: Addr, val: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = val;
    }

    // Multi-byte accesses are the interpreter's hot path: one page-table
    // lookup per access (instead of one per byte) when the access does not
    // straddle a page boundary, which is the overwhelmingly common case.
    // Each width is a fixed-size load or store: a variable-length
    // `copy_from_slice` compiles to a `memcpy` call on every access.

    #[inline]
    fn read(&self, addr: Addr, width: MemWidth) -> u64 {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + width.bytes() as usize > PAGE_SIZE {
            // Page-straddling access: the per-byte path.
            let mut v: u64 = 0;
            for i in 0..width.bytes() {
                v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
            }
            return v;
        }
        let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
            return 0;
        };
        match width {
            MemWidth::B1 => page[off] as u64,
            MemWidth::B2 => u16::from_le_bytes(load(page, off)) as u64,
            MemWidth::B4 => u32::from_le_bytes(load(page, off)) as u64,
            MemWidth::B8 => u64::from_le_bytes(load(page, off)),
        }
    }

    #[inline]
    fn write(&mut self, addr: Addr, val: u64, width: MemWidth) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + width.bytes() as usize > PAGE_SIZE {
            for i in 0..width.bytes() {
                self.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
            }
            return;
        }
        let page = self.page_mut(addr);
        match width {
            MemWidth::B1 => page[off] = val as u8,
            MemWidth::B2 => store(page, off, (val as u16).to_le_bytes()),
            MemWidth::B4 => store(page, off, (val as u32).to_le_bytes()),
            MemWidth::B8 => store(page, off, val.to_le_bytes()),
        }
    }

    /// One page lookup per page the range touches.
    fn fill(&mut self, addr: Addr, len: u64, byte: u8) {
        let (mut addr, mut left) = (addr, len);
        while left > 0 {
            let off = (addr as usize) & (PAGE_SIZE - 1);
            let n = left.min((PAGE_SIZE - off) as u64);
            self.page_mut(addr)[off..off + n as usize].fill(byte);
            addr = addr.wrapping_add(n);
            left -= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let mem = PagedMem::new();
        assert_eq!(mem.read_u64(0xdead_beef), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut mem = PagedMem::new();
        mem.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(0x100), 0x08);
        assert_eq!(mem.read_u8(0x107), 0x01);
        assert_eq!(mem.read_u32(0x100), 0x0506_0708);
        assert_eq!(mem.read_u16(0x106), 0x0102);
        assert_eq!(mem.read_u64(0x100), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = PagedMem::new();
        let addr = PAGE_SIZE as u64 - 4; // straddles the first page boundary
        mem.write_u64(addr, 0xAABB_CCDD_EEFF_1122);
        assert_eq!(mem.read_u64(addr), 0xAABB_CCDD_EEFF_1122);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn fill_matches_byte_writes() {
        // Inside one page, and from 3 bytes before a page boundary across
        // two more pages.
        let cases = [
            (0x300, 4),
            (PAGE_SIZE as u64 - 3, 2 * PAGE_SIZE as u64 + 10),
        ];
        for (addr, len) in cases {
            let mut paged = PagedMem::new();
            let mut bytes = PagedMem::new();
            for m in [&mut paged, &mut bytes] {
                m.write_u64(addr - 8, u64::MAX);
                m.write_u64(addr + len, u64::MAX);
            }
            paged.fill(addr, len, 0xAB);
            for i in 0..len {
                bytes.write_u8(addr + i, 0xAB);
            }
            for a in addr - 8..addr + len + 8 {
                assert_eq!(paged.read_u8(a), bytes.read_u8(a), "byte {a:#x}");
            }
            assert_eq!(paged.resident_pages(), bytes.resident_pages());
        }
    }

    /// The byte-wise reference: the trait's default multi-byte accesses,
    /// one `read_u8`/`write_u8` per byte.
    struct Bytewise(PagedMem);

    impl Memory for Bytewise {
        fn read_u8(&self, addr: Addr) -> u8 {
            self.0.read_u8(addr)
        }
        fn write_u8(&mut self, addr: Addr, val: u8) {
            self.0.write_u8(addr, val)
        }
    }

    const WIDTHS: [MemWidth; 4] = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];

    fn assert_reads_match(paged: &PagedMem, bytes: &Bytewise, addrs: &[Addr]) {
        for &a in addrs {
            for w in WIDTHS {
                assert_eq!(paged.read(a, w), bytes.read(a, w), "read {w:?} at {a:#x}");
            }
        }
        assert_eq!(paged.resident_pages(), bytes.0.resident_pages());
    }

    #[test]
    fn width_accesses_match_bytewise_reference_near_page_boundaries() {
        let page = PAGE_SIZE as u64;
        // Every offset within 8 bytes of three boundaries: both pages
        // written; only the upper page written (straddling reads start in
        // an unallocated page); neither page ever written.
        let (both, upper, neither) = (page, 4 * page, 8 * page);
        let addrs: Vec<Addr> = [both, upper, neither]
            .iter()
            .flat_map(|&b| b - 8..b + 8)
            .collect();
        let writable: Vec<Addr> = (both - 8..both + 8).chain(upper..upper + 8).collect();
        let mut paged = PagedMem::new();
        let mut bytes = Bytewise(PagedMem::new());
        assert_reads_match(&paged, &bytes, &addrs);
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for _ in 0..1000 {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let w = WIDTHS[(x % 4) as usize];
            let a = writable[((x >> 8) % writable.len() as u64) as usize];
            paged.write(a, x, w);
            bytes.write(a, x, w);
            assert_reads_match(&paged, &bytes, &addrs);
        }
        // Pages 0, 1 and 4 only: page 3 (below `upper`) and pages 7 and 8
        // were never allocated.
        assert_eq!(paged.resident_pages(), 3);
    }

    #[test]
    fn width_write_preserves_neighbors() {
        let mut mem = PagedMem::new();
        mem.write_u64(0x400, u64::MAX);
        mem.write(0x402, 0, MemWidth::B2);
        assert_eq!(mem.read_u64(0x400), 0xFFFF_FFFF_0000_FFFF);
    }
}
