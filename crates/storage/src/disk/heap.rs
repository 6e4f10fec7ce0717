//! Slotted-page heap files under the buffer pool.
//!
//! A [`HeapFile`] stores variable-length record payloads in fixed-size
//! pages mediated by a [`BufferMgr`], addressed by stable
//! [`HeapId`]`{ block, slot }` handles. Each page carries:
//!
//! ```text
//! [0]        kind tag: 0x00 virgin, 0xA5 slotted, 0xB7 overflow
//! [1..3]     u16 nslots          (slotted pages)
//! [3..5]     u16 free_ptr        (start of the data area, grows down)
//! [5..]      slot directory: nslots × (u16 off, u16 len); off 0 = free
//! [free_ptr..page] record payloads, allocated high-to-low
//! ```
//!
//! Payloads that do not fit a page inline spill into **overflow chains**:
//! the slot keeps a small stub (`0x01` marker + total length + first
//! block) and the bytes live in dedicated `0xB7` blocks of shape
//! `[kind][u32 next][u16 chunk_len][chunk]`, linked until `next == 0`.
//! Erased overflow blocks are zeroed back to virgin and recycled.
//!
//! Three structures are RAM-resident and rebuilt by [`HeapFile::open`]'s
//! page scan rather than persisted: the **free-space map** (per-page free
//! and dead byte counts, driving first-fit placement with in-page
//! compaction when a page's free space is fragmented), the **fit tree**
//! over it (a max-tree of each block's usable capacity, so first fit is a
//! root-to-leaf descent instead of a walk over every page), and the
//! virgin block free list. Placement is deterministic — lowest eligible
//! block first — so identical operation sequences produce identical files.
//! An insert updates its page's map entry incrementally (the bytes it
//! took, the slot it reused) instead of rescanning the slot directory,
//! which it walks only to find a free slot the map says is there.
//!
//! A record operation pins its slotted page once, not once per step: a
//! read finds, checks and copies the slot under one pin (or, through
//! [`HeapFile::read`], lends the caller the payload in the frame without
//! copying it), and an erase or same-size rewrite of an inline record
//! changes the page under that same pin.
//!
//! Page headers are disk bytes: every offset computed from them is
//! checked, and a header that disagrees with itself or with the
//! free-space map is [`DiskError::Corrupt`], never a wrapped `u16`.
//!
//! The heap's crash consistency is fenced by the owner's checkpoint
//! protocol (see `disk::durable`), not by per-page WAL coupling. Its
//! block numbers are logical pages of its pool's file, and the pool maps
//! each one to one of its two physical slots through the [`SlotMap`]
//! [`HeapFile::open`] is given: a durable owner's checkpointed map, or an
//! empty one for a fresh or scratch heap.

use super::buffer::{BufferMgr, FrameId, SlotMap};
use super::file::{FileMgr, Page};
use super::{DiskError, DiskResult};
use std::sync::Arc;

/// Page kind tags (byte 0 of every block).
const KIND_VIRGIN: u8 = 0x00;
const KIND_SLOTTED: u8 = 0xA5;
const KIND_OVERFLOW: u8 = 0xB7;

/// Slotted-page header: kind + nslots + free_ptr.
const HDR: usize = 5;
/// Bytes per slot-directory entry (u16 off, u16 len).
const SLOT: usize = 4;
/// Overflow-page header: kind + next block (u32) + chunk length (u16).
const OVF_HDR: usize = 7;

/// Payload markers (first byte of every stored slot body).
const INLINE: u8 = 0x00;
const SPILLED: u8 = 0x01;
/// Slot body of a spilled record: marker + u32 total len + u32 first blk.
const STUB: usize = 9;
/// Overflow-chain terminator (block numbers are real from 0 up).
const NO_BLOCK: u32 = u32::MAX;

/// Stable handle to one stored payload: block number and slot index.
/// Handles survive in-page compaction (slots rebind to moved bytes) and
/// in-place updates; only an update that no longer fits its page returns
/// a fresh handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapId {
    pub block: u32,
    pub slot: u16,
}

impl std::fmt::Display for HeapId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.block, self.slot)
    }
}

/// Physical occupancy statistics, published as `heap.*` gauges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Total blocks in the file (slotted + overflow + recycled virgin).
    pub pages: u64,
    /// Live records (inline or spilled), i.e. live slots.
    pub records: u64,
    /// Sum of live payload lengths (markers, stubs, and page headers
    /// excluded — this is the caller's bytes, not the file's).
    pub live_bytes: u64,
    /// Fill factor in percent: live bytes over total file bytes.
    pub fill_pct: u64,
}

/// Per-slotted-page free-space map entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PageSpace {
    /// Contiguous free bytes between the slot directory and `free_ptr`.
    free: u16,
    /// Dead bytes inside the data area (erased payloads), reclaimable by
    /// in-page compaction.
    dead: u16,
    /// Slots currently free for reuse (off == 0).
    free_slots: u16,
}

impl PageSpace {
    /// Bytes a new slot body may take on this page, compaction included:
    /// free plus dead space, less a directory entry when no free slot can
    /// be reused.
    fn usable(&self) -> u16 {
        let entry = if self.free_slots > 0 { 0 } else { SLOT as u16 };
        (self.free + self.dead).saturating_sub(entry)
    }

    /// The entry a scan of a page's slot directory yields: what
    /// [`HeapFile::open`] rebuilds, and what every incremental update must
    /// agree with. Fails on entries no consistent page can hold.
    fn of_entries(entries: &[(u16, u16)], page_size: usize) -> DiskResult<PageSpace> {
        let live = entries.iter().filter(|(off, _)| *off != 0);
        let free_ptr = live.clone().map(|&(off, _)| off as usize).min();
        let free_ptr = free_ptr.unwrap_or(page_size);
        let live_bytes: usize = live.map(|&(_, len)| len as usize).sum();
        let dir_end = HDR + entries.len() * SLOT;
        let free = free_ptr.checked_sub(dir_end);
        let dead = page_size
            .checked_sub(free_ptr)
            .and_then(|data| data.checked_sub(live_bytes));
        let (Some(free), Some(dead)) = (free, dead) else {
            return Err(DiskError::Corrupt(format!(
                "heap page of {} slots: payloads overlap the directory or the page end",
                entries.len()
            )));
        };
        Ok(PageSpace {
            free: free as u16,
            dead: dead as u16,
            free_slots: entries.iter().filter(|(off, _)| *off == 0).count() as u16,
        })
    }
}

/// A slot body: an inline payload behind its marker byte, or the stub of
/// a spilled one. Written straight into the frame, never assembled in a
/// buffer of its own.
#[derive(Debug, Clone, Copy)]
enum Body<'a> {
    Inline(&'a [u8]),
    Stub([u8; STUB]),
}

impl Body<'_> {
    /// Bytes the body takes in the data area.
    fn len(&self) -> u16 {
        match self {
            Body::Inline(payload) => payload.len() as u16 + 1,
            Body::Stub(_) => STUB as u16,
        }
    }

    fn write(&self, page: &mut Page, off: u16) -> DiskResult<()> {
        let off = off as usize;
        match self {
            Body::Inline(payload) => {
                page.write_at(off, &[INLINE])?;
                page.write_at(off + 1, payload)
            }
            Body::Stub(stub) => page.write_at(off, stub),
        }
    }
}

/// Max-tree over per-block usable capacity ([`PageSpace::usable`]; 0 for
/// blocks that are not slotted pages). Leaves are blocks in order, and
/// each inner node holds the larger of its children, so the lowest block
/// able to take `need` bytes is found by one descent, always turning left
/// when the left subtree can take it — exactly the block a linear
/// first-fit walk in block order would stop at.
#[derive(Debug, Default)]
struct FitTree {
    /// Leaf count, a power of two (0 before the first block).
    leaves: usize,
    /// Heap layout: node 1 is the root, node `i`'s children are `2i` and
    /// `2i + 1`, leaf `b` is node `leaves + b`.
    max: Vec<u16>,
}

impl FitTree {
    fn clear(&mut self) {
        self.leaves = 0;
        self.max.clear();
    }

    fn set(&mut self, block: u32, usable: u16) {
        let b = block as usize;
        if b >= self.leaves {
            self.grow(b + 1);
        }
        let mut i = self.leaves + b;
        self.max[i] = usable;
        while i > 1 {
            i /= 2;
            let m = self.max[2 * i].max(self.max[2 * i + 1]);
            if self.max[i] == m {
                break;
            }
            self.max[i] = m;
        }
    }

    /// Double (at least) the leaf count to cover `n` blocks, rebuilding
    /// the inner nodes.
    fn grow(&mut self, n: usize) {
        let leaves = n.next_power_of_two().max(16);
        let mut max = vec![0; 2 * leaves];
        max[leaves..leaves + self.leaves].copy_from_slice(&self.max[self.leaves..]);
        for i in (1..leaves).rev() {
            max[i] = max[2 * i].max(max[2 * i + 1]);
        }
        self.leaves = leaves;
        self.max = max;
    }

    /// Lowest block whose usable capacity is at least `need`.
    fn first_fit(&self, need: u16) -> Option<u32> {
        if self.leaves == 0 || self.max[1] < need {
            return None;
        }
        let mut i = 1;
        while i < self.leaves {
            i = if self.max[2 * i] >= need {
                2 * i
            } else {
                2 * i + 1
            };
        }
        u32::try_from(i - self.leaves).ok()
    }
}

/// A heap file: slotted record pages + overflow chains in one paged file.
#[derive(Debug)]
pub struct HeapFile {
    bm: BufferMgr,
    /// Number of logical blocks currently in the heap.
    blocks: u32,
    /// Free-space map, indexed by block (all-zero for blocks that are
    /// not slotted pages).
    space: Vec<PageSpace>,
    /// First-fit index over `space`.
    fit: FitTree,
    /// Virgin blocks (erased overflow pages) available for reuse.
    virgin: Vec<u32>,
    /// Live record count.
    records: u64,
    /// Live payload bytes.
    live_bytes: u64,
}

impl HeapFile {
    /// Open heap file `file`, with a pool of `pool` frames, as the
    /// `map.pages()` pages `map` places (see [`BufferMgr`]); an empty map
    /// opens an empty heap. Existing pages are scanned once to rebuild
    /// the free-space map.
    pub fn open(
        fm: Arc<FileMgr>,
        file: impl Into<String>,
        pool: usize,
        map: SlotMap,
    ) -> DiskResult<HeapFile> {
        let blocks = u32::try_from(map.pages())
            .map_err(|_| DiskError::Config("heap exceeds u32 blocks".to_string()))?;
        let mut heap = HeapFile {
            bm: BufferMgr::new(fm, file, pool, map)?,
            blocks,
            space: Vec::new(),
            fit: FitTree::default(),
            virgin: Vec::new(),
            records: 0,
            live_bytes: 0,
        };
        heap.rescan()?;
        Ok(heap)
    }

    /// Rebuild the free-space map, virgin list, and occupancy counters by
    /// scanning every page.
    pub fn rescan(&mut self) -> DiskResult<()> {
        self.space.clear();
        self.fit.clear();
        self.virgin.clear();
        self.records = 0;
        self.live_bytes = 0;
        for b in 0..self.blocks {
            let (kind, entries, live_bytes) = self.with_page(b, |page| {
                let kind = page.as_slice()[0];
                if kind != KIND_SLOTTED {
                    return Ok((kind, Vec::new(), 0));
                }
                let entries = slot_entries(page)?;
                let mut live_bytes = 0;
                for &(off, len) in entries.iter().filter(|(off, _)| *off != 0) {
                    let body = page.read_at(off as usize, len as usize)?;
                    live_bytes += match spilled(body)? {
                        Some((total, _)) => total as u64,
                        None => u64::from(len).saturating_sub(1),
                    };
                }
                Ok((kind, entries, live_bytes))
            })?;
            match kind {
                KIND_VIRGIN => self.virgin.push(b),
                KIND_OVERFLOW => {}
                KIND_SLOTTED => {
                    self.records += entries.iter().filter(|(off, _)| *off != 0).count() as u64;
                    self.live_bytes += live_bytes;
                    self.recompute_space(b, &entries)?;
                }
                other => {
                    return Err(DiskError::Corrupt(format!(
                        "heap [{b}]: unknown page kind 0x{other:02x}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// The underlying buffer pool (for policy flips, flushes, and dirty
    /// tracking by the durable owner).
    pub fn buffer(&mut self) -> &mut BufferMgr {
        &mut self.bm
    }

    /// Physical statistics for gauges and benches.
    pub fn stats(&self) -> HeapStats {
        let page = self.page_size() as u64;
        let total = u64::from(self.blocks) * page;
        HeapStats {
            pages: u64::from(self.blocks),
            records: self.records,
            live_bytes: self.live_bytes,
            fill_pct: (self.live_bytes * 100).checked_div(total).unwrap_or(0),
        }
    }

    /// Bytes of the heap's logical pages: pages × page size. The file
    /// itself is larger, since every page has two slots in it.
    pub fn file_bytes(&self) -> u64 {
        u64::from(self.blocks) * self.page_size() as u64
    }

    fn page_size(&self) -> usize {
        self.bm.page_size()
    }

    /// Largest payload stored inline; anything bigger spills.
    fn inline_max(&self) -> usize {
        // A fresh page must hold the marker + payload after header + slot.
        self.page_size() - HDR - SLOT - 1
    }

    /// Pin block `b`. Block numbers from handles and from overflow-chain
    /// links (disk bytes) are checked against the file size first: the
    /// pool's page table is dense, so it must never see a wild number.
    fn pin(&mut self, b: u32) -> DiskResult<FrameId> {
        if b >= self.blocks {
            return Err(DiskError::State(format!("heap: block {b} out of range")));
        }
        self.bm.pin(u64::from(b))
    }

    /// Pin block `b`, run `f` on its page, unpin. Read-only.
    fn with_page<T>(&mut self, b: u32, f: impl FnOnce(&Page) -> DiskResult<T>) -> DiskResult<T> {
        let fid = self.pin(b)?;
        let out = self.bm.page(fid).and_then(f);
        self.bm.unpin(fid)?;
        out
    }

    /// Pin block `b`, run `f` mutably on its page, unpin; the frame is
    /// marked dirty when `f` succeeds and reports that it wrote.
    fn with_page_rw<T>(
        &mut self,
        b: u32,
        f: impl FnOnce(&mut Page) -> DiskResult<(T, bool)>,
    ) -> DiskResult<T> {
        let fid = self.pin(b)?;
        let out = self.bm.page_mut(fid).and_then(f);
        if let Ok((_, true)) = out {
            self.bm.mark_dirty(fid)?;
        }
        self.bm.unpin(fid)?;
        out.map(|(v, _)| v)
    }

    /// Pin block `b`, run `f` mutably on its page, mark dirty, unpin.
    fn with_page_mut<T>(
        &mut self,
        b: u32,
        f: impl FnOnce(&mut Page) -> DiskResult<T>,
    ) -> DiskResult<T> {
        self.with_page_rw(b, |page| f(page).map(|v| (v, true)))
    }

    /// Append a fresh block (or recycle a virgin one) and return its id.
    fn alloc_block(&mut self, kind: u8) -> DiskResult<u32> {
        let b = match self.virgin.pop() {
            Some(b) => b,
            None => {
                let b = self.blocks;
                self.blocks = self
                    .blocks
                    .checked_add(1)
                    .ok_or_else(|| DiskError::Config("heap grew past u32 blocks".to_string()))?;
                b
            }
        };
        self.with_page_mut(b, |page| {
            page.zero();
            page.as_mut_slice()[0] = kind;
            Ok(())
        })?;
        Ok(b)
    }

    /// Reset page `b`'s map entry to what a scan of its slot directory
    /// yields.
    fn recompute_space(&mut self, b: u32, entries: &[(u16, u16)]) -> DiskResult<()> {
        let sp = PageSpace::of_entries(entries, self.page_size())?;
        self.set_space(b, sp);
        Ok(())
    }

    fn space_of(&self, b: u32) -> PageSpace {
        self.space.get(b as usize).copied().unwrap_or_default()
    }

    fn set_space(&mut self, b: u32, sp: PageSpace) {
        let i = b as usize;
        if self.space.len() <= i {
            self.space.resize(i + 1, PageSpace::default());
        }
        self.space[i] = sp;
        self.fit.set(b, sp.usable());
    }

    /// Find (or create) a slotted page able to take `need` payload bytes,
    /// compacting a fragmented page in place when that suffices. First
    /// fit in block order keeps placement deterministic.
    fn place(&mut self, need: u16) -> DiskResult<u32> {
        if let Some(b) = self.fit.first_fit(need) {
            let sp = self.space_of(b);
            let cost = if sp.free_slots > 0 {
                need
            } else {
                need + SLOT as u16
            };
            if sp.free < cost {
                self.compact(b)?;
            }
            return Ok(b);
        }
        let b = self.alloc_block(KIND_SLOTTED)?;
        let ps = self.page_size() as u16;
        self.with_page_mut(b, |page| {
            write_u16(page, 3, ps) // free_ptr = page end
        })?;
        self.set_space(
            b,
            PageSpace {
                free: ps - HDR as u16,
                dead: 0,
                free_slots: 0,
            },
        );
        Ok(b)
    }

    /// Slide live payloads of page `b` to the high end, turning dead
    /// bytes into contiguous free space. Slot offsets rebind, so
    /// [`HeapId`]s are unaffected.
    fn compact(&mut self, b: u32) -> DiskResult<()> {
        let entries = self.with_page_mut(b, |page| {
            let mut entries = slot_entries(page)?;
            let dir_end = HDR + entries.len() * SLOT;
            // Move highest-offset payloads first so writes never overlap
            // unmoved live bytes.
            let mut order: Vec<usize> = (0..entries.len()).filter(|&s| entries[s].0 != 0).collect();
            order.sort_by_key(|&s| std::cmp::Reverse(entries[s].0));
            let mut top = page.size() as u16;
            for s in order {
                let (off, len) = entries[s];
                top = top
                    .checked_sub(len)
                    .filter(|&top| top as usize >= dir_end)
                    .ok_or_else(|| {
                        DiskError::Corrupt(format!(
                            "heap [{b}]: live payloads overflow the page while compacting"
                        ))
                    })?;
                if top != off {
                    let bytes = page.read_at(off as usize, len as usize)?.to_vec();
                    page.write_at(top as usize, &bytes)?;
                    write_u16(page, HDR + s * SLOT, top)?;
                }
                entries[s].0 = top;
            }
            write_u16(page, 3, top)?;
            Ok(entries)
        })?;
        self.recompute_space(b, &entries)
    }

    /// Carve `body` out of page `b`'s data area and bind it to a slot,
    /// reusing a free slot when one exists. The page's map entry, which
    /// [`HeapFile::place`] just consulted, is updated in step with the
    /// page instead of being rebuilt from its slot directory; the
    /// directory is walked only to find the free slot the map promises.
    fn bind_slot(&mut self, b: u32, body: Body) -> DiskResult<HeapId> {
        let len = body.len();
        let mut sp = self.space_of(b);
        let reuse = sp.free_slots > 0;
        let cost = if reuse { len } else { len + SLOT as u16 };
        let slot = self.with_page_mut(b, |page| {
            let (n, free_ptr) = header(page)?;
            let dir_end = HDR as u16 + n * SLOT as u16;
            if free_ptr - dir_end != sp.free || sp.free < cost {
                return Err(DiskError::Corrupt(format!(
                    "heap [{b}]: page has {} free bytes, the free-space map {}, {cost} needed",
                    free_ptr - dir_end,
                    sp.free
                )));
            }
            let off = free_ptr - len;
            let s = if reuse {
                (0..n)
                    .find(|&s| matches!(read_u16(page, HDR + s as usize * SLOT), Ok(0)))
                    .ok_or_else(|| {
                        DiskError::Corrupt(format!(
                            "heap [{b}]: the free-space map promises a free slot the page lacks"
                        ))
                    })?
            } else {
                write_u16(page, 1, n + 1)?;
                n
            };
            body.write(page, off)?;
            write_u16(page, 3, off)?;
            write_u16(page, HDR + s as usize * SLOT, off)?;
            write_u16(page, HDR + s as usize * SLOT + 2, len)?;
            Ok(s)
        })?;
        sp.free -= cost;
        sp.free_slots -= u16::from(reuse);
        self.set_space(b, sp);
        Ok(HeapId { block: b, slot })
    }

    /// Slot body for `payload`: inline behind a marker byte, or a stub
    /// pointing at a freshly written overflow chain.
    fn body_for<'a>(&mut self, payload: &'a [u8]) -> DiskResult<Body<'a>> {
        if payload.len() <= self.inline_max() {
            Ok(Body::Inline(payload))
        } else {
            self.spill_stub(payload).map(Body::Stub)
        }
    }

    /// Store `payload`, returning its stable handle.
    pub fn insert(&mut self, payload: &[u8]) -> DiskResult<HeapId> {
        let body = self.body_for(payload)?;
        let b = self.place(body.len())?;
        let id = self.bind_slot(b, body)?;
        self.records += 1;
        self.live_bytes += payload.len() as u64;
        Ok(id)
    }

    /// Write `payload` into an overflow chain, returning the slot stub.
    fn spill_stub(&mut self, payload: &[u8]) -> DiskResult<[u8; STUB]> {
        let chunk_max = self.page_size() - OVF_HDR;
        let mut chunks: Vec<&[u8]> = payload.chunks(chunk_max).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let blocks: Vec<u32> = chunks
            .iter()
            .map(|_| self.alloc_block(KIND_OVERFLOW))
            .collect::<DiskResult<_>>()?;
        for (i, chunk) in chunks.iter().enumerate() {
            let next = blocks.get(i + 1).copied().unwrap_or(NO_BLOCK);
            self.with_page_mut(blocks[i], |page| {
                page.as_mut_slice()[0] = KIND_OVERFLOW;
                write_u32(page, 1, next)?;
                write_u16(page, 5, chunk.len() as u16)?;
                page.write_at(OVF_HDR, chunk)
            })?;
        }
        let mut stub = [0; STUB];
        stub[0] = SPILLED;
        stub[1..5].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        stub[5..].copy_from_slice(&blocks[0].to_le_bytes());
        Ok(stub)
    }

    /// Fetch the payload stored at `id`: one pin of its page, and one
    /// copy of an inline payload (straight out of the frame).
    pub fn get(&mut self, id: HeapId) -> DiskResult<Vec<u8>> {
        self.read(id, |payload| Ok(payload.to_vec()))
    }

    /// Run `f` over the payload stored at `id` without copying it out
    /// first: an inline payload is lent straight from its frame, under the
    /// one pin that finds and checks the slot. A spilled payload is
    /// assembled from its overflow chain, as [`HeapFile::get`] copies it.
    pub fn read<T>(&mut self, id: HeapId, f: impl FnOnce(&[u8]) -> DiskResult<T>) -> DiskResult<T> {
        let fid = self.pin(id.block)?;
        let stub = match self.bm.page(fid).and_then(|page| stored_body(page, id)) {
            Ok(Body::Inline(payload)) => {
                let out = f(payload);
                self.bm.unpin(fid)?;
                return out;
            }
            Ok(Body::Stub(stub)) => parse_stub(&stub),
            Err(e) => Err(e),
        };
        self.bm.unpin(fid)?;
        let (total, first) = stub?;
        let payload = self.read_chain(id, total, first)?;
        f(&payload)
    }

    /// The `total` bytes of `id`'s overflow chain starting at `first`.
    fn read_chain(&mut self, id: HeapId, total: usize, first: u32) -> DiskResult<Vec<u8>> {
        // The stub is disk bytes: never reserve more than the file holds.
        let mut out = Vec::with_capacity(total.min(self.file_bytes() as usize));
        let mut b = first;
        while b != NO_BLOCK {
            b = self.with_page(b, |page| {
                if page.as_slice()[0] != KIND_OVERFLOW {
                    return Err(DiskError::Corrupt(format!(
                        "heap: overflow chain of {id} hit non-overflow block {b}"
                    )));
                }
                let next = read_u32(page, 1)?;
                let clen = read_u16(page, 5)? as usize;
                out.extend_from_slice(page.read_at(OVF_HDR, clen)?);
                Ok(next)
            })?;
        }
        if out.len() != total {
            return Err(DiskError::Corrupt(format!(
                "heap: overflow chain of {id} yielded {} bytes, stub said {total}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Free the slot at `id` (and any overflow chain hanging off it). An
    /// inline record is found and cleared under one pin; a spilled one
    /// frees its chain between two.
    pub fn erase(&mut self, id: HeapId) -> DiskResult<()> {
        /// What the first pin found.
        enum Found {
            Cleared {
                freed: u64,
                entries: Vec<(u16, u16)>,
            },
            Spilled {
                total: usize,
                first: u32,
            },
        }
        let found = self.with_page_rw(id.block, |page| {
            let (off, len) = live_slot(page, id)?;
            match spilled(page.read_at(off as usize, len as usize)?)? {
                Some((total, first)) => Ok((Found::Spilled { total, first }, false)),
                None => {
                    let freed = u64::from(len).saturating_sub(1);
                    let entries = clear_slot(page, id)?;
                    Ok((Found::Cleared { freed, entries }, true))
                }
            }
        })?;
        let entries = match found {
            Found::Cleared { freed, entries } => {
                self.live_bytes -= freed;
                entries
            }
            Found::Spilled { total, first } => {
                self.free_chain(first)?;
                self.live_bytes -= total as u64;
                self.with_page_mut(id.block, |page| clear_slot(page, id))?
            }
        };
        self.recompute_space(id.block, &entries)?;
        self.records -= 1;
        Ok(())
    }

    /// Zero an overflow chain back to virgin blocks for reuse.
    fn free_chain(&mut self, first: u32) -> DiskResult<()> {
        let mut b = first;
        while b != NO_BLOCK {
            let next = self.with_page_mut(b, |page| {
                let next = read_u32(page, 1)?;
                page.zero();
                Ok(next)
            })?;
            self.virgin.push(b);
            b = next;
        }
        self.virgin.sort_by(|a, b| b.cmp(a)); // pop() yields lowest first
        self.virgin.dedup();
        Ok(())
    }

    /// Replace the payload at `id`. Returns the (possibly new) handle:
    /// the id is preserved whenever the new body fits its current page —
    /// in place, or after compaction — and only a page overflow relocates
    /// the record.
    pub fn update(&mut self, id: HeapId, payload: &[u8]) -> DiskResult<HeapId> {
        let inline = payload.len() <= self.inline_max();
        // Fast path: a same-size inline rewrite, in place under the pin
        // that found the slot.
        let found = self.with_page_rw(id.block, |page| {
            let (off, len) = live_slot(page, id)?;
            let body = page.read_at(off as usize, len as usize)?;
            if inline && payload.len() + 1 == len as usize && body.first() == Some(&INLINE) {
                page.write_at(off as usize + 1, payload)?;
                return Ok((None, true));
            }
            Ok((Some((len, spilled(body)?)), false))
        })?;
        let Some((len, old_stub)) = found else {
            return Ok(id);
        };

        // General path: erase, then try to rebind the same slot on the
        // same page before falling back to a fresh placement.
        let old_bytes = match old_stub {
            Some((total, first)) => {
                self.free_chain(first)?;
                total as u64
            }
            None => u64::from(len).saturating_sub(1),
        };
        let body = self.body_for(payload)?;
        let need = body.len();
        // Free the old bytes (slot stays allocated to us).
        let entries = self.with_page_mut(id.block, |page| clear_slot(page, id))?;
        self.recompute_space(id.block, &entries)?;
        let sp = self.space_of(id.block);
        let new_id = if sp.free >= need {
            self.rebind(id, body)?
        } else if sp.free + sp.dead >= need {
            self.compact(id.block)?;
            self.rebind(id, body)?
        } else {
            // Relocation: the old slot stays behind as a free slot, the
            // record count is unchanged.
            let b = self.place(need)?;
            self.bind_slot(b, body)?
        };
        self.live_bytes = self.live_bytes - old_bytes + payload.len() as u64;
        Ok(new_id)
    }

    /// Re-point slot `id.slot` of its page, freed by the caller, at
    /// freshly written `body`; the map entry is updated in step, as
    /// [`HeapFile::bind_slot`] updates it.
    fn rebind(&mut self, id: HeapId, body: Body) -> DiskResult<HeapId> {
        let len = body.len();
        let mut sp = self.space_of(id.block);
        self.with_page_mut(id.block, |page| {
            let (n, free_ptr) = header(page)?;
            let dir_end = HDR as u16 + n * SLOT as u16;
            if free_ptr - dir_end != sp.free || sp.free < len || sp.free_slots == 0 {
                return Err(DiskError::Corrupt(format!(
                    "heap {id}: page has {} free bytes, the free-space map {}, {len} needed",
                    free_ptr - dir_end,
                    sp.free
                )));
            }
            let off = free_ptr - len;
            body.write(page, off)?;
            write_u16(page, 3, off)?;
            write_u16(page, HDR + id.slot as usize * SLOT, off)?;
            write_u16(page, HDR + id.slot as usize * SLOT + 2, len)
        })?;
        sp.free -= len;
        sp.free_slots -= 1;
        self.set_space(id.block, sp);
        Ok(id)
    }

    /// Visit every live record in (block, slot) order.
    pub fn for_each(
        &mut self,
        f: &mut dyn FnMut(HeapId, Vec<u8>) -> DiskResult<()>,
    ) -> DiskResult<()> {
        for b in 0..self.blocks {
            let entries = self.with_page(b, |page| {
                if page.as_slice()[0] != KIND_SLOTTED {
                    return Ok(Vec::new());
                }
                slot_entries(page)
            })?;
            for (slot, &(off, _)) in entries.iter().enumerate() {
                if off == 0 {
                    continue;
                }
                let id = HeapId {
                    block: b,
                    slot: slot as u16,
                };
                let payload = self.get(id)?;
                f(id, payload)?;
            }
        }
        Ok(())
    }

    /// Write back every dirty frame. Does not fsync.
    pub fn flush(&mut self) -> DiskResult<()> {
        self.bm.flush_all()
    }
}

/// Every slot-directory entry `(off, len)` of a slotted page.
fn slot_entries(page: &Page) -> DiskResult<Vec<(u16, u16)>> {
    let n = read_u16(page, 1)? as usize;
    (0..n)
        .map(|s| {
            Ok((
                read_u16(page, HDR + s * SLOT)?,
                read_u16(page, HDR + s * SLOT + 2)?,
            ))
        })
        .collect()
}

/// Slot count and `free_ptr` of a slotted page, checked against each
/// other and the page size, so the offsets carved out of the gap between
/// the directory and the data area cannot wrap.
fn header(page: &Page) -> DiskResult<(u16, u16)> {
    let n = read_u16(page, 1)?;
    let free_ptr = read_u16(page, 3)?;
    let dir_end = HDR + n as usize * SLOT;
    if dir_end > free_ptr as usize || free_ptr as usize > page.size() {
        return Err(DiskError::Corrupt(format!(
            "heap page header: {n} slots and free_ptr {free_ptr} on a {}-byte page",
            page.size()
        )));
    }
    Ok((n, free_ptr))
}

/// The body stored in live slot `id`, borrowed from its page: the inline
/// payload behind its marker, or a spilled record's stub.
fn stored_body(page: &Page, id: HeapId) -> DiskResult<Body<'_>> {
    let (off, len) = live_slot(page, id)?;
    let body = page.read_at(off as usize, len as usize)?;
    match body.split_first() {
        Some((&INLINE, payload)) => Ok(Body::Inline(payload)),
        Some((&SPILLED, _)) => {
            let stub = body.try_into().map_err(|_| {
                DiskError::Corrupt(format!("heap: {id} has a spilled stub of {len} bytes"))
            })?;
            Ok(Body::Stub(stub))
        }
        _ => Err(DiskError::Corrupt(format!("heap: {id} has no marker byte"))),
    }
}

/// The slot-directory entry `(off, len)` of live slot `id` on its page,
/// verifying the page kind and that the slot is in use.
fn live_slot(page: &Page, id: HeapId) -> DiskResult<(u16, u16)> {
    if page.as_slice()[0] != KIND_SLOTTED {
        return Err(DiskError::State(format!(
            "heap: {id} does not address a slotted page"
        )));
    }
    if id.slot >= read_u16(page, 1)? {
        return Err(DiskError::State(format!("heap: no slot {id}")));
    }
    let off = read_u16(page, HDR + id.slot as usize * SLOT)?;
    if off == 0 {
        return Err(DiskError::State(format!("heap: read of erased slot {id}")));
    }
    Ok((off, read_u16(page, HDR + id.slot as usize * SLOT + 2)?))
}

/// Free slot `id`'s bytes (the slot stays in the directory), raise
/// `free_ptr` to the lowest remaining payload so the gap counts as free
/// rather than dead, and return the page's slot entries. The header's
/// `free_ptr` must be the lowest payload before the slot is cleared too:
/// nothing is written to a page whose header says otherwise.
fn clear_slot(page: &mut Page, id: HeapId) -> DiskResult<Vec<(u16, u16)>> {
    let (_, free_ptr) = header(page)?;
    let mut entries = slot_entries(page)?;
    let low = |entries: &[(u16, u16)]| {
        entries
            .iter()
            .filter(|(o, _)| *o != 0)
            .map(|(o, _)| *o)
            .min()
            .unwrap_or(page.size() as u16)
    };
    if free_ptr != low(&entries) {
        return Err(DiskError::Corrupt(format!(
            "heap {id}: free_ptr {free_ptr} is not the lowest payload {}",
            low(&entries)
        )));
    }
    let Some(entry) = entries.get_mut(id.slot as usize) else {
        return Err(DiskError::State(format!("heap: no slot {id}")));
    };
    *entry = (0, 0);
    let free_ptr = low(&entries);
    write_u16(page, HDR + id.slot as usize * SLOT, 0)?;
    write_u16(page, HDR + id.slot as usize * SLOT + 2, 0)?;
    write_u16(page, 3, free_ptr)?;
    Ok(entries)
}

fn read_u16(page: &Page, off: usize) -> DiskResult<u16> {
    let b = page.read_at(off, 2)?;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

fn write_u16(page: &mut Page, off: usize, v: u16) -> DiskResult<()> {
    page.write_at(off, &v.to_le_bytes())
}

fn read_u32(page: &Page, off: usize) -> DiskResult<u32> {
    let b = page.read_at(off, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn write_u32(page: &mut Page, off: usize, v: u32) -> DiskResult<()> {
    page.write_at(off, &v.to_le_bytes())
}

/// `(total length, first overflow block)` when `body` is a spilled
/// record's stub, `None` for an inline body.
fn spilled(body: &[u8]) -> DiskResult<Option<(usize, u32)>> {
    match body.first() {
        Some(&SPILLED) => parse_stub(body).map(Some),
        _ => Ok(None),
    }
}

fn parse_stub(body: &[u8]) -> DiskResult<(usize, u32)> {
    if body.len() != STUB {
        return Err(DiskError::Corrupt(format!(
            "heap: spilled stub of {} bytes",
            body.len()
        )));
    }
    let total = u32::from_le_bytes([body[1], body[2], body[3], body[4]]) as usize;
    let first = u32::from_le_bytes([body[5], body[6], body[7], body[8]]);
    Ok((total, first))
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn setup(page: usize, pool: usize) -> (TempDir, HeapFile) {
        let dir = TempDir::new("heap").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), page).unwrap());
        let heap = HeapFile::open(fm, "heap.dat", pool, SlotMap::default()).unwrap();
        (dir, heap)
    }

    #[test]
    fn insert_get_round_trips() {
        let (_d, mut heap) = setup(128, 4);
        let a = heap.insert(b"alpha").unwrap();
        let b = heap.insert(b"bravo-longer").unwrap();
        assert_eq!(heap.get(a).unwrap(), b"alpha");
        assert_eq!(heap.get(b).unwrap(), b"bravo-longer");
        assert_eq!(heap.stats().records, 2);
    }

    #[test]
    fn erase_frees_and_reuses_space() {
        let (_d, mut heap) = setup(128, 4);
        let ids: Vec<HeapId> = (0..20)
            .map(|i| heap.insert(format!("rec-{i:02}-xxxx").as_bytes()).unwrap())
            .collect();
        let pages_before = heap.stats().pages;
        for id in &ids {
            heap.erase(*id).unwrap();
        }
        assert_eq!(heap.stats().records, 0);
        // Refilling reuses the freed space instead of growing the file.
        for i in 0..20 {
            heap.insert(format!("rec-{i:02}-xxxx").as_bytes()).unwrap();
        }
        assert_eq!(heap.stats().pages, pages_before);
    }

    #[test]
    fn update_in_place_preserves_handle() {
        let (_d, mut heap) = setup(128, 4);
        let id = heap.insert(b"0123456789").unwrap();
        let same = heap.update(id, b"abcdefghij").unwrap();
        assert_eq!(same, id);
        assert_eq!(heap.get(id).unwrap(), b"abcdefghij");
    }

    #[test]
    fn update_grown_payload_still_prefers_its_page() {
        let (_d, mut heap) = setup(256, 4);
        let id = heap.insert(b"short").unwrap();
        let grown = vec![b'G'; 100];
        let new_id = heap.update(id, &grown).unwrap();
        assert_eq!(new_id, id, "page had room — handle must be stable");
        assert_eq!(heap.get(id).unwrap(), grown);
    }

    #[test]
    fn jumbo_records_spill_to_overflow_chains() {
        let (_d, mut heap) = setup(128, 4);
        let jumbo: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let id = heap.insert(&jumbo).unwrap();
        assert_eq!(heap.get(id).unwrap(), jumbo);
        let pages_with_chain = heap.stats().pages;
        heap.erase(id).unwrap();
        // The chain's blocks are recycled by the next jumbo insert.
        let id2 = heap.insert(&jumbo).unwrap();
        assert_eq!(heap.stats().pages, pages_with_chain);
        assert_eq!(heap.get(id2).unwrap(), jumbo);
    }

    #[test]
    fn compaction_reclaims_fragmented_pages() {
        let (_d, mut heap) = setup(128, 4);
        // Fill one page with small records, erase every other one, then
        // ask for a payload that only fits after compaction.
        let ids: Vec<HeapId> = (0..8)
            .map(|i| heap.insert(&[i as u8; 10]).unwrap())
            .collect();
        let first_page: Vec<&HeapId> = ids.iter().filter(|id| id.block == ids[0].block).collect();
        for id in first_page.iter().step_by(2) {
            heap.erase(**id).unwrap();
        }
        let sp_before = heap.stats();
        let big = heap.insert(&[0xEE; 20]).unwrap();
        assert_eq!(heap.get(big).unwrap(), vec![0xEE; 20]);
        assert!(heap.stats().pages <= sp_before.pages + 1);
    }

    #[test]
    fn reopen_rebuilds_free_map_and_counts() {
        let dir = TempDir::new("heap-reopen").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        let mut heap = HeapFile::open(Arc::clone(&fm), "heap.dat", 4, SlotMap::default()).unwrap();
        let keep = heap.insert(b"keeper").unwrap();
        let gone = heap.insert(b"goner!").unwrap();
        let jumbo: Vec<u8> = vec![7; 500];
        let big = heap.insert(&jumbo).unwrap();
        heap.erase(gone).unwrap();
        heap.flush().unwrap();
        let stats = heap.stats();
        let map = heap.buffer().next_slot_map();
        drop(heap);

        let mut heap = HeapFile::open(fm, "heap.dat", 4, map).unwrap();
        assert_eq!(heap.stats(), stats);
        assert_eq!(heap.get(keep).unwrap(), b"keeper");
        assert_eq!(heap.get(big).unwrap(), jumbo);
        assert!(heap.get(gone).is_err());
        // Free space from the erase is found again.
        let back = heap.insert(b"re-use").unwrap();
        assert_eq!(back.block, gone.block);
    }

    #[test]
    fn for_each_visits_live_records_in_handle_order() {
        let (_d, mut heap) = setup(128, 4);
        let a = heap.insert(b"aa").unwrap();
        let b = heap.insert(b"bb").unwrap();
        let c = heap.insert(b"cc").unwrap();
        heap.erase(b).unwrap();
        let mut seen = Vec::new();
        heap.for_each(&mut |id, bytes| {
            seen.push((id, bytes));
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, vec![(a, b"aa".to_vec()), (c, b"cc".to_vec())]);
    }

    #[test]
    fn tiny_pool_still_serves_many_pages() {
        let (_d, mut heap) = setup(128, 2);
        let ids: Vec<HeapId> = (0..200)
            .map(|i| {
                heap.insert(format!("record-number-{i:04}").as_bytes())
                    .unwrap()
            })
            .collect();
        assert!(heap.stats().pages > 10, "working set must exceed the pool");
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(
                heap.get(*id).unwrap(),
                format!("record-number-{i:04}").as_bytes()
            );
        }
    }

    /// The placement rule the fit tree replaces: walk the free-space map
    /// in block order and stop at the first page whose free plus dead
    /// bytes cover the body and, when no slot is free for reuse, a new
    /// directory entry.
    fn linear_first_fit(heap: &HeapFile, need: u16) -> Option<u32> {
        heap.space.iter().enumerate().find_map(|(b, sp)| {
            let cost = if sp.free_slots > 0 {
                need
            } else {
                need + SLOT as u16
            };
            (sp.free >= cost || sp.free + sp.dead >= cost).then_some(b as u32)
        })
    }

    /// Every body size a 128-byte page can be asked for, plus one too big.
    fn assert_tree_matches_linear(heap: &HeapFile) -> Result<(), TestCaseError> {
        for need in 1..=PAGE as u16 {
            prop_assert_eq!(
                heap.fit.first_fit(need),
                linear_first_fit(heap, need),
                "first fit for {} bytes",
                need
            );
        }
        Ok(())
    }

    /// Every page's free-space map entry equals what a rescan of its
    /// bytes builds: slotted pages the entry their slot directory yields,
    /// every other block an empty one. The map is kept incrementally, so
    /// this is the check on that accounting.
    fn assert_map_matches_pages(heap: &mut HeapFile) -> Result<(), TestCaseError> {
        for b in 0..heap.blocks {
            let scanned = heap
                .with_page(b, |page| {
                    if page.as_slice()[0] != KIND_SLOTTED {
                        return Ok(PageSpace::default());
                    }
                    PageSpace::of_entries(&slot_entries(page)?, page.size())
                })
                .unwrap();
            prop_assert_eq!(heap.space_of(b), scanned, "free-space map of block {}", b);
        }
        Ok(())
    }

    const PAGE: usize = 128;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Placement equivalence: random inserts, erases and updates —
        /// inline and spilled, so pages compact in place, chains spill
        /// and free, and virgin blocks are reused — with flushes and
        /// reopens (a `rescan`) in between. After every step the tree's
        /// first fit equals the linear walk's for every body size, each
        /// inline insert lands on the block the walk picks (or on the
        /// block a new page would take), every page's free-space map
        /// entry equals the one its bytes yield, and contents and
        /// `stats()` match a shadow map.
        #[test]
        fn fit_tree_places_exactly_like_linear_first_fit(
            ops in prop::collection::vec((0u8..8, 0usize..1000, 0usize..300), 1..120),
        ) {
            let dir = TempDir::new("heap-fit").unwrap();
            let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
            let mut heap =
                HeapFile::open(Arc::clone(&fm), "heap.dat", 4, SlotMap::default()).unwrap();
            let mut shadow: BTreeMap<HeapId, Vec<u8>> = BTreeMap::new();
            for (i, (op, pick, len)) in ops.into_iter().enumerate() {
                // Mostly small records so pages fill and fragment; a few
                // past the inline limit so chains spill.
                let len = if len < 270 { len % 60 } else { len };
                let bytes: Vec<u8> = (0..len).map(|j| (i + j) as u8).collect();
                let live: Vec<HeapId> = shadow.keys().copied().collect();
                match op {
                    0..=2 => {
                        let inline = len <= heap.inline_max();
                        let need = if inline { len as u16 + 1 } else { STUB as u16 };
                        let want = linear_first_fit(&heap, need);
                        let fresh = heap.virgin.last().copied().unwrap_or(heap.blocks);
                        let id = heap.insert(&bytes).unwrap();
                        if inline {
                            prop_assert_eq!(id.block, want.unwrap_or(fresh));
                        }
                        shadow.insert(id, bytes);
                    }
                    3 | 4 if !live.is_empty() => {
                        let id = live[pick % live.len()];
                        heap.erase(id).unwrap();
                        shadow.remove(&id);
                    }
                    5 | 6 if !live.is_empty() => {
                        let id = live[pick % live.len()];
                        let new_id = heap.update(id, &bytes).unwrap();
                        shadow.remove(&id);
                        shadow.insert(new_id, bytes);
                    }
                    7 => {
                        heap.flush().unwrap();
                        let stats = heap.stats();
                        let map = heap.buffer().next_slot_map();
                        drop(heap);
                        heap = HeapFile::open(Arc::clone(&fm), "heap.dat", 4, map).unwrap();
                        prop_assert_eq!(heap.stats(), stats);
                    }
                    _ => {}
                }
                assert_tree_matches_linear(&heap)?;
                assert_map_matches_pages(&mut heap)?;
                let stats = heap.stats();
                prop_assert_eq!(stats.records, shadow.len() as u64);
                prop_assert_eq!(
                    stats.live_bytes,
                    shadow.values().map(|v| v.len() as u64).sum::<u64>()
                );
            }
            for (id, bytes) in &shadow {
                prop_assert_eq!(&heap.get(*id).unwrap(), bytes);
            }
        }
    }

    /// Overflow links are disk bytes: a corrupt one fails the read with
    /// an error instead of reaching the buffer pool's dense page table.
    #[test]
    fn corrupt_chain_links_fail_without_pinning_wild_blocks() {
        let (_d, mut heap) = setup(128, 4);
        let id = heap.insert(&[9; 1000]).unwrap();
        let first = heap
            .with_page(id.block, |page| {
                let (off, len) = live_slot(page, id)?;
                parse_stub(page.read_at(off as usize, len as usize)?)
            })
            .unwrap()
            .1;
        heap.with_page_mut(first, |page| write_u32(page, 1, 0x7FFF_FFFF))
            .unwrap();
        assert!(matches!(heap.get(id), Err(DiskError::State(_))));
        assert!(heap.erase(id).is_err());
    }

    /// `free_ptr` is disk bytes too: a header pointing below the slot
    /// directory, past the page, or anywhere but the lowest payload fails
    /// inserts and updates with `Corrupt` (no `u16` wraps, in either build
    /// profile) and leaves the page as it was.
    #[test]
    fn corrupt_free_ptr_fails_inserts_and_updates() {
        let (_d, mut heap) = setup(128, 4);
        let id = heap.insert(b"resident").unwrap();
        let good = heap.with_page(id.block, |page| read_u16(page, 3)).unwrap();
        for bad in [
            0,
            3,
            HDR as u16 + SLOT as u16 - 1,
            good - 40,
            good + 1,
            200,
            u16::MAX,
        ] {
            heap.with_page_mut(id.block, |page| write_u16(page, 3, bad))
                .unwrap();
            let err = heap.insert(b"newcomer").unwrap_err();
            assert!(
                matches!(err, DiskError::Corrupt(_)),
                "insert, free_ptr {bad}: {err}"
            );
            let err = heap.update(id, b"grown resident").unwrap_err();
            assert!(
                matches!(err, DiskError::Corrupt(_)),
                "update, free_ptr {bad}: {err}"
            );
            let err = heap.erase(id).unwrap_err();
            assert!(
                matches!(err, DiskError::Corrupt(_)),
                "erase, free_ptr {bad}: {err}"
            );
            assert_eq!(heap.get(id).unwrap(), b"resident");
        }
        heap.with_page_mut(id.block, |page| write_u16(page, 3, good))
            .unwrap();
        let other = heap.insert(b"newcomer").unwrap();
        assert_eq!(heap.update(id, b"grown resident").unwrap(), id);
        assert_eq!(heap.get(other).unwrap(), b"newcomer");
        assert_eq!(heap.get(id).unwrap(), b"grown resident");
    }

    /// A borrowed read sees the stored payload, inline or spilled, and a
    /// closure's error comes back as the read's.
    #[test]
    fn read_lends_the_stored_payload() {
        let (_d, mut heap) = setup(128, 2);
        let small = heap.insert(b"in the frame").unwrap();
        let jumbo: Vec<u8> = (0..700u32).map(|i| (i % 253) as u8).collect();
        let big = heap.insert(&jumbo).unwrap();
        assert_eq!(heap.read(small, |p| Ok(p == b"in the frame")), Ok(true));
        assert_eq!(heap.read(big, |p| Ok(p == jumbo.as_slice())), Ok(true));
        let err = heap
            .read(small, |_| Err::<(), _>(DiskError::Corrupt("no".into())))
            .unwrap_err();
        assert!(matches!(err, DiskError::Corrupt(_)));
        heap.erase(small).unwrap();
        assert!(heap.read(small, |p| Ok(p.len())).is_err());
    }

    #[test]
    fn fit_tree_finds_the_lowest_block_that_fits() {
        let mut tree = FitTree::default();
        assert_eq!(tree.first_fit(1), None);
        for (b, cap) in [(0, 3), (1, 10), (2, 7), (40, 50)] {
            tree.set(b, cap);
        }
        assert_eq!(tree.first_fit(3), Some(0));
        assert_eq!(tree.first_fit(4), Some(1));
        assert_eq!(tree.first_fit(11), Some(40));
        assert_eq!(tree.first_fit(51), None);
        tree.set(1, 0);
        assert_eq!(tree.first_fit(4), Some(2));
        tree.clear();
        assert_eq!(tree.first_fit(1), None);
    }
}
