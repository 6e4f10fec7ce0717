//! Pinning buffer manager with clock replacement over one slotted file.
//!
//! A bounded pool of page frames mediates all heap-page I/O. It serves
//! one file, named at construction, and addresses its pages by number.
//! Frames are allocated on first use, so a pool costs only the pages it
//! has held. Clients pin a page — faulting it in from the file manager on
//! a miss — mutate the frame image, mark it dirty, and unpin. Eviction
//! uses the clock (second-chance) algorithm over unpinned frames only; a
//! pool where every frame is pinned aborts with [`DiskError::BufferAbort`]
//! rather than evicting under someone's feet.
//!
//! **Finding a victim.** The pool keeps one bit per frame, set while the
//! frame could be a victim: unpinned, and not dirty under no-steal. The
//! bit changes only when a pin count moves between 0 and 1, when a dirty
//! frame is flushed, and when the pool grows, fails a read, switches
//! no-steal or trims. A miss's clock sweep jumps from the hand to the
//! next set bit a 64-frame word at a time, so it never visits a pinned
//! or (under no-steal) dirty frame; it still clears the reference bit of
//! every eligible frame it passes and takes the first one without it, so
//! the victims are exactly those of a sweep over every frame.
//!
//! **Ping-pong slots.** Every page of the file has two physical slots
//! (see [`SlotMap`] for where they lie), and the pool's [`SlotMap`] says
//! which one holds the page's image as of the last durable checkpoint. A
//! miss reads that slot (or, once the page has been written since, the
//! slot it was written to); a page past the map's page count reads as
//! zeros without touching the file; a dirty page is only ever written to
//! the slot the map does not use. Until the owner adopts the map of the
//! next generation ([`BufferMgr::next_slot_map`],
//! [`BufferMgr::adopt_slot_map`]) no byte of the checkpointed image is
//! overwritten. A scratch heap's pool starts from [`SlotMap::default`]
//! and never adopts: its fresh pages cost no read, and an evicted dirty
//! page is written to its spare slot and read back from there.
//!
//! Nothing here knows about the WAL: a durable owner runs the pool
//! no-steal, so no page reaches disk between checkpoints, and its
//! checkpoint writes pages only to slots the durable generation does not
//! read (see `disk::durable`).
//!
//! Counters: `buffer.pins`, `buffer.hits`, `buffer.evictions`,
//! `buffer.flushes`.

use super::codec::{ByteReader, ByteWriter};
use super::file::{FileMgr, Page};
use super::{DiskError, DiskResult};
use std::sync::Arc;

/// Metric: pin requests served. Like every physical-I/O metric in the
/// disk layer this is recorded in the racy class — cache hit rates and
/// page placement depend on pool state and worker scheduling, so these
/// totals are real but not thread-count invariant.
pub const BUFFER_PINS: &str = "buffer.pins";
/// Metric: pin requests satisfied without disk I/O.
pub const BUFFER_HITS: &str = "buffer.hits";
/// Metric: frames evicted to make room.
pub const BUFFER_EVICTIONS: &str = "buffer.evictions";
/// Metric: dirty frames written back.
pub const BUFFER_FLUSHES: &str = "buffer.flushes";

#[derive(Debug)]
struct Frame {
    page: Page,
    /// Number of the page the frame holds.
    blk: Option<u64>,
    pins: u32,
    dirty: bool,
    /// Clock reference bit: second chance before eviction.
    referenced: bool,
}

impl Frame {
    fn new(page_size: usize) -> Frame {
        Frame {
            page: Page::new(page_size),
            blk: None,
            pins: 0,
            dirty: false,
            referenced: false,
        }
    }
}

/// Bit `i` of a frame bitmap: word index and mask.
fn bit(i: usize) -> (usize, u64) {
    (i / 64, 1 << (i % 64))
}

/// Whether bit `i` of a bitmap is set (bits past its end are clear).
fn test_bit(words: &[u64], i: u64) -> bool {
    let (w, m) = bit(i as usize);
    words.get(w).is_some_and(|word| word & m != 0)
}

/// Pages per run of a slotted file (see [`SlotMap`]).
const RUN: u64 = 64;

/// Block of page `p`'s slot `s` (0 or 1).
fn slot_block(p: u64, s: u64) -> u64 {
    (p / RUN) * 2 * RUN + s * RUN + p % RUN
}

/// Where each logical page of a slotted file lives, in one generation:
/// which of its two slots holds the page's image, plus how many pages the
/// generation has.
///
/// The file is a sequence of runs of 128 blocks, and page `p` owns block
/// `p mod 64` of each half of run `⌊p / 64⌋`: slot 0 in the first half,
/// slot 1 in the second. So the slots of consecutive pages are
/// consecutive blocks, and the pages a checkpoint writes to the same side
/// of a run reach the file as one long extent rather than as one block
/// each, which is what a file system syncs quickly. (Slots `2p` and
/// `2p + 1` never coalesce: an fsync of 2,200 such 4 KiB writes on ext4
/// took 36 ms against 5 ms contiguous.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotMap {
    /// Logical pages with an image; later pages read as zeros.
    pages: u64,
    /// Bit `p` set: page `p`'s image is in its slot 1, else in slot 0.
    odd: Vec<u64>,
}

impl SlotMap {
    /// Logical pages the generation holds.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    fn slot(&self, p: u64) -> u64 {
        u64::from(test_bit(&self.odd, p))
    }

    /// Block holding page `p`'s image, if the generation has one.
    pub fn image(&self, p: u64) -> Option<u64> {
        (p < self.pages).then(|| slot_block(p, self.slot(p)))
    }

    /// The block of page `p` the map does not use.
    fn spare(&self, p: u64) -> u64 {
        slot_block(p, self.slot(p) ^ 1)
    }

    /// Blocks the file must have for every image to be in it.
    pub fn min_blocks(&self) -> u64 {
        (0..self.pages)
            .rev()
            .take(RUN as usize)
            .filter_map(|p| self.image(p))
            .max()
            .map_or(0, |b| b + 1)
    }

    /// A map with no pages that keeps this map's slot choices: every page
    /// written under it lands in a block this map does not use.
    pub fn cleared(&self) -> SlotMap {
        SlotMap {
            pages: 0,
            odd: self.odd.clone(),
        }
    }

    /// Drop the bits of pages past the count, so equal maps encode alike.
    fn canonical(mut self) -> SlotMap {
        let words = self.pages.div_ceil(64) as usize;
        self.odd.resize(words, 0);
        if let Some(last) = self.odd.last_mut() {
            let used = self.pages % 64;
            if used > 0 {
                *last &= (1 << used) - 1;
            }
        }
        self
    }

    /// Append the map: the page count, then one bit per page in 64-bit
    /// words.
    pub fn encode(&self, w: &mut ByteWriter) {
        let map = self.clone().canonical();
        w.put_u64(map.pages);
        for word in &map.odd {
            w.put_u64(*word);
        }
    }

    /// Read a map written by [`SlotMap::encode`]. A page count past the
    /// heap's `u32` block range, or more words than the bytes left, is
    /// [`DiskError::Corrupt`].
    pub fn decode(r: &mut ByteReader) -> DiskResult<SlotMap> {
        let pages = r.get_u64("slot map pages")?;
        if pages > u64::from(u32::MAX) || pages.div_ceil(64) > r.remaining() as u64 / 8 {
            return Err(DiskError::Corrupt(format!(
                "slot map of {pages} pages in {} bytes",
                r.remaining()
            )));
        }
        let odd = (0..pages.div_ceil(64))
            .map(|_| r.get_u64("slot map word"))
            .collect::<Result<Vec<u64>, _>>()?;
        Ok(SlotMap { pages, odd }.canonical())
    }
}

/// A pool's slot map and the pages it has written since adopting it.
#[derive(Debug)]
struct Slots {
    map: SlotMap,
    /// Bit `p`: page `p` was written to its spare block since `map` was
    /// adopted.
    written: Vec<u64>,
    /// One past the highest page written since `map` was adopted.
    end: u64,
}

impl Slots {
    fn new(map: SlotMap) -> Slots {
        Slots {
            map,
            written: Vec::new(),
            end: 0,
        }
    }

    /// Block holding page `p`'s newest image on disk; `None` if it has
    /// none (it reads as zeros).
    fn source(&self, p: u64) -> Option<u64> {
        if test_bit(&self.written, p) {
            Some(self.map.spare(p))
        } else {
            self.map.image(p)
        }
    }

    fn wrote(&mut self, p: u64) {
        let (w, m) = bit(p as usize);
        if self.written.len() <= w {
            self.written.resize(w + 1, 0);
        }
        self.written[w] |= m;
        self.end = self.end.max(p + 1);
    }

    /// The map with every page written since adoption in its new block.
    fn next(&self) -> SlotMap {
        let pages = self.map.pages.max(self.end);
        let words = pages.div_ceil(64) as usize;
        let word = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        let odd = (0..words)
            .map(|i| word(&self.map.odd, i) ^ word(&self.written, i))
            .collect();
        SlotMap { pages, odd }.canonical()
    }
}

/// Handle to a pinned frame, by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(usize);

/// Page-table entry of a page that is not resident.
const ABSENT: u32 = u32::MAX;

/// A pool of at most `capacity` page frames over one file, allocated as
/// misses need them: the clock only runs once the pool is full.
///
/// In **no-steal** mode ([`BufferMgr::set_no_steal`]) dirty frames are
/// never eviction victims: the pool grows one frame at a time instead,
/// and [`BufferMgr::trim`] shrinks it back to the base capacity once the
/// dirty set has been checkpointed. This is what keeps the on-disk image
/// of a durable heap exactly at its last checkpoint between checkpoints.
///
/// Resident pages are found through a page table kept in step with every
/// miss, eviction and trim, so a hit costs O(1) however large a no-steal
/// pool has grown. A miss's clock sweep visits only the frames an
/// eligibility bitmap marks as possible victims, so it costs nothing per
/// pinned frame, or per dirty frame a no-steal pool has grown by.
#[derive(Debug)]
pub struct BufferMgr {
    fm: Arc<FileMgr>,
    /// The file every page lives in.
    file: String,
    frames: Vec<Frame>,
    /// Page number → frame index, [`ABSENT`] for a page not resident. As
    /// long as the highest page pinned, 4 bytes per page.
    table: Vec<u32>,
    /// One bit per frame, set iff the frame could be a clock victim:
    /// `pins == 0 && !(no_steal && dirty)`. Bits past the last frame are
    /// clear.
    eligible: Vec<u64>,
    /// Frames holding no page (one whose read failed, or a no-steal
    /// growth frame); while there are any, a miss takes the
    /// lowest-numbered one instead of allocating or running the clock.
    unused: usize,
    hand: usize,
    /// Capacity requested at construction: the pool grows to it on
    /// demand, and `trim` shrinks back to it.
    base_capacity: usize,
    /// Never evict dirty frames; grow the pool instead.
    no_steal: bool,
    slots: Slots,
}

impl BufferMgr {
    /// Create a pool of up to `capacity` frames (at least 1), none of
    /// them allocated yet, over the pages of `file` that `map` places.
    pub fn new(
        fm: Arc<FileMgr>,
        file: impl Into<String>,
        capacity: usize,
        map: SlotMap,
    ) -> DiskResult<BufferMgr> {
        if capacity == 0 {
            return Err(DiskError::Config("buffer pool capacity 0".to_string()));
        }
        Ok(BufferMgr {
            fm,
            file: file.into(),
            frames: Vec::new(),
            table: Vec::new(),
            eligible: Vec::new(),
            unused: 0,
            hand: 0,
            base_capacity: capacity,
            no_steal: false,
            slots: Slots::new(map),
        })
    }

    /// The slot map in force.
    pub fn slot_map(&self) -> &SlotMap {
        &self.slots.map
    }

    /// The map a checkpoint of what the pool has written so far would
    /// adopt: every written page in the block it was written to, and the
    /// page count grown to cover them. The owner writes every page below
    /// that count (a heap allocates pages in order and writes each one it
    /// allocates), so none of them is left pointing at a stale slot.
    pub fn next_slot_map(&self) -> SlotMap {
        self.slots.next()
    }

    /// Make `map` the one in force and forget what was written under the
    /// old one: called once `map` is the durable generation's.
    pub fn adopt_slot_map(&mut self, map: SlotMap) {
        self.slots = Slots::new(map);
    }

    /// Frames allocated so far.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Page size of the underlying file manager.
    pub fn page_size(&self) -> usize {
        self.fm.page_size()
    }

    /// Number of frames currently pinned at least once.
    pub fn pinned(&self) -> usize {
        self.frames.iter().filter(|f| f.pins > 0).count()
    }

    /// Enable/disable no-steal replacement: with it on, dirty frames are
    /// never evicted — the pool grows by one frame when no clean victim
    /// exists, so un-checkpointed changes can only live in RAM.
    pub fn set_no_steal(&mut self, on: bool) {
        self.no_steal = on;
        self.rebuild_eligible();
    }

    /// Pages currently held in dirty frames, in page order.
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut blks: Vec<u64> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .filter_map(|f| f.blk)
            .collect();
        blks.sort_unstable();
        blks
    }

    /// Frame holding page `num`, if it is resident.
    fn lookup(&self, num: u64) -> Option<usize> {
        let slot = *self.table.get(usize::try_from(num).ok()?)?;
        (slot != ABSENT).then_some(slot as usize)
    }

    fn set_table(&mut self, num: u64, frame: usize) -> DiskResult<()> {
        let (Ok(num), Ok(frame)) = (usize::try_from(num), u32::try_from(frame)) else {
            return Err(DiskError::Config(format!(
                "page {num} / frame {frame} outside the page table"
            )));
        };
        if self.table.len() <= num {
            self.table.resize(num + 1, ABSENT);
        }
        self.table[num] = frame;
        Ok(())
    }

    fn clear_table(&mut self, num: u64) {
        if let Some(slot) = usize::try_from(num)
            .ok()
            .and_then(|n| self.table.get_mut(n))
        {
            *slot = ABSENT;
        }
    }

    /// Drop clean, unpinned frames until the pool is back at its base
    /// capacity (a no-op while it is not above it). Outstanding
    /// [`FrameId`]s are invalidated, so callers only trim at quiescent
    /// points — after a checkpoint, with nothing pinned.
    pub fn trim(&mut self) {
        if self.frames.len() <= self.base_capacity {
            self.hand = 0;
            return;
        }
        let mut i = self.frames.len();
        while self.frames.len() > self.base_capacity && i > 0 {
            i -= 1;
            if self.frames[i].pins == 0 && !self.frames[i].dirty {
                if let Some(num) = self.frames.remove(i).blk {
                    self.clear_table(num);
                }
            }
        }
        // Removal shifted frame indexes: re-point every resident page.
        for i in 0..self.frames.len() {
            if let Some(num) = self.frames[i].blk {
                // Cannot fail: the entry already existed before the shift.
                let _ = self.set_table(num, i);
            }
        }
        self.unused = self.frames.iter().filter(|f| f.blk.is_none()).count();
        self.hand = 0;
        self.rebuild_eligible();
    }

    /// Whether frame `i` could be a clock victim.
    fn is_eligible(&self, i: usize) -> bool {
        let f = &self.frames[i];
        f.pins == 0 && !(self.no_steal && f.dirty)
    }

    /// Recompute the eligibility bitmap from the frames.
    fn rebuild_eligible(&mut self) {
        self.eligible.clear();
        self.eligible.resize(self.frames.len().div_ceil(64), 0);
        for i in 0..self.frames.len() {
            if self.is_eligible(i) {
                self.set_eligible(i);
            }
        }
    }

    fn set_eligible(&mut self, i: usize) {
        let (w, m) = bit(i);
        self.eligible[w] |= m;
    }

    fn clear_eligible(&mut self, i: usize) {
        let (w, m) = bit(i);
        self.eligible[w] &= !m;
    }

    /// The first eligible frame at or after `from`, wrapping once past
    /// the end of the pool.
    fn next_eligible(&self, from: usize) -> Option<usize> {
        let first_from = |from: usize| {
            let (mut w, _) = bit(from);
            let mut word = self.eligible.get(w)? & (u64::MAX << (from % 64));
            while word == 0 {
                w += 1;
                word = *self.eligible.get(w)?;
            }
            Some(w * 64 + word.trailing_zeros() as usize)
        };
        first_from(from).or_else(|| first_from(0))
    }

    /// Pin page `num` into a frame, reading it from disk on a miss.
    /// Evicting a victim writes it back first. Fails with
    /// [`DiskError::BufferAbort`] when every frame is pinned.
    ///
    /// The page table is dense, so its size follows the highest page
    /// pinned: callers bound page numbers they read from disk by the
    /// file's size before pinning them.
    pub fn pin(&mut self, num: u64) -> DiskResult<FrameId> {
        dbpc_obs::racy(BUFFER_PINS, 1);
        if let Some(i) = self.lookup(num) {
            dbpc_obs::racy(BUFFER_HITS, 1);
            if self.frames[i].pins == 0 {
                self.clear_eligible(i);
            }
            let f = &mut self.frames[i];
            f.pins += 1;
            f.referenced = true;
            return Ok(FrameId(i));
        }
        let i = self.victim()?;
        if self.frames[i].blk.is_some() {
            dbpc_obs::racy(BUFFER_EVICTIONS, 1);
        }
        self.flush_frame(i)?;
        self.clear_eligible(i);
        match self.frames[i].blk.replace(num) {
            Some(old) => self.clear_table(old),
            None => self.unused -= 1,
        }
        let frame = &mut self.frames[i];
        frame.pins = 1;
        frame.dirty = false;
        frame.referenced = true;
        let read = match self.slots.source(num) {
            Some(block) => self.fm.read(&self.file, block, &mut frame.page),
            None => {
                frame.page.zero();
                Ok(())
            }
        };
        if let Err(e) = read {
            // The frame's old contents are gone: it holds nothing now.
            frame.blk = None;
            frame.pins = 0;
            self.unused += 1;
            self.set_eligible(i);
            return Err(e);
        }
        self.set_table(num, i)?;
        Ok(FrameId(i))
    }

    /// A frame for a miss: an empty one, a new one while the pool is
    /// below its capacity, or else a clock sweep's unpinned victim. In
    /// no-steal mode dirty frames are also skipped, and a pool with no
    /// eligible frame grows by one frame instead of aborting. The sweep
    /// visits eligible frames only (see the module docs): a sweep over
    /// every frame did nothing to the others but skip them.
    fn victim(&mut self) -> DiskResult<usize> {
        // First preference: a frame holding nothing.
        if self.unused > 0 {
            if let Some(i) = self.frames.iter().position(|f| f.blk.is_none()) {
                return Ok(i);
            }
        }
        if self.frames.len() < self.base_capacity {
            return Ok(self.grow());
        }
        let Some(mut i) = self.next_eligible(self.hand) else {
            if self.no_steal {
                return Ok(self.grow());
            }
            return Err(DiskError::BufferAbort {
                capacity: self.frames.len(),
            });
        };
        // At most one lap clears reference bits; the frame it started
        // from is then found again without one.
        while self.frames[i].referenced {
            self.frames[i].referenced = false;
            i = self.next_eligible(i + 1).unwrap_or(i);
        }
        self.hand = (i + 1) % self.frames.len();
        Ok(i)
    }

    /// Allocate one more (empty, eligible) frame; returns its index.
    fn grow(&mut self) -> usize {
        let i = self.frames.len();
        self.frames.push(Frame::new(self.fm.page_size()));
        if self.eligible.len() <= i / 64 {
            self.eligible.push(0);
        }
        self.set_eligible(i);
        self.unused += 1;
        i
    }

    fn check(&self, id: FrameId) -> DiskResult<()> {
        match self.frames.get(id.0) {
            Some(f) if f.pins > 0 => Ok(()),
            _ => Err(DiskError::Config(format!("frame {} not pinned", id.0))),
        }
    }

    /// Read the pinned frame's page image.
    pub fn page(&self, id: FrameId) -> DiskResult<&Page> {
        self.check(id)?;
        Ok(&self.frames[id.0].page)
    }

    /// Mutate the pinned frame's page image. The caller must follow up
    /// with [`BufferMgr::mark_dirty`] for the change to ever be written.
    pub fn page_mut(&mut self, id: FrameId) -> DiskResult<&mut Page> {
        self.check(id)?;
        Ok(&mut self.frames[id.0].page)
    }

    /// Record that the frame was modified. The frame is pinned, so it is
    /// not eligible either way: its bit is settled when its last pin goes.
    pub fn mark_dirty(&mut self, id: FrameId) -> DiskResult<()> {
        self.check(id)?;
        self.frames[id.0].dirty = true;
        Ok(())
    }

    /// Release one pin. Unpinning an unpinned frame is an error.
    pub fn unpin(&mut self, id: FrameId) -> DiskResult<()> {
        self.check(id)?;
        self.frames[id.0].pins -= 1;
        if self.is_eligible(id.0) {
            self.set_eligible(id.0);
        }
        Ok(())
    }

    /// Write frame `i`, if dirty, to its page's spare slot.
    fn flush_frame(&mut self, i: usize) -> DiskResult<()> {
        let frame = &self.frames[i];
        if !frame.dirty {
            return Ok(());
        }
        let num = frame
            .blk
            .ok_or_else(|| DiskError::Config("dirty frame with no page".to_string()))?;
        self.fm
            .write(&self.file, self.slots.map.spare(num), &frame.page)?;
        self.slots.wrote(num);
        self.frames[i].dirty = false;
        if self.is_eligible(i) {
            self.set_eligible(i);
        }
        dbpc_obs::racy(BUFFER_FLUSHES, 1);
        Ok(())
    }

    /// Write back every dirty frame in page order, leaving pins
    /// untouched. Does not fsync — the caller owns the sync boundary.
    pub fn flush_all(&mut self) -> DiskResult<()> {
        let mut dirty: Vec<usize> = (0..self.frames.len())
            .filter(|&i| self.frames[i].dirty)
            .collect();
        dirty.sort_unstable_by_key(|&i| self.frames[i].blk);
        for i in dirty {
            self.flush_frame(i)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;
    use proptest::prelude::*;

    fn setup(cap: usize) -> (TempDir, BufferMgr) {
        let dir = TempDir::new("buffer").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        let bm = BufferMgr::new(fm, "data", cap, SlotMap::default()).unwrap();
        (dir, bm)
    }

    #[test]
    fn pin_mutate_flush_round_trips() {
        let (_dir, mut bm) = setup(2);
        let id = bm.pin(0).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"buffered").unwrap();
        bm.mark_dirty(id).unwrap();
        bm.unpin(id).unwrap();
        bm.flush_all().unwrap();

        // Force the frame out, then re-pin: bytes must come back from disk.
        for n in 1..=2 {
            let id = bm.pin(n).unwrap();
            bm.unpin(id).unwrap();
        }
        let id = bm.pin(0).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 8).unwrap(), b"buffered");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn fully_pinned_pool_aborts_instead_of_evicting() {
        let (_dir, mut bm) = setup(2);
        let a = bm.pin(0).unwrap();
        let _b = bm.pin(1).unwrap();
        let err = bm.pin(2).unwrap_err();
        assert!(matches!(err, DiskError::BufferAbort { capacity: 2 }));
        bm.unpin(a).unwrap();
        // Now there is a victim.
        bm.pin(2).unwrap();
    }

    #[test]
    fn eviction_writes_dirty_victim_back() {
        let (_dir, mut bm) = setup(1);
        let id = bm.pin(0).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"victim").unwrap();
        bm.mark_dirty(id).unwrap();
        bm.unpin(id).unwrap();

        // Pinning another block evicts frame 0, flushing it.
        let id = bm.pin(1).unwrap();
        bm.unpin(id).unwrap();
        let id = bm.pin(0).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 6).unwrap(), b"victim");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn stale_frame_ids_are_rejected() {
        let (_dir, mut bm) = setup(1);
        let id = bm.pin(0).unwrap();
        bm.unpin(id).unwrap();
        assert!(bm.page(id).is_err());
        assert!(bm.unpin(id).is_err());
        assert!(bm.mark_dirty(id).is_err());
    }

    #[test]
    fn repinning_counts_nested_pins() {
        let (_dir, mut bm) = setup(2);
        let a = bm.pin(0).unwrap();
        let b = bm.pin(0).unwrap();
        assert_eq!(a, b);
        assert_eq!(bm.pinned(), 1);
        bm.unpin(a).unwrap();
        // Still pinned once: not evictable.
        assert_eq!(bm.pinned(), 1);
        bm.unpin(b).unwrap();
        assert_eq!(bm.pinned(), 0);
    }

    /// A map of `pages` pages whose odd-slot bits are `odd`, through the
    /// persisted form.
    fn slot_map(pages: u64, odd: &[u64]) -> SlotMap {
        let mut w = ByteWriter::new();
        w.put_u64(pages);
        for word in odd {
            w.put_u64(*word);
        }
        SlotMap::decode(&mut ByteReader::new(&w.into_bytes())).unwrap()
    }

    fn page_with(text: &[u8]) -> Page {
        let mut page = Page::new(128);
        page.write_at(0, text).unwrap();
        page
    }

    /// A slotted pool reads each page from the slot its map names (zeros
    /// past the page count), writes a dirty page only to the other slot,
    /// reads it back from there once evicted, and after adopting the next
    /// map writes the page back to its first slot.
    #[test]
    fn slotted_pool_reads_the_image_and_writes_the_spare_slot() {
        let dir = TempDir::new("buffer-slots").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        // Page p's slots are blocks p and RUN + p of the first run.
        let (slot0, slot1) = (|p: u64| p, |p: u64| RUN + p);
        // Page 0's image in its slot 1, page 1's in its slot 0.
        fm.write("data", slot1(0), &page_with(b"p0-image")).unwrap();
        fm.write("data", slot0(1), &page_with(b"p1-image")).unwrap();
        fm.write("data", slot1(5), &page_with(b"stale")).unwrap();
        let map = slot_map(2, &[0b01]);
        let mut bm = BufferMgr::new(Arc::clone(&fm), "data", 2, map).unwrap();
        let read = |bm: &mut BufferMgr, num: u64| {
            let id = bm.pin(num).unwrap();
            let bytes = bm.page(id).unwrap().read_at(0, 8).unwrap().to_vec();
            bm.unpin(id).unwrap();
            bytes
        };
        assert_eq!(read(&mut bm, 0), b"p0-image");
        assert_eq!(read(&mut bm, 1), b"p1-image");
        // Past the page count: zeros, whatever a block there holds.
        assert_eq!(read(&mut bm, 5), [0; 8]);

        for (num, text) in [(0, b"p0-next!"), (5, b"p5-next!")] {
            let id = bm.pin(num).unwrap();
            bm.page_mut(id).unwrap().write_at(0, text).unwrap();
            bm.mark_dirty(id).unwrap();
            bm.unpin(id).unwrap();
        }
        bm.flush_all().unwrap();
        let raw = |num: u64| {
            let mut page = Page::new(128);
            fm.read("data", num, &mut page).unwrap();
            page.read_at(0, 8).unwrap().to_vec()
        };
        assert_eq!(raw(slot1(0)), b"p0-image", "the image slot was overwritten");
        assert_eq!(raw(slot0(0)), b"p0-next!");
        assert_eq!(raw(slot1(5)), b"p5-next!");
        // Evict both, then read them back from the slots just written.
        for num in [2, 3, 4] {
            read(&mut bm, num);
        }
        assert_eq!(read(&mut bm, 0), b"p0-next!");
        assert_eq!(read(&mut bm, 5), b"p5-next!");

        let next = bm.next_slot_map();
        assert_eq!(next.pages(), 6);
        assert_eq!(
            (0..7).map(|p| next.image(p)).collect::<Vec<_>>(),
            [
                Some(slot0(0)),
                Some(slot0(1)),
                Some(slot0(2)),
                Some(slot0(3)),
                Some(slot0(4)),
                Some(slot1(5)),
                None
            ]
        );
        assert_eq!(next.min_blocks(), slot1(5) + 1);
        bm.adopt_slot_map(next);
        let id = bm.pin(0).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"p0-third").unwrap();
        bm.mark_dirty(id).unwrap();
        bm.unpin(id).unwrap();
        bm.flush_all().unwrap();
        assert_eq!(raw(slot1(0)), b"p0-third");
        assert_eq!(raw(slot0(0)), b"p0-next!");
    }

    /// The replacement policy with linear scans instead of a page table:
    /// frames looked up by comparing every page number, the first empty
    /// frame found by a scan. Same growth to capacity on demand, same
    /// clock, same no-steal growth, same trim.
    #[derive(Debug, Default, Clone, Copy)]
    struct ModelFrame {
        blk: Option<u64>,
        pins: u32,
        dirty: bool,
        referenced: bool,
    }

    #[derive(Debug, Default)]
    struct LinearModel {
        frames: Vec<ModelFrame>,
        hand: usize,
        base: usize,
        no_steal: bool,
        hits: u64,
        evictions: u64,
    }

    impl LinearModel {
        fn new(capacity: usize) -> LinearModel {
            LinearModel {
                base: capacity,
                ..LinearModel::default()
            }
        }

        /// Frame index pinned, or `None` for a buffer abort.
        fn pin(&mut self, blk: u64) -> Option<usize> {
            if let Some(i) = self.frames.iter().position(|f| f.blk == Some(blk)) {
                self.hits += 1;
                self.frames[i].pins += 1;
                self.frames[i].referenced = true;
                return Some(i);
            }
            let i = self.victim()?;
            if self.frames[i].blk.is_some() {
                self.evictions += 1;
            }
            self.frames[i] = ModelFrame {
                blk: Some(blk),
                pins: 1,
                dirty: false,
                referenced: true,
            };
            Some(i)
        }

        fn victim(&mut self) -> Option<usize> {
            if let Some(i) = self.frames.iter().position(|f| f.blk.is_none()) {
                return Some(i);
            }
            if self.frames.len() < self.base {
                self.frames.push(ModelFrame::default());
                return Some(self.frames.len() - 1);
            }
            for _ in 0..self.frames.len() * 2 {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                let f = &mut self.frames[i];
                if f.pins > 0 || (self.no_steal && f.dirty) {
                    continue;
                }
                if f.referenced {
                    f.referenced = false;
                    continue;
                }
                return Some(i);
            }
            if self.no_steal {
                self.frames.push(ModelFrame::default());
                return Some(self.frames.len() - 1);
            }
            None
        }

        fn trim(&mut self) {
            let mut i = self.frames.len();
            while self.frames.len() > self.base && i > 0 {
                i -= 1;
                if self.frames[i].pins == 0 && !self.frames[i].dirty {
                    self.frames.remove(i);
                }
            }
            self.hand = 0;
        }
    }

    fn counters() -> (u64, u64) {
        let snap = dbpc_obs::local_snapshot();
        (snap.counter(BUFFER_HITS), snap.counter(BUFFER_EVICTIONS))
    }

    /// A pin, unpin, mark-dirty, flush or trim on both the pool and the
    /// model: `(op, page, pick)`, with op 0 or 1 a pin, 2 an unpin, 3 a
    /// mark-dirty, 4 a flush and 5 a trim.
    type Op = (u8, u64, u8);

    /// Drive `ops` through a pool of `base` frames and the linear-scan
    /// model side by side. Both must pin the same frames, abort together,
    /// keep the same frame count and count the same hits and evictions;
    /// after every op the pool's eligibility bitmap must equal one
    /// recomputed from its frames.
    fn check_against_model(base: usize, no_steal: bool, ops: &[Op]) -> TestCaseResult {
        let (_dir, mut bm) = setup(base);
        bm.set_no_steal(no_steal);
        let mut model = LinearModel::new(base);
        model.no_steal = no_steal;
        let mut held: Vec<FrameId> = Vec::new();
        let start = counters();
        for &(op, num, pick) in ops {
            match op {
                0 | 1 => {
                    let got = bm.pin(num);
                    let want = model.pin(num);
                    match (got, want) {
                        (Ok(id), Some(i)) => {
                            prop_assert_eq!(id.0, i);
                            held.push(id);
                        }
                        (Err(DiskError::BufferAbort { .. }), None) => {}
                        (got, want) => {
                            prop_assert!(false, "pin diverged: {:?} vs {:?}", got, want);
                        }
                    }
                }
                2 if !held.is_empty() => {
                    let id = held.swap_remove(pick as usize % held.len());
                    bm.unpin(id).unwrap();
                    model.frames[id.0].pins -= 1;
                }
                3 if !held.is_empty() => {
                    let id = held[pick as usize % held.len()];
                    bm.mark_dirty(id).unwrap();
                    model.frames[id.0].dirty = true;
                }
                4 => {
                    bm.flush_all().unwrap();
                    for f in &mut model.frames {
                        f.dirty = false;
                    }
                }
                // Trim at a quiescent point, as its contract says:
                // release every pin first.
                5 => {
                    for id in held.drain(..) {
                        bm.unpin(id).unwrap();
                        model.frames[id.0].pins -= 1;
                    }
                    bm.trim();
                    model.trim();
                }
                _ => {}
            }
            prop_assert_eq!(bm.capacity(), model.frames.len());
            let bits = bm.eligible.clone();
            bm.rebuild_eligible();
            prop_assert_eq!(&bits, &bm.eligible, "eligibility bitmap out of step");
        }
        let end = counters();
        prop_assert_eq!(end.0 - start.0, model.hits);
        prop_assert_eq!(end.1 - start.1, model.evictions);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A slot map survives its persisted form, bits past its page
        /// count dropped; arbitrary bytes decode to a map or to
        /// `Corrupt`, never a panic or a huge allocation.
        #[test]
        fn slot_map_codec_round_trips_and_rejects_garbage(
            pages in 0u64..300,
            odd in prop::collection::vec(any::<u64>(), 0..6),
            garbage in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            let map = SlotMap { pages, odd }.canonical();
            let mut w = ByteWriter::new();
            map.encode(&mut w);
            let bytes = w.into_bytes();
            let back = SlotMap::decode(&mut ByteReader::new(&bytes)).unwrap();
            prop_assert_eq!(&back, &map);
            for p in 0..pages + 2 {
                prop_assert_eq!(back.image(p).is_some(), p < pages);
            }
            match SlotMap::decode(&mut ByteReader::new(&garbage)) {
                Ok(m) => prop_assert!(m.pages() <= garbage.len() as u64 * 8),
                Err(e) => prop_assert!(matches!(e, DiskError::Corrupt(_)), "{}", e),
            }
        }

        /// The page table and the eligibility bitmap change how a
        /// resident block and a victim are found, never which frame:
        /// random pin / unpin / mark-dirty / flush / trim sequences,
        /// with and without no-steal growth, return the same frames,
        /// aborts, hits and evictions as the linear-scan model.
        #[test]
        fn page_table_matches_linear_scan_model(
            no_steal in any::<bool>(),
            ops in prop::collection::vec((0u8..6, 0u64..20, any::<u8>()), 1..200),
        ) {
            check_against_model(3, no_steal, &ops)?;
        }

        /// The same check on pools that span several bitmap words: a base
        /// of 65 frames, 600 pages, and flushes and trims rare
        /// enough that a no-steal pool grows past 128 frames between
        /// them, so sweeps cross word boundaries and wrap.
        #[test]
        fn wide_pool_matches_linear_scan_model(
            no_steal in any::<bool>(),
            ops in prop::collection::vec(
                (
                    prop_oneof![40 => 0u8..2, 30 => Just(2u8), 30 => Just(3u8), 1 => 4u8..6],
                    0u64..600,
                    any::<u8>(),
                ),
                1..1500,
            ),
        ) {
            check_against_model(65, no_steal, &ops)?;
        }
    }
}
