//! Pinning buffer manager with clock replacement.
//!
//! A bounded pool of page frames mediates all data-page I/O (the snapshot
//! reader/writer in [`super::durable`] goes through it). Frames are
//! allocated on first use, so a pool costs only the pages it has held.
//! Clients pin a
//! block — faulting it in from the file manager on a miss — mutate the
//! frame image, mark it dirty with the LSN of the log record describing
//! the change, and unpin. Eviction uses the clock (second-chance)
//! algorithm over unpinned frames only; a pool where every frame is
//! pinned aborts with [`DiskError::BufferAbort`] rather than evicting
//! under someone's feet.
//!
//! **WAL discipline.** Flushing a dirty frame first calls
//! [`LogMgr::flush_before`] with the frame's recorded LSN, so a data page
//! can never reach disk ahead of the log records that explain it.
//!
//! Counters: `buffer.pins`, `buffer.hits`, `buffer.evictions`,
//! `buffer.flushes`.

use super::file::{BlockId, FileMgr, Page};
use super::log::{LogMgr, Lsn};
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
    blk: Option<BlockId>,
    /// Index of `blk.file` in the page table (meaningless while `blk`
    /// is `None`).
    file: usize,
    pins: u32,
    dirty: bool,
    /// LSN of the newest log record describing this frame's contents.
    lsn: Lsn,
    /// Clock reference bit: second chance before eviction.
    referenced: bool,
}

impl Frame {
    fn new(page_size: usize) -> Frame {
        Frame {
            page: Page::new(page_size),
            blk: None,
            file: 0,
            pins: 0,
            dirty: false,
            lsn: 0,
            referenced: false,
        }
    }
}

/// Handle to a pinned frame, by pool index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameId(usize);

/// Page-table slot of a block that is not resident.
const ABSENT: u32 = u32::MAX;

/// The page table: for every file the pool has seen, a dense
/// block-number → frame-index vector. A pin hit is a short scan over the
/// (few) file names plus one index, never a scan over the frames, and
/// the file name is compared rather than hashed. The vector is as long as
/// the highest block number pinned, 4 bytes per block.
#[derive(Debug, Default)]
struct PageTable {
    files: Vec<(String, Vec<u32>)>,
}

impl PageTable {
    /// Index of `file`, registering it on first sight.
    fn file(&mut self, file: &str) -> usize {
        match self.files.iter().position(|(name, _)| name == file) {
            Some(i) => i,
            None => {
                self.files.push((file.to_string(), Vec::new()));
                self.files.len() - 1
            }
        }
    }

    fn get(&self, file: usize, num: u64) -> Option<usize> {
        let slot = *self.files[file].1.get(usize::try_from(num).ok()?)?;
        (slot != ABSENT).then_some(slot as usize)
    }

    fn set(&mut self, file: usize, num: u64, frame: usize) -> DiskResult<()> {
        let (Ok(num), Ok(frame)) = (usize::try_from(num), u32::try_from(frame)) else {
            return Err(DiskError::Config(format!(
                "block {num} / frame {frame} outside the page table"
            )));
        };
        let blocks = &mut self.files[file].1;
        if blocks.len() <= num {
            blocks.resize(num + 1, ABSENT);
        }
        blocks[num] = frame;
        Ok(())
    }

    fn clear(&mut self, file: usize, num: u64) {
        if let Some(slot) = usize::try_from(num)
            .ok()
            .and_then(|n| self.files[file].1.get_mut(n))
        {
            *slot = ABSENT;
        }
    }
}

/// A pool of at most `capacity` page frames over one [`FileMgr`],
/// allocated as misses need them: the clock only runs once the pool is
/// full.
///
/// In **no-steal** mode ([`BufferMgr::set_no_steal`]) dirty frames are
/// never eviction victims: the pool grows one frame at a time instead,
/// and [`BufferMgr::trim`] shrinks it back to the base capacity once the
/// dirty set has been checkpointed. This is what keeps the on-disk image
/// of a durable heap exactly at its last checkpoint between checkpoints.
///
/// Resident blocks are found through a [`PageTable`] kept in step with
/// every miss, eviction and trim, so a hit costs O(1) however large a
/// no-steal pool has grown.
#[derive(Debug)]
pub struct BufferMgr {
    fm: Arc<FileMgr>,
    frames: Vec<Frame>,
    table: PageTable,
    /// Frames holding no block (one whose read failed, or a no-steal
    /// growth frame); while there are any, a miss takes the
    /// lowest-numbered one instead of allocating or running the clock.
    unused: usize,
    hand: usize,
    /// Capacity requested at construction: the pool grows to it on
    /// demand, and `trim` shrinks back to it.
    base_capacity: usize,
    /// Never evict dirty frames; grow the pool instead.
    no_steal: bool,
}

impl BufferMgr {
    /// Create a pool of up to `capacity` frames (at least 1), none of
    /// them allocated yet.
    pub fn new(fm: Arc<FileMgr>, capacity: usize) -> DiskResult<BufferMgr> {
        if capacity == 0 {
            return Err(DiskError::Config("buffer pool capacity 0".to_string()));
        }
        Ok(BufferMgr {
            fm,
            frames: Vec::new(),
            table: PageTable::default(),
            unused: 0,
            hand: 0,
            base_capacity: capacity,
            no_steal: false,
        })
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
    }

    /// Blocks currently held in dirty frames, in block order.
    pub fn dirty_blocks(&self) -> Vec<BlockId> {
        let mut blks: Vec<BlockId> = self
            .frames
            .iter()
            .filter(|f| f.dirty)
            .filter_map(|f| f.blk.clone())
            .collect();
        blks.sort();
        blks
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
                let f = self.frames.remove(i);
                if let Some(blk) = &f.blk {
                    self.table.clear(f.file, blk.num);
                }
            }
        }
        // Removal shifted frame indexes: re-point every resident block.
        for (i, f) in self.frames.iter().enumerate() {
            if let Some(blk) = &f.blk {
                // Cannot fail: the entry already existed before the shift.
                let _ = self.table.set(f.file, blk.num, i);
            }
        }
        self.unused = self.frames.iter().filter(|f| f.blk.is_none()).count();
        self.hand = 0;
    }

    /// Pin `blk` into a frame, reading it from disk on a miss. Evicting a
    /// victim flushes it first (honoring WAL order via `log`). Fails with
    /// [`DiskError::BufferAbort`] when every frame is pinned.
    ///
    /// The page table is dense per file, so its size follows the highest
    /// block number pinned: callers bound block numbers they read from
    /// disk by the file's size before pinning them.
    pub fn pin(&mut self, blk: &BlockId, log: Option<&mut LogMgr>) -> DiskResult<FrameId> {
        dbpc_obs::racy(BUFFER_PINS, 1);
        let file = self.table.file(&blk.file);
        if let Some(i) = self.table.get(file, blk.num) {
            dbpc_obs::racy(BUFFER_HITS, 1);
            self.frames[i].pins += 1;
            self.frames[i].referenced = true;
            return Ok(FrameId(i));
        }
        let i = self.victim()?;
        if self.frames[i].blk.is_some() {
            dbpc_obs::racy(BUFFER_EVICTIONS, 1);
        }
        self.flush_frame(i, log)?;
        let frame = &mut self.frames[i];
        match frame.blk.as_mut() {
            Some(old) => {
                self.table.clear(frame.file, old.num);
                // Reuse the name's allocation: most misses stay in one file.
                old.file.clone_from(&blk.file);
                old.num = blk.num;
            }
            None => {
                self.unused -= 1;
                frame.blk = Some(blk.clone());
            }
        }
        frame.file = file;
        frame.pins = 1;
        frame.dirty = false;
        frame.lsn = 0;
        frame.referenced = true;
        if let Err(e) = self.fm.read(blk, &mut frame.page) {
            // The frame's old contents are gone: it holds nothing now.
            frame.blk = None;
            frame.pins = 0;
            self.unused += 1;
            return Err(e);
        }
        self.table.set(file, blk.num, i)?;
        Ok(FrameId(i))
    }

    /// A frame for a miss: an empty one, a new one while the pool is
    /// below its capacity, or else a clock sweep's unpinned victim. In
    /// no-steal mode dirty frames are also skipped, and an exhausted
    /// sweep grows the pool by one frame instead of aborting.
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
        // Two full sweeps: the first clears reference bits, the second
        // must then find any eligible frame if one exists.
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
            return Ok(i);
        }
        if self.no_steal {
            return Ok(self.grow());
        }
        Err(DiskError::BufferAbort {
            capacity: self.frames.len(),
        })
    }

    /// Allocate one more (empty) frame; returns its index.
    fn grow(&mut self) -> usize {
        self.frames.push(Frame::new(self.fm.page_size()));
        self.unused += 1;
        self.frames.len() - 1
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

    /// Record that the frame was modified, described by log record `lsn`
    /// (0 for changes outside the log, e.g. snapshot bulk writes that are
    /// fenced by a manifest instead).
    pub fn mark_dirty(&mut self, id: FrameId, lsn: Lsn) -> DiskResult<()> {
        self.check(id)?;
        let f = &mut self.frames[id.0];
        f.dirty = true;
        f.lsn = f.lsn.max(lsn);
        Ok(())
    }

    /// Release one pin. Unpinning an unpinned frame is an error.
    pub fn unpin(&mut self, id: FrameId) -> DiskResult<()> {
        self.check(id)?;
        self.frames[id.0].pins -= 1;
        Ok(())
    }

    fn flush_frame(&mut self, i: usize, log: Option<&mut LogMgr>) -> DiskResult<()> {
        let frame = &self.frames[i];
        if !frame.dirty {
            return Ok(());
        }
        if let Some(log) = log {
            log.flush_before(frame.lsn)?;
        } else if frame.lsn > 0 {
            return Err(DiskError::Config(
                "flushing a logged page without a log manager".to_string(),
            ));
        }
        let blk = frame
            .blk
            .as_ref()
            .ok_or_else(|| DiskError::Config("dirty frame with no block".to_string()))?;
        self.fm.write(blk, &frame.page)?;
        self.frames[i].dirty = false;
        dbpc_obs::racy(BUFFER_FLUSHES, 1);
        Ok(())
    }

    /// Write back every dirty frame (honoring WAL order), leaving pins
    /// untouched. Does not fsync — the caller owns the sync boundary.
    pub fn flush_all(&mut self, mut log: Option<&mut LogMgr>) -> DiskResult<()> {
        for i in 0..self.frames.len() {
            self.flush_frame(i, log.as_deref_mut())?;
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
        let bm = BufferMgr::new(fm, cap).unwrap();
        (dir, bm)
    }

    #[test]
    fn pin_mutate_flush_round_trips() {
        let (_dir, mut bm) = setup(2);
        let blk = BlockId::new("data", 0);
        let id = bm.pin(&blk, None).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"buffered").unwrap();
        bm.mark_dirty(id, 0).unwrap();
        bm.unpin(id).unwrap();
        bm.flush_all(None).unwrap();

        // Force the frame out, then re-pin: bytes must come back from disk.
        for n in 1..=2 {
            let id = bm.pin(&BlockId::new("data", n), None).unwrap();
            bm.unpin(id).unwrap();
        }
        let id = bm.pin(&blk, None).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 8).unwrap(), b"buffered");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn fully_pinned_pool_aborts_instead_of_evicting() {
        let (_dir, mut bm) = setup(2);
        let a = bm.pin(&BlockId::new("data", 0), None).unwrap();
        let _b = bm.pin(&BlockId::new("data", 1), None).unwrap();
        let err = bm.pin(&BlockId::new("data", 2), None).unwrap_err();
        assert!(matches!(err, DiskError::BufferAbort { capacity: 2 }));
        bm.unpin(a).unwrap();
        // Now there is a victim.
        bm.pin(&BlockId::new("data", 2), None).unwrap();
    }

    #[test]
    fn eviction_writes_dirty_victim_back() {
        let (_dir, mut bm) = setup(1);
        let blk0 = BlockId::new("data", 0);
        let id = bm.pin(&blk0, None).unwrap();
        bm.page_mut(id).unwrap().write_at(0, b"victim").unwrap();
        bm.mark_dirty(id, 0).unwrap();
        bm.unpin(id).unwrap();

        // Pinning another block evicts frame 0, flushing it.
        let id = bm.pin(&BlockId::new("data", 1), None).unwrap();
        bm.unpin(id).unwrap();
        let id = bm.pin(&blk0, None).unwrap();
        assert_eq!(bm.page(id).unwrap().read_at(0, 6).unwrap(), b"victim");
        bm.unpin(id).unwrap();
    }

    #[test]
    fn stale_frame_ids_are_rejected() {
        let (_dir, mut bm) = setup(1);
        let id = bm.pin(&BlockId::new("data", 0), None).unwrap();
        bm.unpin(id).unwrap();
        assert!(bm.page(id).is_err());
        assert!(bm.unpin(id).is_err());
        assert!(bm.mark_dirty(id, 0).is_err());
    }

    #[test]
    fn repinning_counts_nested_pins() {
        let (_dir, mut bm) = setup(2);
        let blk = BlockId::new("data", 0);
        let a = bm.pin(&blk, None).unwrap();
        let b = bm.pin(&blk, None).unwrap();
        assert_eq!(a, b);
        assert_eq!(bm.pinned(), 1);
        bm.unpin(a).unwrap();
        // Still pinned once: not evictable.
        assert_eq!(bm.pinned(), 1);
        bm.unpin(b).unwrap();
        assert_eq!(bm.pinned(), 0);
    }

    /// The replacement policy with linear scans instead of a page table:
    /// frames looked up by comparing every block id, the first empty
    /// frame found by a scan. Same growth to capacity on demand, same
    /// clock, same no-steal growth, same trim.
    #[derive(Debug, Default, Clone, Copy)]
    struct ModelFrame {
        /// `(file index, block number)`.
        blk: Option<(u8, u64)>,
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
        fn pin(&mut self, blk: (u8, u64)) -> Option<usize> {
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The page table changes how a resident block is found, never
        /// which frame: random pin / unpin / mark-dirty / flush / trim
        /// sequences over two files, with and without no-steal growth,
        /// return the same frames, aborts, hits and evictions as the
        /// linear-scan model.
        #[test]
        fn page_table_matches_linear_scan_model(
            no_steal in any::<bool>(),
            ops in prop::collection::vec((0u8..6, 0u8..2, 0u64..10, any::<u8>()), 1..200),
        ) {
            let (_dir, mut bm) = setup(3);
            bm.set_no_steal(no_steal);
            let mut model = LinearModel::new(3);
            model.no_steal = no_steal;
            let files = ["data", "other"];
            let mut held: Vec<FrameId> = Vec::new();
            let start = counters();
            for (op, file, num, pick) in ops {
                match op {
                    0 | 1 => {
                        let got = bm.pin(&BlockId::new(files[file as usize], num), None);
                        let want = model.pin((file, num));
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
                        bm.mark_dirty(id, 0).unwrap();
                        model.frames[id.0].dirty = true;
                    }
                    4 => {
                        bm.flush_all(None).unwrap();
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
            }
            let end = counters();
            prop_assert_eq!(end.0 - start.0, model.hits);
            prop_assert_eq!(end.1 - start.1, model.evictions);
        }
    }
}
