//! Property tests for the disk substrate's safety invariants.
//!
//! Three families:
//!
//! * random pin/unpin/write/flush interleavings never evict a pinned
//!   page and always round-trip page bytes through the buffer pool (and,
//!   after a flush, through a fresh pool over the next slot map), and
//!   under no-steal never write a dirty page before a flush;
//! * WAL recovery is idempotent — opening a log with a lost or torn
//!   tail twice yields exactly the records and file bytes of opening
//!   it once;
//! * scratch directories clean up after themselves (the temp-dir
//!   hygiene guard).

use dbpc_storage::disk::codec::{ByteReader, ByteWriter};
use dbpc_storage::disk::tempdir::scratch_root;
use dbpc_storage::disk::{BufferMgr, DiskError, FileMgr, LogMgr, Page, SlotMap, TempDir};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

const PAGE: usize = 64;
const BLOCKS: u64 = 6;
const CAPACITY: usize = 3;

/// Read a whole paged file back as one byte vector.
fn file_bytes(fm: &FileMgr, name: &str) -> Vec<u8> {
    let mut page = Page::new(fm.page_size());
    let mut out = Vec::new();
    for b in 0..fm.block_count(name).unwrap() {
        fm.read(name, b, &mut page).unwrap();
        out.extend_from_slice(page.as_slice());
    }
    out
}

/// A map of `pages` pages, each with its image in slot 1: where a pool
/// starting from [`SlotMap::default`] (every image in slot 0) writes each
/// page it flushes.
fn spare_slots(pages: u64) -> SlotMap {
    let mut w = ByteWriter::new();
    w.put_u64(pages);
    for _ in 0..pages.div_ceil(64) {
        w.put_u64(u64::MAX);
    }
    SlotMap::decode(&mut ByteReader::new(&w.into_bytes())).unwrap()
}

fn wal_payload(i: usize, len: usize) -> Vec<u8> {
    vec![(i as u8).wrapping_add(1); len]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Model-checked buffer pool: drive a random interleaving of
    /// pin / write / unpin / flush against a shadow map of what every
    /// block should contain. A pinned frame must never change out from
    /// under its holder (that would mean it was evicted), `pinned()`
    /// must track the distinct pinned blocks exactly, a full pool must
    /// abort rather than evict, and after a final flush a fresh pool
    /// over the same file, opened on the old pool's next slot map, must
    /// read back the shadow map byte-for-byte.
    #[test]
    fn buffer_interleavings_preserve_pins_and_bytes(
        ops in prop::collection::vec((0u8..4, 0u64..BLOCKS, any::<u8>()), 1..40),
    ) {
        let dir = TempDir::new("buffer-prop").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut bm = BufferMgr::new(fm.clone(), "data", CAPACITY, SlotMap::default()).unwrap();

        // Shadow model: what each block's page should read as right now.
        let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut pinned: Vec<(dbpc_storage::disk::FrameId, u64)> = Vec::new();

        for &(op, block, fill) in &ops {
            match op {
                // Pin: a hit or fault-in must surface the modeled bytes;
                // a full pool must refuse with BufferAbort, never evict.
                0 => match bm.pin(block) {
                    Ok(id) => {
                        let exp = expected.entry(block).or_insert_with(|| vec![0u8; PAGE]);
                        let got = bm.page(id).unwrap().read_at(0, PAGE).unwrap();
                        prop_assert_eq!(&got, exp, "pin of block {} saw stale bytes", block);
                        pinned.push((id, block));
                    }
                    Err(DiskError::BufferAbort { capacity }) => {
                        let held: BTreeSet<u64> = pinned.iter().map(|p| p.1).collect();
                        prop_assert_eq!(capacity, CAPACITY);
                        prop_assert_eq!(
                            held.len(), CAPACITY,
                            "abort with only {} distinct blocks pinned", held.len()
                        );
                        prop_assert!(!held.contains(&block), "abort on an already-pinned block");
                    }
                    Err(e) => prop_assert!(false, "unexpected pin failure: {e}"),
                },
                // Write through a pinned handle, mirrored into the model.
                1 if !pinned.is_empty() => {
                    let (id, blk) = pinned[block as usize % pinned.len()];
                    let off = fill as usize % (PAGE - 8);
                    bm.page_mut(id).unwrap().write_at(off, &[fill; 8]).unwrap();
                    bm.mark_dirty(id).unwrap();
                    let exp = expected.entry(blk).or_insert_with(|| vec![0u8; PAGE]);
                    exp[off..off + 8].fill(fill);
                }
                2 if !pinned.is_empty() => {
                    let (id, _) = pinned.remove(block as usize % pinned.len());
                    bm.unpin(id).unwrap();
                }
                3 => bm.flush_all().unwrap(),
                _ => {}
            }

            // Invariants after every step: pin accounting is exact, and
            // every pinned frame still holds its block's modeled bytes.
            let held: BTreeSet<u64> = pinned.iter().map(|p| p.1).collect();
            prop_assert_eq!(bm.pinned(), held.len());
            for &(id, blk) in &pinned {
                let page = bm.page(id);
                prop_assert!(page.is_ok(), "pinned frame for block {} was evicted", blk);
                let got = page.unwrap().read_at(0, PAGE).unwrap();
                prop_assert_eq!(&got, &expected[&blk], "pinned block {} mutated underneath", blk);
            }
        }

        // Drain pins, force everything to disk, and check durability with
        // a brand-new pool over the same file and the pages it placed.
        for (id, _) in pinned.drain(..) {
            bm.unpin(id).unwrap();
        }
        bm.flush_all().unwrap();
        let map = bm.next_slot_map();
        drop(bm);
        let mut fresh = BufferMgr::new(fm, "data", CAPACITY, map).unwrap();
        for (blk, exp) in &expected {
            let id = fresh.pin(*blk).unwrap();
            let got = fresh.page(id).unwrap().read_at(0, PAGE).unwrap();
            prop_assert_eq!(&got, exp, "block {} did not round-trip to disk", blk);
            fresh.unpin(id).unwrap();
        }
    }

    /// The no-steal contract, model-checked: with no-steal on, a random
    /// interleaving of pin / write / unpin / flush / trim never lets a
    /// dirty frame reach disk through eviction — every block of the file
    /// holds, byte for byte, the image as of the last `flush_all` of the
    /// page whose spare slot it is, or zeros — and a miss on a pool
    /// whose frames are all pinned or dirty grows the pool by one frame
    /// instead of aborting (nor grows it while a clean unpinned frame is
    /// left). A trim at a quiescent point shrinks it back to its base.
    #[test]
    fn no_steal_interleavings_keep_disk_at_last_flush(
        ops in prop::collection::vec((0u8..5, 0u64..BLOCKS, any::<u8>()), 1..60),
    ) {
        let dir = TempDir::new("buffer-nosteal").unwrap();
        let fm = Arc::new(FileMgr::new(dir.path(), PAGE).unwrap());
        let mut bm = BufferMgr::new(fm.clone(), "data", CAPACITY, SlotMap::default()).unwrap();
        bm.set_no_steal(true);
        let spare = spare_slots(BLOCKS);

        let zero = vec![0u8; PAGE];
        // What each block reads as through the pool, and on disk.
        let mut expected: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut flushed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        let mut pinned: Vec<(dbpc_storage::disk::FrameId, u64)> = Vec::new();

        for &(op, block, fill) in &ops {
            match op {
                0 => {
                    // Under no-steal, dirty and pinned blocks are all
                    // resident, each in its own frame.
                    let mut held: BTreeSet<u64> = pinned.iter().map(|p| p.1).collect();
                    held.extend(&dirty);
                    let before = bm.capacity();
                    let id = bm.pin(block);
                    prop_assert!(id.is_ok(), "no-steal pin failed: {:?}", id);
                    let id = id.unwrap();
                    let got = bm.page(id).unwrap().read_at(0, PAGE).unwrap();
                    prop_assert_eq!(&got, expected.get(&block).unwrap_or(&zero));
                    pinned.push((id, block));
                    if before >= CAPACITY && held.len() == before && !held.contains(&block) {
                        prop_assert_eq!(bm.capacity(), before + 1, "full no-steal pool did not grow");
                    } else if before >= CAPACITY {
                        prop_assert_eq!(bm.capacity(), before, "pool grew with a clean victim left");
                    }
                }
                1 if !pinned.is_empty() => {
                    let (id, blk) = pinned[block as usize % pinned.len()];
                    let off = fill as usize % (PAGE - 8);
                    bm.page_mut(id).unwrap().write_at(off, &[fill; 8]).unwrap();
                    bm.mark_dirty(id).unwrap();
                    expected.entry(blk).or_insert_with(|| zero.clone())[off..off + 8].fill(fill);
                    dirty.insert(blk);
                }
                2 if !pinned.is_empty() => {
                    let (id, _) = pinned.remove(block as usize % pinned.len());
                    bm.unpin(id).unwrap();
                }
                3 => {
                    bm.flush_all().unwrap();
                    flushed = expected.clone();
                    dirty.clear();
                }
                // The checkpoint's quiescent point: release, flush, trim.
                4 => {
                    for (id, _) in pinned.drain(..) {
                        bm.unpin(id).unwrap();
                    }
                    bm.flush_all().unwrap();
                    flushed = expected.clone();
                    dirty.clear();
                    bm.trim();
                    prop_assert!(bm.capacity() <= CAPACITY, "trim left {} frames", bm.capacity());
                }
                _ => {}
            }

            let want: Vec<u64> = dirty.iter().copied().collect();
            prop_assert_eq!(bm.dirty_blocks(), want);
            // Every raw block of the file: a page's spare slot holds its
            // last flushed image, every other block zeros.
            let raw = file_bytes(&fm, "data");
            for (b, bytes) in raw.chunks(PAGE).enumerate() {
                let page = (0..BLOCKS).find(|&p| spare.image(p) == Some(b as u64));
                let want = page.and_then(|p| flushed.get(&p)).unwrap_or(&zero);
                prop_assert_eq!(
                    bytes, want.as_slice(),
                    "block {} ({:?}) reached disk before a flush", b, page
                );
            }
        }
    }

    /// WAL recovery is idempotent: whatever tail a crash leaves — a
    /// staged-but-unflushed suffix, or garbage torn into the stream right
    /// after the durable prefix — recovering twice yields exactly the
    /// records and the file bytes of recovering once, and never loses a
    /// flushed record.
    #[test]
    fn wal_recovery_twice_equals_recovery_once(
        lens in prop::collection::vec(1usize..200, 1..16),
        flush_after in 0usize..16,
        torn in any::<bool>(),
    ) {
        let dir = TempDir::new("wal-prop").unwrap();
        let flushed = flush_after.min(lens.len());

        // Phase 1: a writer appends records, flushes a prefix (or, in the
        // torn case, everything), then "crashes" — the unflushed tail is
        // simply lost with the process; the torn case additionally smears
        // garbage over the stream right past the durable end.
        {
            let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
            let (mut log, recs) = LogMgr::open(fm.clone(), "wal").unwrap();
            assert!(recs.is_empty());
            for (i, &len) in lens.iter().enumerate() {
                log.append(&wal_payload(i, len)).unwrap();
                if i + 1 == flushed {
                    log.flush().unwrap();
                }
            }
            if torn {
                log.flush().unwrap();
                // The durable stream ends exactly here; plant a garbage
                // length header at that offset, as a torn append would.
                let end: usize = lens.iter().map(|l| 12 + l).sum();
                let blk = (end / 128) as u64;
                let mut page = Page::new(128);
                if !end.is_multiple_of(128) {
                    fm.read("wal", blk, &mut page).unwrap();
                }
                let n = (128 - end % 128).min(4);
                page.write_at(end % 128, &[0xFF; 4][..n]).unwrap();
                fm.write("wal", blk, &page).unwrap();
                fm.sync("wal").unwrap();
            }
        }

        // Phase 2 and 3: recover twice with fresh managers; compare.
        let fm = Arc::new(FileMgr::new(dir.path(), 128).unwrap());
        let (log1, once) = LogMgr::open(fm.clone(), "wal").unwrap();
        drop(log1);
        let bytes_once = file_bytes(&fm, "wal");
        let (log2, twice) = LogMgr::open(fm.clone(), "wal").unwrap();
        drop(log2);
        let bytes_twice = file_bytes(&fm, "wal");

        prop_assert_eq!(&once, &twice, "second recovery saw different records");
        prop_assert_eq!(bytes_once, bytes_twice, "second recovery rewrote the file");

        // No flushed record may be lost, and everything recovered must be
        // an exact prefix of what was appended, in order, LSNs from 1.
        let floor = if torn { lens.len() } else { flushed };
        prop_assert!(once.len() >= floor, "lost flushed records: {} < {}", once.len(), floor);
        prop_assert!(once.len() <= lens.len());
        for (i, (lsn, payload)) in once.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64 + 1);
            prop_assert_eq!(payload, &wal_payload(i, lens[i]));
        }
    }
}

/// Temp-dir hygiene guard: every scratch directory a test creates —
/// including nested trees and paged files — is gone after drop, and
/// nothing of ours lingers under the shared scratch root.
#[test]
fn tempdirs_leave_no_strays_behind() {
    let mut made = Vec::new();
    for i in 0..4 {
        let dir = TempDir::new(&format!("hygiene-{i}")).unwrap();
        std::fs::create_dir_all(dir.path().join("nested/deep")).unwrap();
        std::fs::write(dir.path().join("nested/deep/file.bin"), b"payload").unwrap();
        let fm = FileMgr::new(dir.path(), 128).unwrap();
        fm.write("data", 0, &Page::new(128)).unwrap();
        fm.sync("data").unwrap();
        made.push(dir.path().to_path_buf());
        drop(dir);
    }
    for path in &made {
        assert!(!path.exists(), "stray tempdir left behind: {path:?}");
    }
    // Other tests run concurrently with their own live tempdirs, so only
    // assert about the paths this test created.
    if let Ok(entries) = std::fs::read_dir(scratch_root()) {
        for entry in entries.flatten() {
            assert!(
                !made.contains(&entry.path()),
                "dropped tempdir still present under scratch root: {:?}",
                entry.path()
            );
        }
    }
}
