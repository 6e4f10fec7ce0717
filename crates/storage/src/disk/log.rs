//! Write-ahead log manager: append-only checksummed records over pages.
//!
//! The log is a byte stream chunked into [`FileMgr`] pages. Each record
//! is framed as `[u32 payload-len][u64 fnv64(payload)][payload]` and may
//! span page boundaries; a zero length marks the end of the valid
//! stream (pages are zero-initialized, so freshly extended space reads
//! as "no record"). Records are numbered by 1-based log sequence
//! numbers ([`Lsn`]) in append order.
//!
//! **Flush discipline.** [`LogMgr::append`] only stages bytes into the
//! in-memory tail page; nothing is durable until [`LogMgr::flush`] (write
//! tail + fsync) or [`LogMgr::flush_os`] (write tail, let the OS page
//! cache carry it — durable against process kill, not power loss)
//! succeeds. The log records logical redo only: no heap page is ever
//! written under an LSN, because the heap's pool keeps dirty pages in RAM
//! until a checkpoint writes them to slots the durable generation does
//! not read (see `disk::durable`).
//!
//! **Recovery.** [`LogMgr::open`] scans the file from block zero,
//! verifying each record's checksum. The first zero length, truncated
//! frame, or checksum mismatch ends the valid prefix; anything after it
//! (a torn tail from a crashed append) is discarded by writing back a
//! cleansed tail page with the garbage zeroed. That cleansing write makes
//! recovery idempotent — a second `open` sees exactly the same prefix and
//! finds nothing left to truncate.

use super::codec::fnv64;
use super::file::{FileMgr, Page};
use super::{DiskError, DiskResult};
use std::sync::Arc;

/// 1-based log sequence number; 0 means "nothing logged yet".
pub type Lsn = u64;

/// The intact records a recovery scan found, in LSN order.
pub type RecoveredRecords = Vec<(Lsn, Vec<u8>)>;

/// Metric: records appended.
pub const WAL_APPENDS: &str = "wal.appends";
/// Metric: flushes (tail-page write + sync handoff) performed.
pub const WAL_FLUSHES: &str = "wal.flushes";
/// Metric: framed bytes appended (header + payload).
pub const WAL_BYTES: &str = "wal.bytes";
/// Metric: intact records recovered by `open`.
pub const WAL_RECOVERED: &str = "wal.recovered_records";
/// Metric: torn tails truncated by `open`.
pub const WAL_TRUNCATIONS: &str = "wal.truncations";

const REC_HEADER: usize = 4 + 8;

/// Append-only write-ahead log over one paged file.
#[derive(Debug)]
pub struct LogMgr {
    fm: Arc<FileMgr>,
    /// The log's file name.
    file: String,
    /// Block number of the tail block.
    tail: u64,
    /// In-memory image of the tail block.
    page: Page,
    tail_used: usize,
    next_lsn: Lsn,
    /// Tail page has staged bytes not yet written to the file.
    dirty: bool,
    /// Bytes were written to the file since the last successful sync.
    needs_sync: bool,
}

impl LogMgr {
    /// Open (creating if absent) the log `file` under `fm`, running the
    /// recovery scan. Returns the manager positioned at the valid tail
    /// plus every intact record in LSN order.
    pub fn open(
        fm: Arc<FileMgr>,
        file: impl Into<String>,
    ) -> DiskResult<(LogMgr, RecoveredRecords)> {
        let file = file.into();
        let ps = fm.page_size();
        let blocks = fm.block_count(&file)?;
        let mut stream = vec![0u8; blocks as usize * ps];
        let mut scratch = Page::new(ps);
        for b in 0..blocks {
            fm.read(&file, b, &mut scratch)?;
            stream[b as usize * ps..][..ps].copy_from_slice(scratch.as_slice());
        }

        let mut records: RecoveredRecords = Vec::new();
        let mut pos = 0usize;
        let mut torn = false;
        loop {
            if pos + REC_HEADER > stream.len() {
                // A partial header at the very end of the file can only be
                // garbage from a torn append (a full header would have
                // extended the file by a whole page).
                torn = pos < stream.len() && stream[pos..].iter().any(|&b| b != 0);
                break;
            }
            let mut len4 = [0u8; 4];
            len4.copy_from_slice(&stream[pos..pos + 4]);
            let len = u32::from_le_bytes(len4) as usize;
            if len == 0 {
                break;
            }
            let mut sum8 = [0u8; 8];
            sum8.copy_from_slice(&stream[pos + 4..pos + 12]);
            let sum = u64::from_le_bytes(sum8);
            let start = pos + REC_HEADER;
            if len > stream.len().saturating_sub(start) {
                torn = true;
                break;
            }
            let payload = &stream[start..start + len];
            if fnv64(payload) != sum {
                torn = true;
                break;
            }
            records.push((records.len() as Lsn + 1, payload.to_vec()));
            pos = start + len;
        }
        dbpc_obs::racy(WAL_RECOVERED, records.len() as u64);

        let last = records.len() as Lsn;
        let mut mgr = LogMgr {
            fm,
            file,
            tail: (pos / ps) as u64,
            page: Page::new(ps),
            tail_used: pos % ps,
            next_lsn: last + 1,
            dirty: false,
            needs_sync: false,
        };
        // Rebuild the tail page image from the valid prefix, zeroing
        // whatever follows it.
        if mgr.tail < blocks {
            let base = mgr.tail as usize * ps;
            mgr.page
                .as_mut_slice()
                .copy_from_slice(&stream[base..base + ps]);
            mgr.page.as_mut_slice()[mgr.tail_used..].fill(0);
        }
        if torn {
            // Cleansing write: persist the zeroed tail so the torn bytes
            // can never be re-read, making a second recovery a no-op.
            dbpc_obs::racy(WAL_TRUNCATIONS, 1);
            mgr.fm.write(&mgr.file, mgr.tail, &mgr.page)?;
            mgr.fm.sync(&mgr.file)?;
        }
        Ok((mgr, records))
    }

    /// Stage `payload` as the next record. Returns its LSN. Durable only
    /// after a later flush; a record that spans into fresh pages may write
    /// filled pages out eagerly (still covered by the flush contract).
    /// The frame (`[len][fnv64][payload]`) is staged straight into the
    /// tail page — no intermediate buffer on the commit path.
    pub fn append(&mut self, payload: &[u8]) -> DiskResult<Lsn> {
        if payload.is_empty() {
            return Err(DiskError::Config("empty WAL record".to_string()));
        }
        if payload.len() > u32::MAX as usize {
            return Err(DiskError::Config("WAL record too large".to_string()));
        }
        let len_le = (payload.len() as u32).to_le_bytes();
        let sum_le = fnv64(payload).to_le_bytes();

        let ps = self.page.size();
        for chunk in [&len_le[..], &sum_le[..], payload] {
            let mut off = 0usize;
            while off < chunk.len() {
                let n = (ps - self.tail_used).min(chunk.len() - off);
                self.page.write_at(self.tail_used, &chunk[off..off + n])?;
                self.tail_used += n;
                self.dirty = true;
                off += n;
                if self.tail_used == ps {
                    self.fm.write(&self.file, self.tail, &self.page)?;
                    self.needs_sync = true;
                    self.tail += 1;
                    self.tail_used = 0;
                    self.page.zero();
                    self.dirty = false;
                }
            }
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        dbpc_obs::racy(WAL_APPENDS, 1);
        dbpc_obs::racy(WAL_BYTES, (REC_HEADER + payload.len()) as u64);
        Ok(lsn)
    }

    fn flush_inner(&mut self, sync: bool) -> DiskResult<()> {
        if self.dirty {
            self.fm.write(&self.file, self.tail, &self.page)?;
            self.dirty = false;
            self.needs_sync = true;
        }
        if sync && self.needs_sync {
            self.fm.sync(&self.file)?;
            self.needs_sync = false;
        }
        dbpc_obs::racy(WAL_FLUSHES, 1);
        Ok(())
    }

    /// Write the tail page and fsync: every appended record is durable
    /// against power loss when this returns.
    pub fn flush(&mut self) -> DiskResult<()> {
        self.flush_inner(true)
    }

    /// Write the tail page without fsync: every appended record is in the
    /// OS page cache, durable against *process* death but not power loss.
    pub fn flush_os(&mut self) -> DiskResult<()> {
        self.flush_inner(false)
    }
}

#[cfg(test)]
mod tests {
    use super::super::faults::{DiskFault, DiskFaultPlan};
    use super::super::tempdir::TempDir;
    use super::*;

    fn mgr(dir: &TempDir, ps: usize) -> Arc<FileMgr> {
        Arc::new(FileMgr::new(dir.path(), ps).unwrap())
    }

    #[test]
    fn records_survive_reopen_in_order() {
        let dir = TempDir::new("wal-reopen").unwrap();
        let fm = mgr(&dir, 128);
        let (mut log, recs) = LogMgr::open(fm.clone(), "wal").unwrap();
        assert!(recs.is_empty());
        for i in 0..10u64 {
            // Records deliberately larger than a page for some i.
            let payload = vec![i as u8; 40 + (i as usize % 3) * 100];
            let lsn = log.append(&payload).unwrap();
            assert_eq!(lsn, i + 1);
        }
        log.flush().unwrap();
        drop(log);

        let (mut log2, recs) = LogMgr::open(fm, "wal").unwrap();
        assert_eq!(recs.len(), 10);
        for (i, (lsn, payload)) in recs.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(payload.len(), 40 + (i % 3) * 100);
            assert!(payload.iter().all(|&b| b == i as u8));
        }
        assert_eq!(log2.append(b"next").unwrap(), 11);
    }

    #[test]
    fn unflushed_tail_is_lost_on_reopen() {
        let dir = TempDir::new("wal-unflushed").unwrap();
        let fm = mgr(&dir, 128);
        let (mut log, _) = LogMgr::open(fm.clone(), "wal").unwrap();
        log.append(b"durable-one").unwrap();
        log.flush().unwrap();
        log.append(b"staged-only").unwrap();
        drop(log); // no flush: simulated kill

        let (_, recs) = LogMgr::open(fm, "wal").unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].1, b"durable-one");
    }

    #[test]
    fn torn_tail_is_truncated_and_recovery_is_idempotent() {
        let dir = TempDir::new("wal-torn").unwrap();
        let fm = mgr(&dir, 128);
        let (mut log, _) = LogMgr::open(fm.clone(), "wal").unwrap();
        log.append(&[7u8; 50]).unwrap();
        log.flush().unwrap();
        // Tear the next flush: the record spills into the tail page whose
        // write is torn in half.
        drop(log);
        drop(fm);
        let plan = DiskFaultPlan::default().with_fault_at(0, DiskFault::TornWrite);
        let fm = Arc::new(
            FileMgr::new(dir.path(), 128)
                .unwrap()
                .with_faults(Some(plan)),
        );
        let (mut log, recs) = LogMgr::open(fm, "wal").unwrap();
        assert_eq!(recs.len(), 1);
        // The record spans into a fresh page, so the torn write fires
        // either on the eager full-page write inside append or on flush.
        let staged = log
            .append(&[9u8; 200])
            .map(|_| ())
            .and_then(|()| log.flush());
        assert!(staged.is_err());
        drop(log);

        let fm = mgr(&dir, 128);
        let (_, recs_a) = LogMgr::open(fm.clone(), "wal").unwrap();
        let (_, recs_b) = LogMgr::open(fm, "wal").unwrap();
        assert_eq!(recs_a, recs_b, "recovery twice == once");
        assert_eq!(recs_a.len(), 1);
        assert_eq!(recs_a[0].1, vec![7u8; 50]);
    }

    #[test]
    fn appends_after_recovery_continue_the_stream() {
        let dir = TempDir::new("wal-continue").unwrap();
        let fm = mgr(&dir, 128);
        let (mut log, _) = LogMgr::open(fm.clone(), "wal").unwrap();
        log.append(b"first").unwrap();
        log.flush().unwrap();
        drop(log);

        let (mut log, recs) = LogMgr::open(fm.clone(), "wal").unwrap();
        assert_eq!(recs.len(), 1);
        let lsn = log.append(b"second").unwrap();
        assert_eq!(lsn, 2);
        log.flush().unwrap();
        drop(log);

        let (_, recs) = LogMgr::open(fm, "wal").unwrap();
        assert_eq!(recs, vec![(1, b"first".to_vec()), (2, b"second".to_vec())]);
    }
}
