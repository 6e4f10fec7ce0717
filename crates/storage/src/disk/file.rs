//! Paged random-access files: [`Page`] and [`FileMgr`].
//!
//! The file manager is the only module that touches the OS filesystem.
//! Every file it manages is an array of fixed-size pages addressed by a
//! file name and a block number; reads and writes move whole pages. The
//! heap's buffer pool and the WAL each own one file, and the manifest and
//! meta blobs are files of their own. Reading past the end of a file
//! yields a zeroed page (the convention the log manager's recovery scan
//! relies on: a zero length prefix means "no record here"), and writing
//! past the end extends the file.
//!
//! Physical writes and syncs are numbered by a shared op counter, and an
//! optional [`DiskFaultPlan`] consults that number to decide whether the
//! op is allowed to complete — see [`super::faults`]. Counters
//! `disk.reads` / `disk.writes` / `disk.syncs` flow into the ambient
//! `dbpc-obs` metrics sheet.

use super::faults::{DiskFault, DiskFaultPlan};
use super::{DiskError, DiskResult};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Metric: pages read from disk.
pub const DISK_READS: &str = "disk.reads";
/// Metric: pages written to disk (including partially, under a fault).
pub const DISK_WRITES: &str = "disk.writes";
/// Metric: file syncs issued (including ones a fault suppressed).
pub const DISK_SYNCS: &str = "disk.syncs";

/// Default page size — 4 KiB, matching the filesystem block size so a
/// torn page is a physically honest failure unit.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

/// The kind of physical operation, as seen by the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskOp {
    Write,
    Sync,
}

/// A fixed-size in-memory page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Vec<u8>,
}

impl Page {
    pub fn new(size: usize) -> Page {
        Page {
            bytes: vec![0; size],
        }
    }

    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    /// Reset every byte to zero.
    pub fn zero(&mut self) {
        self.bytes.fill(0);
    }

    /// Copy `src` into the page starting at `offset`, bounds-checked.
    pub fn write_at(&mut self, offset: usize, src: &[u8]) -> DiskResult<()> {
        let end = offset.checked_add(src.len()).filter(|&e| e <= self.size());
        match end {
            Some(end) => {
                self.bytes[offset..end].copy_from_slice(src);
                Ok(())
            }
            None => Err(DiskError::Bounds {
                offset,
                len: src.len(),
                page: self.size(),
            }),
        }
    }

    /// Borrow `len` bytes starting at `offset`, bounds-checked.
    pub fn read_at(&self, offset: usize, len: usize) -> DiskResult<&[u8]> {
        let end = offset.checked_add(len).filter(|&e| e <= self.size());
        match end {
            Some(end) => Ok(&self.bytes[offset..end]),
            None => Err(DiskError::Bounds {
                offset,
                len,
                page: self.size(),
            }),
        }
    }
}

/// Manages page-granular I/O for every file under one root directory.
///
/// Thread-safe: the open-file cache sits behind a mutex, and reads/writes
/// use positioned I/O (`pread`/`pwrite`) so concurrent accessors never
/// race on a shared file cursor.
#[derive(Debug)]
pub struct FileMgr {
    root: PathBuf,
    page_size: usize,
    files: Mutex<BTreeMap<String, File>>,
    faults: Option<DiskFaultPlan>,
    ops: AtomicU64,
}

impl FileMgr {
    /// Open a manager rooted at `root` (created if absent) with the given
    /// page size.
    pub fn new(root: impl Into<PathBuf>, page_size: usize) -> DiskResult<FileMgr> {
        let root = root.into();
        if page_size < 64 {
            return Err(DiskError::Config(format!(
                "page size {page_size} too small (minimum 64)"
            )));
        }
        std::fs::create_dir_all(&root).map_err(|e| io_err("create root", &root, &e))?;
        Ok(FileMgr {
            root,
            page_size,
            files: Mutex::new(BTreeMap::new()),
            faults: None,
            ops: AtomicU64::new(0),
        })
    }

    /// Attach a fault plan; `None` clears it.
    pub fn with_faults(mut self, faults: Option<DiskFaultPlan>) -> FileMgr {
        self.faults = faults.filter(|p| !p.is_empty());
        self
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Number of physical write/sync ops issued so far — the index the
    /// fault plan sees for the *next* op.
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    fn path_of(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn with_file<R>(
        &self,
        name: &str,
        op: &'static str,
        f: impl FnOnce(&File) -> std::io::Result<R>,
    ) -> DiskResult<R> {
        let mut files = self.files.lock().map_err(|_| DiskError::Poisoned)?;
        if !files.contains_key(name) {
            let path = self.path_of(name);
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&path)
                .map_err(|e| io_err(op, &path, &e))?;
            files.insert(name.to_string(), file);
        }
        let file = &files[name];
        f(file).map_err(|e| io_err(op, &self.path_of(name), &e))
    }

    /// Read block `num` of `file` (a name under the root) into `page`.
    /// Pages beyond the current end of file come back zeroed.
    pub fn read(&self, file: &str, num: u64, page: &mut Page) -> DiskResult<()> {
        if page.size() != self.page_size {
            return Err(DiskError::Config(format!(
                "page size {} does not match manager page size {}",
                page.size(),
                self.page_size
            )));
        }
        let off = num * self.page_size as u64;
        self.with_file(file, "read", |file| {
            let buf = page.as_mut_slice();
            buf.fill(0);
            let mut done = 0;
            while done < buf.len() {
                match file.read_at(&mut buf[done..], off + done as u64) {
                    Ok(0) => break,
                    Ok(n) => done += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })?;
        dbpc_obs::racy(DISK_READS, 1);
        Ok(())
    }

    /// Write `page` to block `num` of `file`, extending the file if
    /// needed. Subject to fault injection: a torn or short write persists
    /// a prefix of the page and reports [`DiskError::Injected`].
    pub fn write(&self, file: &str, num: u64, page: &Page) -> DiskResult<()> {
        if page.size() != self.page_size {
            return Err(DiskError::Config(format!(
                "page size {} does not match manager page size {}",
                page.size(),
                self.page_size
            )));
        }
        let op_index = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.decide(op_index, DiskOp::Write));
        let prefix = match fault {
            None => page.size(),
            Some(DiskFault::TornWrite) => page.size() / 2,
            Some(DiskFault::ShortWrite) => page.size() / 4,
            // Cannot happen: the plan only returns sync faults for sync ops.
            Some(DiskFault::FsyncFail) => page.size(),
        };
        let off = num * self.page_size as u64;
        self.with_file(file, "write", |file| {
            file.write_all_at(&page.as_slice()[..prefix], off)
        })?;
        dbpc_obs::racy(DISK_WRITES, 1);
        match fault {
            Some(f @ (DiskFault::TornWrite | DiskFault::ShortWrite)) => {
                Err(DiskError::Injected { fault: f, op_index })
            }
            _ => Ok(()),
        }
    }

    /// Flush `name`'s data to stable storage. Subject to fault injection:
    /// an injected fsync failure skips the sync and reports
    /// [`DiskError::Injected`].
    pub fn sync(&self, name: &str) -> DiskResult<()> {
        let op_index = self.ops.fetch_add(1, Ordering::Relaxed);
        let fault = self
            .faults
            .as_ref()
            .and_then(|p| p.decide(op_index, DiskOp::Sync));
        dbpc_obs::racy(DISK_SYNCS, 1);
        if let Some(f) = fault {
            return Err(DiskError::Injected { fault: f, op_index });
        }
        self.with_file(name, "sync", |file| file.sync_all())
    }

    /// Number of pages currently in `name` (rounding a partial tail page
    /// up, so a torn final page is still visible to recovery).
    pub fn block_count(&self, name: &str) -> DiskResult<u64> {
        let len = self.with_file(name, "stat", |file| file.metadata().map(|m| m.len()))?;
        Ok(len.div_ceil(self.page_size as u64))
    }

    /// Whether `name` exists under the root.
    pub fn exists(&self, name: &str) -> bool {
        self.path_of(name).exists()
    }

    /// Delete `name` if present (used for retired snapshot/log
    /// generations). Missing files are fine; other errors surface.
    pub fn remove(&self, name: &str) -> DiskResult<()> {
        let mut files = self.files.lock().map_err(|_| DiskError::Poisoned)?;
        files.remove(name);
        let path = self.path_of(name);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err("remove", &path, &e)),
        }
    }
}

fn io_err(op: &'static str, path: &Path, e: &std::io::Error) -> DiskError {
    DiskError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::super::tempdir::TempDir;
    use super::*;

    #[test]
    fn pages_round_trip_and_eof_reads_zero() {
        let dir = TempDir::new("filemgr-roundtrip").unwrap();
        let fm = FileMgr::new(dir.path(), 128).unwrap();
        let mut page = Page::new(128);
        page.write_at(0, b"hello pages").unwrap();
        fm.write("data", 3, &page).unwrap();
        assert_eq!(fm.block_count("data").unwrap(), 4);

        let mut back = Page::new(128);
        fm.read("data", 3, &mut back).unwrap();
        assert_eq!(back.read_at(0, 11).unwrap(), b"hello pages");

        // Block 1 was never written: the file has a hole there, read as zeros.
        fm.read("data", 1, &mut back).unwrap();
        assert!(back.as_slice().iter().all(|&b| b == 0));
        // Fully past EOF too.
        fm.read("data", 99, &mut back).unwrap();
        assert!(back.as_slice().iter().all(|&b| b == 0));
    }

    #[test]
    fn torn_write_persists_half_and_errors() {
        let dir = TempDir::new("filemgr-torn").unwrap();
        let plan = DiskFaultPlan::default().with_fault_at(0, DiskFault::TornWrite);
        let fm = FileMgr::new(dir.path(), 128)
            .unwrap()
            .with_faults(Some(plan));
        let mut page = Page::new(128);
        page.as_mut_slice().fill(0xAB);
        let err = fm.write("data", 0, &page).unwrap_err();
        assert!(matches!(
            err,
            DiskError::Injected {
                fault: DiskFault::TornWrite,
                ..
            }
        ));
        let mut back = Page::new(128);
        fm.read("data", 0, &mut back).unwrap();
        assert!(back.as_slice()[..64].iter().all(|&b| b == 0xAB));
        assert!(back.as_slice()[64..].iter().all(|&b| b == 0));
    }

    #[test]
    fn fsync_fault_reports_and_page_bounds_are_checked() {
        let dir = TempDir::new("filemgr-fsync").unwrap();
        let plan = DiskFaultPlan::default().with_fault_at(1, DiskFault::FsyncFail);
        let fm = FileMgr::new(dir.path(), 128)
            .unwrap()
            .with_faults(Some(plan));
        let page = Page::new(128);
        fm.write("data", 0, &page).unwrap(); // op 0
        assert!(matches!(
            fm.sync("data").unwrap_err(), // op 1
            DiskError::Injected {
                fault: DiskFault::FsyncFail,
                ..
            }
        ));
        fm.sync("data").unwrap(); // op 2: clean

        let mut small = Page::new(128);
        assert!(small.write_at(120, &[0u8; 16]).is_err());
        assert!(small.read_at(120, 16).is_err());
    }
}
