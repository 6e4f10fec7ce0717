//! What the benchmark reads about its own process and host.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::stats::SplitMix64;

/// A `/proc/self/status` field in kB (Linux; 0 where unavailable).
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Peak resident set size of this process, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    status_kb("VmHWM:") * 1024
}

/// Current resident set size of this process, bytes (`VmRSS`).
pub fn rss_bytes() -> u64 {
    status_kb("VmRSS:") * 1024
}

/// Hardware threads available to this process.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The reference kernel's duration on the 2-vCPU host of the baseline in
/// a quiet period (see README.md), nanoseconds. Timings are reported as
/// they would read at this kernel speed; it is a scale only, the same for
/// every run, so it cancels when two runs are compared.
pub const QUIET_KERNEL_NS: f64 = 800_000.0;

/// Entries of the table the reference kernel walks: 8 MiB, more than a
/// core's L2 cache.
const WALK_TABLE: usize = 1 << 21;
/// Keys the reference kernel formats, sorts and indexes.
const KEYS: usize = 4_000;

/// The reference kernel's data, allocated once so that timing it never
/// depends on the state of the program's heap.
struct Kernel {
    table: Vec<u32>,
    keys: Vec<[u8; 16]>,
    index: HashMap<[u8; 16], u32>,
}

impl Kernel {
    fn new() -> Kernel {
        // Sattolo's shuffle: one cycle through every entry.
        let mut rng = SplitMix64::new(0x5EED);
        let mut table: Vec<u32> = (0..WALK_TABLE as u32).collect();
        for i in (1..WALK_TABLE).rev() {
            table.swap(i, rng.below(i as u64) as usize);
        }
        Kernel {
            table,
            keys: Vec::with_capacity(KEYS),
            index: HashMap::with_capacity(KEYS),
        }
    }

    /// Format, sort and index the keys, walk the table, run a multiply
    /// chain; nothing is allocated.
    fn pass(&mut self) -> u64 {
        let mut rng = SplitMix64::new(42);
        self.keys.clear();
        for _ in 0..KEYS {
            let mut key = *b"KEY-000000000000";
            let mut n = rng.below(1_000_000_000_000);
            for d in key[4..].iter_mut().rev() {
                *d = b'0' + (n % 10) as u8;
                n /= 10;
            }
            self.keys.push(key);
        }
        self.keys.sort_unstable();
        self.index.clear();
        for (key, i) in self.keys.iter().zip(0..) {
            self.index.insert(*key, i);
        }
        let mut acc: u64 = self.keys.iter().map(|k| u64::from(self.index[k])).sum();
        let mut at = (acc % WALK_TABLE as u64) as u32;
        for _ in 0..4_000 {
            at = self.table[at as usize];
        }
        acc += u64::from(at);
        for i in 0..100_000u64 {
            acc = (acc ^ (acc >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        acc
    }
}

/// Time a fixed amount of ordinary integer work that is independent of the
/// program, in nanoseconds. The host's speed drifts by up to a factor of
/// two over minutes, as other tenants load the cores and caches it shares,
/// and this kernel's duration moves with it. It runs once untimed, so its
/// data is in cache, then once timed; its duration does not depend on what
/// the program did before. Call it only while the program is idle.
pub fn reference_kernel() -> f64 {
    static KERNEL: OnceLock<Mutex<Kernel>> = OnceLock::new();
    let mut kernel = KERNEL
        .get_or_init(|| Mutex::new(Kernel::new()))
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    std::hint::black_box(kernel.pass());
    let start = Instant::now();
    std::hint::black_box(kernel.pass());
    start.elapsed().as_nanos() as f64
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}
