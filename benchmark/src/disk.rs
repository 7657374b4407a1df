//! The modelled log device behind the `durable` workload.
//!
//! The sandbox's real disk was measured (by the issue that defined this
//! benchmark) at 1 010–1 453 txn/s on one input with `sync_data` p50
//! drifting 183 → 277 µs between 4-second windows, so a gated workload
//! cannot sit on it. This store writes real files (every append is a
//! `write`), but its durability barrier is a *model*: `sync` takes a
//! fixed [`SYNC_SERVICE`] — sleep the head of it, spin the rest — and
//! moves that segment's synced watermark to the end of the file. Nothing
//! is handed to `sync_data`: the files live inside the checkout, on
//! whatever disk that is, and its flush time is exactly the noise this
//! device exists to remove.
//!
//! Killing a process keeps the OS cache, so a crash test that only stops
//! the server proves nothing. [`ModelDisk::crash_and_read`] cuts every
//! file back to its watermark first: recovery sees only what `sync`
//! acknowledged.

use crate::sut::{FileStorage, SegmentStore, Storage};
use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Service time of one durability barrier.
pub const SYNC_SERVICE: Duration = Duration::from_micros(200);
/// The tail of the service time is spun, not slept: a sleep's wake-up is
/// late by some 65 us here (a 60 us sleep measured p50 125 us, p99
/// 190 us), a spin to a deadline is not. Sleeping the head still hands
/// the vCPU to the reactor and the client, as a real `fsync` would.
const SPIN_TAIL: Duration = Duration::from_micros(140);

#[derive(Default)]
struct Shared {
    /// Per retained segment: bytes a crash would preserve.
    synced: BTreeMap<u64, u64>,
    /// Exact duration of every barrier since the last harvest.
    sync_ns: Vec<u64>,
}

/// A directory of segment files with modelled barriers; clones share
/// the same state, so one clone writes (inside the server) while
/// another reads the watermarks afterwards.
#[derive(Clone)]
pub struct ModelDisk {
    dir: PathBuf,
    shared: Arc<Mutex<Shared>>,
}

impl ModelDisk {
    /// Opens `dir` (created, emptied of old segments) as a device.
    pub fn create(dir: &Path) -> io::Result<ModelDisk> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)?;
        }
        std::fs::create_dir_all(dir)?;
        Ok(ModelDisk {
            dir: dir.to_path_buf(),
            shared: Arc::default(),
        })
    }

    fn path(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("wal-{seq:08}.log"))
    }

    /// Durations of the barriers issued since the last call.
    pub fn take_sync_ns(&self) -> Vec<u64> {
        std::mem::take(&mut self.shared.lock().expect("disk lock").sync_ns)
    }

    /// The crash: truncates every retained segment file to its synced
    /// watermark, then reads the files back, ascending by sequence.
    pub fn crash_and_read(&self) -> io::Result<Vec<(u64, Vec<u8>)>> {
        let synced = self.shared.lock().expect("disk lock").synced.clone();
        let mut segments = Vec::with_capacity(synced.len());
        for (seq, watermark) in synced {
            let path = self.path(seq);
            OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(watermark)?;
            segments.push((seq, std::fs::read(&path)?));
        }
        Ok(segments)
    }

    /// Removes the device's directory.
    pub fn remove(self) -> io::Result<()> {
        std::fs::remove_dir_all(&self.dir)
    }
}

impl SegmentStore for ModelDisk {
    fn create(&mut self, seq: u64) -> io::Result<Box<dyn Storage>> {
        let file = FileStorage::create(&self.path(seq))?;
        self.shared.lock().expect("disk lock").synced.insert(seq, 0);
        Ok(Box::new(ModelFile {
            file,
            seq,
            shared: Arc::clone(&self.shared),
        }))
    }

    fn delete(&mut self, seq: u64) -> io::Result<()> {
        self.shared.lock().expect("disk lock").synced.remove(&seq);
        std::fs::remove_file(self.path(seq))
    }
}

struct ModelFile {
    file: FileStorage,
    seq: u64,
    shared: Arc<Mutex<Shared>>,
}

impl Storage for ModelFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        let deadline = t0 + SYNC_SERVICE;
        std::thread::sleep(SYNC_SERVICE - SPIN_TAIL);
        while Instant::now() < deadline {
            std::hint::spin_loop();
        }
        let took = t0.elapsed().as_nanos() as u64;
        let mut shared = self.shared.lock().expect("disk lock");
        // A segment deleted while its writer is still alive keeps no
        // watermark: there is nothing left for a crash to preserve.
        if let Some(w) = shared.synced.get_mut(&self.seq) {
            *w = self.file.len();
        }
        shared.sync_ns.push(took);
        Ok(())
    }

    fn len(&self) -> u64 {
        self.file.len()
    }
}
