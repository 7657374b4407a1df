//! Log storage backends.
//!
//! The writer talks to storage through the [`Storage`] trait — one
//! `append` call per batch of encoded record frames plus explicit `sync`
//! barriers — so the same [`crate::WalWriter`] runs against a real file
//! ([`FileStorage`]), an in-memory buffer ([`MemStorage`], used by tests
//! and the crash-point sweep), or a fault-injecting shim (the model
//! checker's `FaultFs`, which fails or tears the k-th batch write or the
//! k-th barrier).

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An append-only byte device with an explicit durability barrier.
// `len` is a byte offset into an append-only device, not a collection
// size; an `is_empty` would have no caller and no meaning here.
#[allow(clippy::len_without_is_empty)]
pub trait Storage: Send {
    /// Appends `bytes` (one batch of record frames, or the file header) to
    /// the log.
    /// An error means the bytes must be assumed lost; the writer treats
    /// the log as broken from this point on.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Durability barrier: on `Ok`, everything appended so far survives a
    /// crash. An error means durability is unknown — fail-stop territory.
    fn sync(&mut self) -> io::Result<()>;

    /// Bytes successfully appended so far (durable or not).
    fn len(&self) -> u64;
}

/// A real file. `sync` maps to `File::sync_data`.
pub struct FileStorage {
    file: File,
    written: u64,
}

impl FileStorage {
    /// Creates (or truncates) the log at `path`.
    pub fn create(path: &Path) -> io::Result<Self> {
        Ok(FileStorage {
            file: File::create(path)?,
            written: 0,
        })
    }

    /// Reopens an existing log for appending, first truncating it to
    /// `valid_len` — the scanner's `valid_bytes` — so a torn tail left by
    /// a crash is physically cut *before* any new frame lands after it.
    /// Appending past a torn tail without this truncation would leave the
    /// damage buried mid-log, where the truncate-at-first-damage scanner
    /// would discard every record after it on the next recovery.
    pub fn reopen(path: &Path, valid_len: u64) -> io::Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::End(0))?;
        Ok(FileStorage {
            file,
            written: valid_len,
        })
    }
}

impl Storage for FileStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.written
    }
}

#[derive(Default)]
struct MemInner {
    buf: Vec<u8>,
    synced: usize,
}

/// An in-memory log with an explicit durability watermark: `sync` moves
/// the watermark to the end of the buffer, modelling what a crash would
/// preserve. [`MemHandle`] (cloneable, shareable) reads the contents
/// after the writer has been moved into the core thread.
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

/// Read side of a [`MemStorage`].
#[derive(Clone)]
pub struct MemHandle {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    /// An empty in-memory log plus its read handle.
    pub fn new() -> (MemStorage, MemHandle) {
        let inner = Arc::new(Mutex::new(MemInner::default()));
        (
            MemStorage {
                inner: Arc::clone(&inner),
            },
            MemHandle { inner },
        )
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.inner
            .lock()
            .expect("mem log lock")
            .buf
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock().expect("mem log lock");
        inner.synced = inner.buf.len();
        Ok(())
    }

    fn len(&self) -> u64 {
        self.inner.lock().expect("mem log lock").buf.len() as u64
    }
}

impl MemHandle {
    /// Everything appended so far (durable or not).
    pub fn bytes(&self) -> Vec<u8> {
        self.inner.lock().expect("mem log lock").buf.clone()
    }

    /// The durable prefix: what a crash right now would preserve (all
    /// bytes up to the last `sync`).
    pub fn synced_bytes(&self) -> Vec<u8> {
        let inner = self.inner.lock().expect("mem log lock");
        inner.buf[..inner.synced].to_vec()
    }

    /// Length of the durable prefix in bytes.
    pub fn synced_len(&self) -> usize {
        self.inner.lock().expect("mem log lock").synced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_tracks_sync_watermark() {
        let (mut s, h) = MemStorage::new();
        s.append(b"abc").unwrap();
        assert_eq!(h.bytes(), b"abc");
        assert_eq!(h.synced_len(), 0, "nothing durable before sync");
        s.sync().unwrap();
        s.append(b"de").unwrap();
        assert_eq!(h.synced_bytes(), b"abc");
        assert_eq!(h.bytes(), b"abcde");
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn reopen_truncates_the_torn_tail_before_appending() {
        let path = std::env::temp_dir().join("relser_wal_storage_reopen_test.log");
        {
            let mut s = FileStorage::create(&path).unwrap();
            s.append(b"goodTORN").unwrap();
            s.sync().unwrap();
        }
        {
            let mut s = FileStorage::reopen(&path, 4).unwrap();
            assert_eq!(s.len(), 4);
            s.append(b"new").unwrap();
            s.sync().unwrap();
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"goodnew");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_storage_roundtrips() {
        let path = std::env::temp_dir().join("relser_wal_storage_test.log");
        {
            let mut s = FileStorage::create(&path).unwrap();
            s.append(b"hello").unwrap();
            s.sync().unwrap();
            assert_eq!(s.len(), 5);
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"hello");
        std::fs::remove_file(&path).ok();
    }
}
