//! A counting storage backend over `MemVfs`.
//!
//! Flush policy: `sync` is counted and remembered but costs nothing (the
//! backing store is memory), so write latencies are the host's CPU
//! time, not a device's. Each file's last synced length is kept, so a
//! crash image holds only bytes that were flushed.

use dtr_mapping::durable::{MemVfs, Vfs};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Totals of the storage calls so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub appends: u64,
    pub bytes: u64,
    pub syncs: u64,
}

#[derive(Default)]
pub struct CountingVfs {
    inner: MemVfs,
    appends: AtomicU64,
    bytes: AtomicU64,
    syncs: AtomicU64,
    synced_len: Mutex<BTreeMap<String, u64>>,
}

impl CountingVfs {
    pub fn new() -> Self {
        CountingVfs::default()
    }

    pub fn counts(&self) -> IoCounts {
        IoCounts {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }

    fn synced(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, u64>> {
        self.synced_len.lock().expect("synced-length map poisoned")
    }

    /// What a crash would leave of `dir`: every file cut back to its last
    /// synced length; files never synced are gone.
    pub fn crash_image(&self, dir: &str) -> io::Result<MemVfs> {
        let image = MemVfs::new();
        let synced = self.synced();
        for name in self.inner.list(dir)? {
            let path = format!("{dir}/{name}");
            if let Some(&len) = synced.get(&path) {
                let bytes = self.inner.read(&path)?;
                image.append(&path, &bytes[..len as usize])?;
            }
        }
        Ok(image)
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn append(&self, path: &str, data: &[u8]) -> io::Result<()> {
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(path, data)
    }

    fn sync(&self, path: &str) -> io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        self.inner.sync(path)?;
        let len = self.inner.len(path)?;
        self.synced().insert(path.to_string(), len);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)?;
        if let Some(synced) = self.synced().get_mut(path) {
            *synced = (*synced).min(len);
        }
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        self.inner.remove(path)?;
        self.synced().remove(path);
        Ok(())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        self.inner.create_dir_all(dir)
    }

    fn len(&self, path: &str) -> io::Result<u64> {
        self.inner.len(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_image_keeps_only_synced_bytes() {
        let vfs = CountingVfs::new();
        vfs.append("wal/a", b"head").unwrap();
        vfs.sync("wal/a").unwrap();
        vfs.append("wal/a", b"tail").unwrap();
        vfs.append("wal/b", b"never synced").unwrap();
        let image = vfs.crash_image("wal").unwrap();
        assert_eq!(image.read("wal/a").unwrap(), b"head");
        assert!(image.read("wal/b").is_err());
        assert_eq!(
            vfs.counts(),
            IoCounts {
                appends: 3,
                bytes: 20,
                syncs: 1
            }
        );
    }
}
