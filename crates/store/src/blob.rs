//! A key→bytes store backed by real files (the "local NVMe disk").

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;

/// Why a store operation failed.
///
/// Converts to and from [`std::io::Error`] so callers that plumb store
/// failures through `io::Result` chains (the WAL logger, checkpointers)
/// keep working with `?`, while callers that care can match on the typed
/// variants.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The key cannot be mapped to a path inside the store root.
    InvalidKey {
        /// The offending key.
        key: String,
        /// What rule it broke.
        reason: &'static str,
    },
    /// The blob is present but its content violates the caller's protocol
    /// (e.g. a pointer blob that must be UTF-8 text).
    Corrupt {
        /// The offending key.
        key: String,
        /// What invariant the content broke.
        reason: &'static str,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::InvalidKey { key, reason } => {
                write!(f, "invalid store key {key:?}: {reason}")
            }
            StoreError::Corrupt { key, reason } => {
                write!(f, "corrupt store blob {key:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::InvalidKey { .. } | StoreError::Corrupt { .. } => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<StoreError> for std::io::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Io(e) => e,
            StoreError::InvalidKey { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
            }
            StoreError::Corrupt { .. } => {
                std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
            }
        }
    }
}

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// A file-backed blob store with byte accounting.
///
/// Keys are arbitrary strings (slashes allowed — they become
/// subdirectories). Writes are atomic (temp file + rename) so a crash
/// mid-write never leaves a torn blob, mirroring the durability contract
/// logging needs.
#[derive(Debug, Clone)]
pub struct BlobStore {
    root: PathBuf,
    bytes_written: Arc<AtomicU64>,
    bytes_read: Arc<AtomicU64>,
}

impl BlobStore {
    /// Opens (creating if needed) a store rooted at `root`, removing the
    /// temp files of puts whose process has exited: a writer killed
    /// between write and rename leaves one behind ([`BlobStore::put`]).
    pub fn open(root: impl Into<PathBuf>) -> StoreResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        remove_orphaned_temps(&root)?;
        Ok(BlobStore {
            root,
            bytes_written: Arc::new(AtomicU64::new(0)),
            bytes_read: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Creates a store in a fresh unique temp directory labelled for
    /// debuggability.
    pub fn new_temp(label: &str) -> StoreResult<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("swift-{label}-{}-{n}", std::process::id()));
        Self::open(dir)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_of(&self, key: &str) -> StoreResult<PathBuf> {
        if key.split(['/', '\\']).any(|seg| seg == "..") {
            return Err(StoreError::InvalidKey {
                key: key.to_string(),
                reason: "path traversal (`..`) would escape the store root",
            });
        }
        if Path::new(key).is_absolute() {
            return Err(StoreError::InvalidKey {
                key: key.to_string(),
                reason: "absolute paths are not store keys",
            });
        }
        Ok(self.root.join(key))
    }

    /// Writes `data` under `key` (atomic replace).
    ///
    /// Every put writes its own temp file beside the key — the key's full
    /// file name, the process id and a process-wide counter, then `.tmp`
    /// (`iter3.bin.4711.9.tmp`) — and renames it over the key. So
    /// `iter3.bin` and `iter3.delta` never share a temp file, and
    /// concurrent puts of one key each rename a complete payload: the last
    /// rename wins. [`BlobStore::list`] hides `*.tmp`, and
    /// [`BlobStore::open`] removes those whose writer has exited.
    pub fn put(&self, key: &str, data: &[u8]) -> StoreResult<()> {
        static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
        let path = self.path_of(key)?;
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(tmp_name);
        if let Err(e) = fs::write(&tmp, data).and_then(|()| fs::rename(&tmp, &path)) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Reads the blob under `key`.
    pub fn get(&self, key: &str) -> StoreResult<Bytes> {
        let data = fs::read(self.path_of(key)?)?;
        self.bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(Bytes::from(data))
    }

    /// Reads the blob under `key` as UTF-8 text (pointer blobs such as a
    /// checkpoint `latest`). Non-UTF-8 content surfaces as a typed
    /// [`StoreError::Corrupt`] — never a silently coerced default.
    pub fn get_utf8(&self, key: &str) -> StoreResult<String> {
        let data = self.get(key)?;
        String::from_utf8(data.to_vec()).map_err(|_| StoreError::Corrupt {
            key: key.to_string(),
            reason: "pointer blob is not valid UTF-8",
        })
    }

    /// Whether `key` exists (false for keys that are not valid).
    pub fn contains(&self, key: &str) -> bool {
        self.path_of(key).map(|p| p.is_file()).unwrap_or(false)
    }

    /// Deletes `key` (ok if absent).
    pub fn delete(&self, key: &str) -> StoreResult<()> {
        match fs::remove_file(self.path_of(key)?) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// All keys under the (optional) prefix, sorted.
    pub fn list(&self, prefix: &str) -> StoreResult<Vec<String>> {
        let mut keys = Vec::new();
        let base = self.root.clone();
        fn walk(dir: &Path, base: &Path, keys: &mut Vec<String>) -> StoreResult<()> {
            if !dir.is_dir() {
                return Ok(());
            }
            for entry in fs::read_dir(dir)? {
                let entry = entry?;
                let path = entry.path();
                if path.is_dir() {
                    walk(&path, base, keys)?;
                } else if path.extension().map(|e| e != "tmp").unwrap_or(true) {
                    // Every walked path sits under `base` by construction;
                    // a failure here means the walk itself escaped the root.
                    let rel = path
                        .strip_prefix(base)
                        .map_err(|_| StoreError::InvalidKey {
                            key: path.to_string_lossy().into_owned(),
                            reason: "listed file lies outside the store root",
                        })?;
                    keys.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
            Ok(())
        }
        walk(&base, &base, &mut keys)?;
        keys.retain(|k| k.starts_with(prefix));
        keys.sort();
        Ok(keys)
    }

    /// Deletes every key under the prefix; returns the count removed —
    /// the garbage-collection primitive logging uses after a global
    /// checkpoint (§5.1).
    pub fn delete_prefix(&self, prefix: &str) -> StoreResult<usize> {
        let keys = self.list(prefix)?;
        for k in &keys {
            self.delete(k)?;
        }
        Ok(keys.len())
    }

    /// Total bytes currently stored.
    pub fn total_bytes(&self) -> StoreResult<u64> {
        let mut total = 0u64;
        for key in self.list("")? {
            total += fs::metadata(self.path_of(&key)?)?.len();
        }
        Ok(total)
    }

    /// Cumulative bytes written through this handle (and clones).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Cumulative bytes read through this handle (and clones).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Removes the entire store directory.
    pub fn destroy(self) -> StoreResult<()> {
        Ok(fs::remove_dir_all(&self.root)?)
    }
}

/// Removes every put temp file under `dir` whose writer is not running.
/// A running writer's temp file, this process's included, may belong to a
/// put in flight, so it stays.
fn remove_orphaned_temps(dir: &Path) -> StoreResult<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            remove_orphaned_temps(&path)?;
        } else if temp_writer(&path).is_some_and(|pid| !process_running(pid)) {
            match fs::remove_file(&path) {
                // Another process opening the same root got there first.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }
    }
    Ok(())
}

/// The writer's pid in a put's temp file name
/// (`<file name>.<pid>.<counter>.tmp`), or `None` for any other file.
fn temp_writer(path: &Path) -> Option<u32> {
    let name = path.file_name()?.to_str()?.strip_suffix(".tmp")?;
    let mut parts = name.rsplitn(3, '.');
    parts.next()?.parse::<u64>().ok()?;
    let pid = parts.next()?.parse().ok()?;
    parts.next().map(|_| pid)
}

/// Whether process `pid` is running on this host. Only a Linux `/proc`
/// can tell; without one every writer counts as running, so nothing is
/// removed.
fn process_running(pid: u32) -> bool {
    let proc = Path::new("/proc");
    !cfg!(target_os = "linux") || !proc.join("self").exists() || proc.join(pid.to_string()).exists()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let s = BlobStore::new_temp("t1").unwrap();
        s.put("a/b/c.bin", b"hello").unwrap();
        assert_eq!(s.get("a/b/c.bin").unwrap().as_ref(), b"hello");
        assert!(s.contains("a/b/c.bin"));
        assert!(!s.contains("a/b/d.bin"));
        s.destroy().unwrap();
    }

    #[test]
    fn put_overwrites_atomically() {
        let s = BlobStore::new_temp("t2").unwrap();
        s.put("k", b"one").unwrap();
        s.put("k", b"two").unwrap();
        assert_eq!(s.get("k").unwrap().as_ref(), b"two");
        s.destroy().unwrap();
    }

    #[test]
    fn list_with_prefix_sorted() {
        let s = BlobStore::new_temp("t3").unwrap();
        s.put("log/m0/2.bin", b"x").unwrap();
        s.put("log/m0/1.bin", b"y").unwrap();
        s.put("log/m1/1.bin", b"z").unwrap();
        s.put("ckpt/0.bin", b"c").unwrap();
        assert_eq!(
            s.list("log/m0").unwrap(),
            vec!["log/m0/1.bin".to_string(), "log/m0/2.bin".to_string()]
        );
        assert_eq!(s.list("").unwrap().len(), 4);
        s.destroy().unwrap();
    }

    #[test]
    fn delete_prefix_collects_garbage() {
        let s = BlobStore::new_temp("t4").unwrap();
        for i in 0..5 {
            s.put(&format!("log/{i}.bin"), &[0u8; 10]).unwrap();
        }
        s.put("ckpt/latest.bin", b"keep").unwrap();
        assert_eq!(s.delete_prefix("log/").unwrap(), 5);
        assert_eq!(s.list("").unwrap(), vec!["ckpt/latest.bin".to_string()]);
        s.destroy().unwrap();
    }

    #[test]
    fn byte_accounting() {
        let s = BlobStore::new_temp("t5").unwrap();
        s.put("a", &[0u8; 100]).unwrap();
        s.put("b", &[0u8; 50]).unwrap();
        let _ = s.get("a").unwrap();
        assert_eq!(s.bytes_written(), 150);
        assert_eq!(s.bytes_read(), 100);
        assert_eq!(s.total_bytes().unwrap(), 150);
        s.destroy().unwrap();
    }

    #[test]
    fn delete_missing_is_ok() {
        let s = BlobStore::new_temp("t6").unwrap();
        s.delete("nope").unwrap();
        s.destroy().unwrap();
    }

    #[test]
    fn traversal_rejected_as_typed_error() {
        let s = BlobStore::new_temp("t7").unwrap();
        let err = s.put("../evil", b"x").unwrap_err();
        assert!(matches!(err, StoreError::InvalidKey { .. }), "got: {err:?}");
        assert!(err.to_string().contains("path traversal"), "got: {err}");
        // Dotted *file names* are fine; only `..` path segments escape.
        s.put("log/archive.v2.bin", b"ok").unwrap();
        s.put("log/../../evil", b"x").unwrap_err();
        // The io::Error conversion keeps `?`-chains working and maps to
        // InvalidInput.
        let io: std::io::Error = s.put("/abs", b"x").unwrap_err().into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidInput);
        s.destroy().unwrap();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn open_removes_temp_files_of_exited_writers() {
        // A writer killed between write and rename leaves its temp file;
        // the next open of the root removes it. A running writer's temp
        // file (this process's) and the blobs themselves stay.
        let s = BlobStore::new_temp("orphans").unwrap();
        s.put("wal/k.bin", b"kept").unwrap();
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let exited = child.id();
        child.wait().unwrap();
        let orphan = s.root().join(format!("wal/k.bin.{exited}.0.tmp"));
        let in_flight = s
            .root()
            .join(format!("wal/k.delta.{}.0.tmp", std::process::id()));
        fs::write(&orphan, b"torn").unwrap();
        fs::write(&in_flight, b"half").unwrap();
        let reopened = BlobStore::open(s.root()).unwrap();
        assert!(!orphan.exists(), "an exited writer's temp file survived");
        assert!(
            in_flight.exists(),
            "a running writer's temp file was removed"
        );
        assert_eq!(reopened.list("").unwrap(), vec!["wal/k.bin"]);
        assert_eq!(reopened.get("wal/k.bin").unwrap().as_ref(), b"kept");
        s.destroy().unwrap();
    }
}

#[cfg(test)]
mod concurrency_tests {
    use super::*;
    use std::thread;

    #[test]
    fn concurrent_writers_do_not_corrupt() {
        // The logger's writer thread and checkpoint persister share a
        // store; concurrent distinct-key writes must all land intact.
        let s = BlobStore::new_temp("conc").unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let s = s.clone();
                thread::spawn(move || {
                    for i in 0..25 {
                        let key = format!("t{t}/f{i}.bin");
                        s.put(&key, &[t as u8; 64]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.list("").unwrap().len(), 100);
        for t in 0..4u8 {
            let v = s.get(&format!("t{t}/f7.bin")).unwrap();
            assert!(v.iter().all(|&b| b == t));
        }
        s.destroy().unwrap();
    }

    #[test]
    fn concurrent_same_key_last_write_wins_atomically() {
        // Atomic replace: readers never observe a torn value.
        let s = BlobStore::new_temp("conc2").unwrap();
        s.put("k", &[0u8; 128]).unwrap();
        let writer = {
            let s = s.clone();
            thread::spawn(move || {
                for v in 1..=50u8 {
                    s.put("k", &[v; 128]).unwrap();
                }
            })
        };
        let reader = {
            let s = s.clone();
            thread::spawn(move || {
                for _ in 0..200 {
                    let v = s.get("k").unwrap();
                    assert_eq!(v.len(), 128);
                    let first = v[0];
                    assert!(v.iter().all(|&b| b == first), "torn read");
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        s.destroy().unwrap();
    }

    #[test]
    fn sibling_and_same_key_puts_use_their_own_temp_files() {
        // `k.bin` and `k.delta` differ only in extension, and both threads
        // also put one shared key. Each put writes its own temp file, so
        // every put succeeds and every read is one complete payload that
        // was written under that key: a writer's tag byte, then one round
        // number throughout.
        const ROUNDS: u8 = 200;
        const LEN: usize = 4096;
        let s = BlobStore::new_temp("tmpnames").unwrap();
        let payload = |tag: u8, round: u8| {
            let mut p = vec![round; LEN];
            p[0] = tag;
            p
        };
        let check = |key: &str, v: &[u8], tags: &[u8]| {
            assert_eq!(v.len(), LEN, "{key}: torn payload");
            assert!(tags.contains(&v[0]), "{key}: payload of another key");
            assert!(v[1..].iter().all(|&b| b == v[1]), "{key}: mixed payload");
        };
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = [(b'b', "k.bin"), (b'd', "k.delta")]
            .into_iter()
            .map(|(tag, own)| {
                let s = s.clone();
                let start = start.clone();
                thread::spawn(move || {
                    start.wait();
                    for round in 0..ROUNDS {
                        s.put(own, &payload(tag, round)).unwrap();
                        s.put("shared", &payload(tag, round)).unwrap();
                        check(own, &s.get(own).unwrap(), &[tag]);
                        check("shared", &s.get("shared").unwrap(), b"bd");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            s.get("k.bin").unwrap().as_ref(),
            &payload(b'b', ROUNDS - 1)[..]
        );
        assert_eq!(
            s.get("k.delta").unwrap().as_ref(),
            &payload(b'd', ROUNDS - 1)[..]
        );
        let shared = s.get("shared").unwrap();
        check("shared", &shared, b"bd");
        assert_eq!(
            shared[1],
            ROUNDS - 1,
            "the shared key holds a last-round payload"
        );
        assert_eq!(s.list("").unwrap(), vec!["k.bin", "k.delta", "shared"]);
        s.destroy().unwrap();
    }
}
