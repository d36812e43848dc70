//! The global store (the paper's HDFS cluster).

use crate::blob::BlobStore;

/// A cluster-wide store every machine can reach — the paper's HDFS (§5.1,
/// Fig. 6b steps 3–4): survivors upload logging files here; recovering
/// workers download what they need.
#[derive(Debug, Clone)]
pub struct GlobalStore {
    inner: BlobStore,
}

impl GlobalStore {
    /// Creates a global store in a fresh temp directory.
    pub fn new_temp() -> std::io::Result<Self> {
        Ok(GlobalStore {
            inner: BlobStore::new_temp("global")?,
        })
    }

    /// Wraps an existing blob store.
    pub fn from_blob(inner: BlobStore) -> Self {
        GlobalStore { inner }
    }

    /// Direct access to the underlying store.
    pub fn blob(&self) -> &BlobStore {
        &self.inner
    }

    /// Uploads one key from a machine-local store.
    pub fn upload(&self, local: &BlobStore, key: &str) -> std::io::Result<()> {
        let data = local.get(key)?;
        Ok(self.inner.put(key, &data)?)
    }

    /// Uploads every local key under `prefix`; returns the keys uploaded.
    pub fn upload_prefix(&self, local: &BlobStore, prefix: &str) -> std::io::Result<Vec<String>> {
        let keys = local.list(prefix)?;
        for k in &keys {
            self.upload(local, k)?;
        }
        Ok(keys)
    }

    /// Downloads one key into a machine-local store.
    pub fn download(&self, local: &BlobStore, key: &str) -> std::io::Result<()> {
        let data = self.inner.get(key)?;
        Ok(local.put(key, &data)?)
    }

    /// Downloads every global key under `prefix` into `local`; returns
    /// the keys downloaded.
    pub fn download_prefix(&self, local: &BlobStore, prefix: &str) -> std::io::Result<Vec<String>> {
        let keys = self.inner.list(prefix)?;
        for k in &keys {
            self.download(local, k)?;
        }
        Ok(keys)
    }

    /// Garbage-collects everything under `prefix` (post-checkpoint GC).
    pub fn delete_prefix(&self, prefix: &str) -> std::io::Result<usize> {
        Ok(self.inner.delete_prefix(prefix)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upload_download_round_trip() {
        let local_a = BlobStore::new_temp("m0").unwrap();
        let local_b = BlobStore::new_temp("m1").unwrap();
        let global = GlobalStore::new_temp().unwrap();
        local_a.put("log/it5.bin", b"activations").unwrap();
        global.upload(&local_a, "log/it5.bin").unwrap();
        global.download(&local_b, "log/it5.bin").unwrap();
        assert_eq!(local_b.get("log/it5.bin").unwrap().as_ref(), b"activations");
    }

    #[test]
    fn prefix_upload_and_gc() {
        let local = BlobStore::new_temp("m2").unwrap();
        let global = GlobalStore::new_temp().unwrap();
        for i in 0..3 {
            local.put(&format!("log/{i}.bin"), &[i as u8; 4]).unwrap();
        }
        let up = global.upload_prefix(&local, "log/").unwrap();
        assert_eq!(up.len(), 3);
        assert_eq!(global.blob().list("log/").unwrap().len(), 3);
        assert_eq!(global.delete_prefix("log/").unwrap(), 3);
        assert!(global.blob().list("log/").unwrap().is_empty());
    }
}
