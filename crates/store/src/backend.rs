//! Pluggable storage backends: named binary objects in, named binary
//! objects out.
//!
//! [`StorageBackend`] is deliberately object-store-shaped (the same
//! protocol split Fluree uses between its ledger and storage layers):
//! the four byte-level operations are the only thing a new backend must
//! implement, and the graph-level helpers ([`put_graph`] /
//! [`get_graph`]) ride on top of them via the binary format. Keys are
//! flat `/`-separated strings; graph objects live under `graphs/`,
//! table objects under `tables/`, the catalog manifest under
//! [`MANIFEST_KEY`]. Nothing derived from a graph is stored: its read
//! layout and planner statistics are rebuilt when it is registered.
//!
//! [`put_graph`]: StorageBackend::put_graph
//! [`get_graph`]: StorageBackend::get_graph

use crate::error::StoreError;
use crate::format::{decode_graph, decode_table, encode_graph, encode_table};
use gcore_ppg::{PathPropertyGraph, Table};
use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The reserved key of the catalog manifest object.
pub const MANIFEST_KEY: &str = "manifest";

const GRAPH_PREFIX: &str = "graphs/";
const TABLE_PREFIX: &str = "tables/";

/// Escape an arbitrary graph name into a key segment that is safe as a
/// filename on any filesystem: `[A-Za-z0-9._-]` pass through, every
/// other byte becomes `%XX`. A leading `.` is escaped too, so no
/// escaped name can produce a dotfile segment (`.`, `..`, or anything
/// in the `.tmp-` namespace that [`DirBackend`] reserves and rejects).
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, &b) in name.as_bytes().iter().enumerate() {
        match b {
            b'.' if i == 0 => out.push_str("%2E"),
            b'a'..=b'z' | b'A'..=b'Z' | b'0'..=b'9' | b'.' | b'_' | b'-' => out.push(b as char),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// The storage key under which a graph named `name` is kept.
pub fn graph_key(name: &str) -> String {
    format!("{GRAPH_PREFIX}{}.gpg", escape_name(name))
}

/// The storage key under which a table named `name` is kept.
pub fn table_key(name: &str) -> String {
    format!("{TABLE_PREFIX}{}.gtb", escape_name(name))
}

/// A named-blob store. All operations are `&self` (backends are shared
/// across threads) and durable writes are atomic per object: a reader
/// never observes a half-written blob.
pub trait StorageBackend: Send + Sync {
    /// Store `bytes` under `key`, replacing any previous object.
    fn put_bytes(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError>;

    /// Fetch the object under `key`, or [`StoreError::Missing`].
    fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StoreError>;

    /// All keys currently stored, sorted ascending.
    fn list(&self) -> Result<Vec<String>, StoreError>;

    /// Remove the object under `key`, or [`StoreError::Missing`].
    fn delete(&self, key: &str) -> Result<(), StoreError>;

    /// Encode `graph` in the binary format and store it under
    /// [`graph_key`]`(name)`.
    fn put_graph(&self, name: &str, graph: &PathPropertyGraph) -> Result<(), StoreError> {
        self.put_bytes(&graph_key(name), &encode_graph(graph)?)
    }

    /// Fetch and decode the graph stored under [`graph_key`]`(name)`.
    fn get_graph(&self, name: &str) -> Result<PathPropertyGraph, StoreError> {
        decode_graph(&self.get_bytes(&graph_key(name))?)
    }

    /// Encode `table` and store it under [`table_key`]`(name)`.
    fn put_table(&self, name: &str, table: &Table) -> Result<(), StoreError> {
        self.put_bytes(&table_key(name), &encode_table(table)?)
    }

    /// Fetch and decode the table stored under [`table_key`]`(name)`.
    fn get_table(&self, name: &str) -> Result<Table, StoreError> {
        decode_table(&self.get_bytes(&table_key(name))?)
    }
}

// ---------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------

/// An in-memory backend: a mutex-guarded map. The reference
/// implementation for tests, and the staging area for "encode now,
/// upload later" flows.
#[derive(Default, Debug)]
pub struct MemBackend {
    objects: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemBackend {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl StorageBackend for MemBackend {
    fn put_bytes(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.objects
            .lock()
            .unwrap()
            .insert(key.to_owned(), bytes.to_vec());
        Ok(())
    }

    fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        self.objects
            .lock()
            .unwrap()
            .get(key)
            .cloned()
            .ok_or_else(|| StoreError::Missing(key.to_owned()))
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        Ok(self.objects.lock().unwrap().keys().cloned().collect())
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        self.objects
            .lock()
            .unwrap()
            .remove(key)
            .map(|_| ())
            .ok_or_else(|| StoreError::Missing(key.to_owned()))
    }
}

// ---------------------------------------------------------------------
// DirBackend
// ---------------------------------------------------------------------

/// A directory-per-store backend: one file per object under a root
/// directory, `/` in keys mapping to subdirectories.
///
/// Writes are **atomic via rename**: the bytes land in a temporary
/// sibling file (synced to disk) which is then renamed over the target,
/// so a crash mid-write leaves either the old object or the new one,
/// never a torn file. Temporary files are invisible to [`list`].
///
/// [`list`]: StorageBackend::list
#[derive(Debug)]
pub struct DirBackend {
    root: PathBuf,
    tmp_seq: AtomicU64,
}

impl DirBackend {
    /// Open (creating if needed) a store rooted at `root`.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DirBackend {
            root,
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The root directory of this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reject keys that could escape the root or collide with the
    /// temporary-file namespace. Backend-generated keys ([`graph_key`],
    /// [`MANIFEST_KEY`]) always pass.
    fn key_path(&self, key: &str) -> Result<PathBuf, StoreError> {
        if key.is_empty()
            || key
                .split('/')
                .any(|seg| seg.is_empty() || seg == "." || seg == ".." || seg.starts_with(".tmp-"))
        {
            return Err(StoreError::Corrupt(format!("invalid storage key '{key}'")));
        }
        let mut path = self.root.clone();
        for seg in key.split('/') {
            path.push(seg);
        }
        Ok(path)
    }

    fn walk(&self, dir: &Path, prefix: &str, out: &mut Vec<String>) -> Result<(), StoreError> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(".tmp-") {
                continue;
            }
            let key = if prefix.is_empty() {
                name.to_owned()
            } else {
                format!("{prefix}/{name}")
            };
            if entry.file_type()?.is_dir() {
                self.walk(&entry.path(), &key, out)?;
            } else {
                out.push(key);
            }
        }
        Ok(())
    }
}

impl StorageBackend for DirBackend {
    fn put_bytes(&self, key: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let target = self.key_path(key)?;
        let dir = target.parent().expect("key paths have a parent");
        fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        if let Err(e) = fs::rename(&tmp, &target) {
            let _ = fs::remove_file(&tmp);
            return Err(e.into());
        }
        // Sync the directory so the rename itself is durable and
        // ordered: the manifest-last protocol in `catalog_io` relies on
        // object renames reaching disk before the manifest rename, and
        // on POSIX the rename is metadata living in the directory, not
        // the file. Best effort on platforms where directories cannot
        // be opened (the write itself already succeeded).
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn get_bytes(&self, key: &str) -> Result<Vec<u8>, StoreError> {
        let path = self.key_path(key)?;
        match fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::Missing(key.to_owned()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        let mut out = Vec::new();
        self.walk(&self.root, "", &mut out)?;
        out.sort();
        Ok(out)
    }

    fn delete(&self, key: &str) -> Result<(), StoreError> {
        let path = self.key_path(key)?;
        match fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::Missing(key.to_owned()))
            }
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_keys_escape_arbitrary_names() {
        assert_eq!(graph_key("people"), "graphs/people.gpg");
        assert_eq!(graph_key("a/b c"), "graphs/a%2Fb%20c.gpg");
        assert_eq!(graph_key("gráf"), "graphs/gr%C3%A1f.gpg");
        // Leading dots are escaped: no graph name can land in the
        // dotfile or reserved `.tmp-` filename namespace.
        assert_eq!(graph_key(".."), "graphs/%2E..gpg");
        assert_eq!(graph_key(".tmp-sneaky"), "graphs/%2Etmp-sneaky.gpg");
        assert_eq!(graph_key("v1.2"), "graphs/v1.2.gpg"); // inner dots pass through
    }

    #[test]
    fn mem_backend_basics() {
        let b = MemBackend::new();
        b.put_bytes("manifest", b"m").unwrap();
        b.put_bytes("graphs/a.gpg", b"a").unwrap();
        assert_eq!(b.get_bytes("manifest").unwrap(), b"m");
        assert_eq!(b.list().unwrap(), vec!["graphs/a.gpg", "manifest"]);
        b.delete("manifest").unwrap();
        assert!(matches!(
            b.get_bytes("manifest"),
            Err(StoreError::Missing(_))
        ));
        assert!(matches!(b.delete("manifest"), Err(StoreError::Missing(_))));
    }

    #[test]
    fn backends_are_object_safe_and_sync() {
        fn assert_traits<T: Send + Sync>() {}
        assert_traits::<MemBackend>();
        assert_traits::<DirBackend>();
        let b = MemBackend::new();
        let _dynamic: &dyn StorageBackend = &b;
    }
}
