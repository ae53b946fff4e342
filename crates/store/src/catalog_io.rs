//! Catalog-level persistence: the manifest object plus
//! [`save_catalog`] / [`load_catalog`].
//!
//! The manifest is a tiny checksummed blob recording the set of
//! persisted graph and table names plus the default-graph name; it is
//! written *after* every graph/table object, so a load that finds the
//! manifest finds every object it names (the
//! [`DirBackend`](crate::DirBackend) rename makes each object write
//! atomic, and a crash between objects leaves the previous manifest
//! pointing at the previous, complete set).
//!
//! A save writes only what a graph *is*. What it derives — the read
//! layout and the planner statistics — is rebuilt when the loaded graph
//! is registered, so a cold-started engine plans from the same numbers
//! the saving engine did. Stores written while planner statistics were
//! a side object (`stats/<name>.gst`) still load: the object is never
//! read, and the next save deletes it.

use crate::backend::{graph_key, table_key, StorageBackend, MANIFEST_KEY};
use crate::error::StoreError;
use crate::wire::{fnv1a64, put_str, put_u32, put_u64, Cursor};
use gcore_ppg::Catalog;

const MANIFEST_MAGIC: [u8; 8] = *b"GCOREMAN";
const MANIFEST_VERSION: u32 = 2;

/// The decoded manifest: which graphs a store holds and which one is
/// the default.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Manifest {
    /// Sorted names of every persisted graph.
    pub graphs: Vec<String>,
    /// Sorted names of every persisted table (§5 named inputs).
    pub tables: Vec<String>,
    /// The default graph, if one was set when saving.
    pub default_graph: Option<String>,
    /// The saving engine's snapshot epoch (version 2; version-1 stores
    /// decode as 0). Restoring it on load means clients of a restarted
    /// server can never observe the epoch regress.
    pub epoch: u64,
}

impl Manifest {
    /// Serialize: magic, version, then a checksummed payload of the
    /// graph- and table-name lists, the optional default name and the
    /// snapshot epoch.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        for names in [&self.graphs, &self.tables] {
            put_u32(&mut payload, names.len() as u32);
            for name in names {
                put_str(&mut payload, name);
            }
        }
        match &self.default_graph {
            Some(name) => {
                payload.push(1);
                put_str(&mut payload, name);
            }
            None => payload.push(0),
        }
        put_u64(&mut payload, self.epoch);
        let mut out = Vec::with_capacity(MANIFEST_MAGIC.len() + 12 + payload.len() + 8);
        out.extend_from_slice(&MANIFEST_MAGIC);
        put_u32(&mut out, MANIFEST_VERSION);
        put_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        put_u64(&mut out, fnv1a64(&payload));
        out
    }

    /// Parse and validate a manifest blob.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        let mut cur = Cursor::new(bytes);
        if cur.take(MANIFEST_MAGIC.len())? != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = cur.u32()?;
        if version == 0 || version > MANIFEST_VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let len = usize::try_from(cur.u64()?).map_err(|_| StoreError::Truncated)?;
        let payload = cur.take(len)?;
        let checksum = cur.u64()?;
        if !cur.is_empty() {
            return Err(StoreError::Corrupt("trailing bytes in manifest".into()));
        }
        if checksum != fnv1a64(payload) {
            return Err(StoreError::ChecksumMismatch {
                section: "manifest",
            });
        }

        let mut sec = Cursor::new(payload);
        let mut names = || -> Result<Vec<String>, StoreError> {
            let count = sec.u32()? as usize;
            let mut names = Vec::with_capacity(sec.capacity_for(count, 4));
            for _ in 0..count {
                names.push(sec.str()?.to_owned());
            }
            Ok(names)
        };
        let graphs = names()?;
        let tables = names()?;
        let default_graph = match sec.u8()? {
            0 => None,
            1 => Some(sec.str()?.to_owned()),
            b => return Err(StoreError::Corrupt(format!("bad default-graph tag {b}"))),
        };
        // Version 1 manifests end here; version 2 appends the epoch.
        let epoch = if version >= 2 { sec.u64()? } else { 0 };
        if !sec.is_empty() {
            return Err(StoreError::Corrupt(
                "trailing bytes in manifest payload".into(),
            ));
        }
        Ok(Manifest {
            graphs,
            tables,
            default_graph,
            epoch,
        })
    }
}

/// [`save_catalog_at_epoch`] with epoch 0, for catalogs that live
/// outside an engine (no commit counter to preserve).
pub fn save_catalog(catalog: &Catalog, backend: &dyn StorageBackend) -> Result<(), StoreError> {
    save_catalog_at_epoch(catalog, 0, backend)
}

/// Persist every graph and table registered in `catalog` (plus the
/// default-graph name and the saving engine's snapshot `epoch`) into
/// `backend`, then write the manifest. Objects that a previous save
/// left behind but that are no longer in the catalog are deleted
/// afterwards, so the store always converges to exactly the catalog's
/// state.
pub fn save_catalog_at_epoch(
    catalog: &Catalog,
    epoch: u64,
    backend: &dyn StorageBackend,
) -> Result<(), StoreError> {
    let names = catalog.graph_names();
    for name in &names {
        let graph = catalog
            .graph(name)
            .expect("graph_names lists registered graphs");
        backend.put_graph(name, &graph)?;
    }
    let table_names = catalog.table_names();
    for name in &table_names {
        let table = catalog
            .table(name)
            .expect("table_names lists registered tables");
        backend.put_table(name, &table)?;
    }
    let manifest = Manifest {
        graphs: names.clone(),
        tables: table_names.clone(),
        default_graph: catalog.default_graph_name().map(str::to_owned),
        epoch,
    };
    backend.put_bytes(MANIFEST_KEY, &manifest.encode())?;

    // Garbage-collect objects dropped since the previous save, and the
    // planner-stats side objects older stores hold.
    let mut live: Vec<String> = names.iter().map(|n| graph_key(n)).collect();
    live.extend(table_names.iter().map(|n| table_key(n)));
    for key in backend.list()? {
        if (key.starts_with("graphs/") || key.starts_with("tables/") || key.starts_with("stats/"))
            && !live.contains(&key)
        {
            backend.delete(&key)?;
        }
    }
    Ok(())
}

/// [`load_catalog_at_epoch`] without the stored epoch, for callers
/// that only need the catalog.
pub fn load_catalog(backend: &dyn StorageBackend) -> Result<Catalog, StoreError> {
    Ok(load_catalog_at_epoch(backend)?.0)
}

/// Load a catalog previously written by [`save_catalog_at_epoch`]:
/// read the manifest, decode every named graph and table, register
/// them (which builds their read layouts with their planner statistics
/// and reserves the stored identifier space in the catalog's generator
/// — skolemized identifiers minted after a cold start can never collide
/// with stored elements), and restore the default graph. Returns the catalog
/// together with the epoch recorded at save time (0 for version-1
/// stores).
pub fn load_catalog_at_epoch(backend: &dyn StorageBackend) -> Result<(Catalog, u64), StoreError> {
    let manifest = Manifest::decode(&backend.get_bytes(MANIFEST_KEY)?)?;
    let mut catalog = Catalog::new();
    for name in &manifest.graphs {
        catalog.register_graph(name.clone(), backend.get_graph(name)?);
    }
    for name in &manifest.tables {
        let table = backend.get_table(name)?;
        catalog.register_table(name.clone(), table);
    }
    if let Some(default) = &manifest.default_graph {
        if !catalog.has_graph(default) {
            return Err(StoreError::Corrupt(format!(
                "manifest default graph '{default}' is not in the store"
            )));
        }
        catalog.set_default_graph(default.clone());
    }
    Ok((catalog, manifest.epoch))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use gcore_ppg::{Attributes, EdgeId, NodeId, PathPropertyGraph};

    fn people() -> PathPropertyGraph {
        let mut g = PathPropertyGraph::new();
        g.add_node(
            NodeId(1),
            Attributes::labeled("Person").with_prop("name", "Ann"),
        );
        g.add_node(
            NodeId(2),
            Attributes::labeled("Person").with_prop("name", "Bob"),
        );
        g.add_edge(
            EdgeId(3),
            NodeId(1),
            NodeId(2),
            Attributes::labeled("knows"),
        )
        .unwrap();
        g
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            graphs: vec!["a".into(), "ünïcødé".into()],
            tables: vec!["orders".into()],
            default_graph: Some("a".into()),
            epoch: 42,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let none = Manifest {
            graphs: vec![],
            tables: vec![],
            default_graph: None,
            epoch: 0,
        };
        assert_eq!(Manifest::decode(&none.encode()).unwrap(), none);
    }

    #[test]
    fn version_1_manifests_decode_with_epoch_zero() {
        // A version-1 manifest is a version-2 one without the trailing
        // epoch: rebuild those bytes and check graceful decoding.
        let m = Manifest {
            graphs: vec!["a".into()],
            tables: vec![],
            default_graph: Some("a".into()),
            epoch: 7,
        };
        let v2 = m.encode();
        let payload_len = (u64::from_le_bytes(v2[12..20].try_into().unwrap()) - 8) as usize;
        let payload = &v2[20..20 + payload_len]; // epoch bytes dropped
        let mut v1 = Vec::new();
        v1.extend_from_slice(&MANIFEST_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload_len as u64).to_le_bytes());
        v1.extend_from_slice(payload);
        v1.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        let decoded = Manifest::decode(&v1).unwrap();
        assert_eq!(decoded.graphs, m.graphs);
        assert_eq!(decoded.default_graph, m.default_graph);
        assert_eq!(decoded.epoch, 0);
    }

    #[test]
    fn manifest_corruption_detected() {
        let m = Manifest {
            graphs: vec!["a".into()],
            tables: vec![],
            default_graph: None,
            epoch: 3,
        };
        let clean = m.encode();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x40;
            assert!(
                Manifest::decode(&bytes).is_err() || Manifest::decode(&bytes).unwrap() != m,
                "flipping byte {i} went unnoticed"
            );
        }
        assert!(matches!(
            Manifest::decode(&clean[..clean.len() - 1]),
            Err(StoreError::Truncated) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn save_load_round_trip_with_default() {
        use gcore_ppg::{Table, Value};

        let mut catalog = Catalog::new();
        catalog.register_graph("people", people());
        catalog.register_graph("empty", PathPropertyGraph::new());
        let mut orders = Table::new(vec!["customer", "total"]).unwrap();
        orders
            .push_row(vec![Value::str("Ann"), Value::Int(3)])
            .unwrap();
        catalog.register_table("orders", orders);
        catalog.set_default_graph("people");

        let backend = MemBackend::new();
        save_catalog(&catalog, &backend).unwrap();
        let loaded = load_catalog(&backend).unwrap();

        assert_eq!(loaded.graph_names(), vec!["empty", "people"]);
        assert_eq!(loaded.table_names(), vec!["orders"]);
        assert_eq!(loaded.default_graph_name(), Some("people"));
        assert_eq!(*loaded.graph("people").unwrap(), people());
        let t = loaded.table("orders").unwrap();
        assert_eq!(t.rows(), catalog.table("orders").unwrap().rows());
        // Registration reserved the identifier space of stored elements.
        assert!(loaded.ids().peek() > 3);
        // Loaded graphs are indexed, like any registered graph, and plan
        // from the same statistics the saving catalog did.
        assert!(loaded.graph("people").unwrap().has_label_index());
        assert!(loaded.graph("people").unwrap().stats().is_some());
        assert_eq!(
            loaded.graph("people").unwrap().stats(),
            catalog.graph("people").unwrap().stats()
        );
        // Nothing derived is stored.
        assert_eq!(
            backend.list().unwrap(),
            vec![
                graph_key("empty"),
                graph_key("people"),
                MANIFEST_KEY.to_owned(),
                table_key("orders")
            ]
        );
    }

    #[test]
    fn resave_garbage_collects_dropped_graphs() {
        let mut catalog = Catalog::new();
        catalog.register_graph("keep", people());
        catalog.register_graph("drop", people());
        let backend = MemBackend::new();
        save_catalog(&catalog, &backend).unwrap();
        // 2 graphs + manifest.
        assert_eq!(backend.list().unwrap().len(), 3);

        catalog.unregister_graph("drop");
        save_catalog(&catalog, &backend).unwrap();
        assert_eq!(
            backend.list().unwrap(),
            vec![graph_key("keep"), MANIFEST_KEY.to_owned()]
        );
        let loaded = load_catalog(&backend).unwrap();
        assert_eq!(loaded.graph_names(), vec!["keep"]);
    }

    #[test]
    fn stats_side_objects_of_older_stores_are_ignored_then_deleted() {
        let mut catalog = Catalog::new();
        catalog.register_graph("people", people());
        let backend = MemBackend::new();
        save_catalog(&catalog, &backend).unwrap();
        // An older store kept each graph's planner statistics beside it;
        // unreadable bytes show that the object is never decoded.
        let side = "stats/people.gst";
        backend
            .put_bytes(side, b"GCORESTA not a stats object")
            .unwrap();

        let loaded = load_catalog(&backend).unwrap();
        let people = loaded.graph("people").unwrap();
        assert_eq!(people.stats(), catalog.graph("people").unwrap().stats());

        save_catalog(&loaded, &backend).unwrap();
        assert_eq!(
            backend.list().unwrap(),
            vec![graph_key("people"), MANIFEST_KEY.to_owned()]
        );
    }

    #[test]
    fn missing_manifest_is_a_missing_object() {
        let backend = MemBackend::new();
        assert!(matches!(
            load_catalog(&backend),
            Err(StoreError::Missing(_))
        ));
    }
}
