//! The FROM-clause namespace of the SQL frontend: an immutable-once-read
//! [`Catalog`] of named AU-relations, and the snapshot-swappable
//! [`SharedCatalog`] many concurrent sessions read through.
//!
//! **One `Table` per publish:** every register or append builds one
//! immutable `Table` (rows, columns, stats), and every plan bound against
//! that snapshot scans it — no plan transposes or sweeps the data again.

use crate::plan::Table;
use audb_core::{AuRelation, TableStats};
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// Named AU-relations, shared cheaply behind [`Arc`]s. Names are
/// case-sensitive (quote mixed-case names in SQL as `"MyTable"`); lookups
/// iterate in name order, so catalog listings are deterministic.
#[derive(Clone, Debug, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a relation under a name, replacing (and returning) any
    /// previous relation of that name. The columnar form and the column
    /// statistics (zone maps, certain fractions — [`TableStats`]) are
    /// built eagerly here, so binding, optimization and execution never
    /// transpose or scan the data to obtain them.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        rel: impl Into<Arc<AuRelation>>,
    ) -> Option<Arc<AuRelation>> {
        self.insert(name.into(), Arc::new(Table::new(rel.into())))
    }

    fn insert(&mut self, name: String, table: Arc<Table>) -> Option<Arc<AuRelation>> {
        self.tables
            .insert(name, table)
            .map(|t| Arc::clone(t.rows()))
    }

    /// Remove a named relation, returning it if it was registered.
    pub fn deregister(&mut self, name: &str) -> Option<Arc<AuRelation>> {
        self.tables.remove(name).map(|t| Arc::clone(t.rows()))
    }

    /// Look up a relation by name.
    pub fn get(&self, name: &str) -> Option<&Arc<AuRelation>> {
        self.tables.get(name).map(|t| t.rows())
    }

    /// The published table of that name (what the binder scans).
    pub(crate) fn table(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// The statistics computed when the named relation was registered.
    pub fn stats(&self, name: &str) -> Option<&Arc<TableStats>> {
        self.tables.get(name).map(|t| t.stats())
    }

    /// Registered names, in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// `(name, relation)` pairs, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<AuRelation>)> {
        self.tables.iter().map(|(n, t)| (n.as_str(), t.rows()))
    }

    /// Number of registered relations.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

/// A catalog shared by many concurrent sessions, updated by **snapshot
/// publication**: readers take an [`Arc`]'d snapshot of the whole catalog
/// (one `Arc::clone` under a read lock — no lock is held while a query
/// binds or executes), and registration is copy-on-write (clone the
/// current [`Catalog`], apply the change, swap the `Arc` and bump the
/// version under the write lock).
///
/// **Visibility rule:** a statement binds against the snapshot current at
/// `prepare` time and its plan pins the scanned relation behind an `Arc`,
/// so in-flight queries finish on their pinned snapshot; a `register`
/// becomes visible to statements *prepared after* publication, never to
/// ones already running. Readers never wait on a `register` or
/// `deregister` beyond the snapshot clone (a [`SharedCatalog::append`]
/// holds the write lock while it rebuilds the grown table), and writers
/// never wait on running queries.
///
/// Cloning a `SharedCatalog` shares the underlying catalog (that is the
/// point — many sessions, one namespace); [`SharedCatalog::snapshot`]
/// gives a private immutable view.
#[derive(Clone, Debug, Default)]
pub struct SharedCatalog {
    // (version, snapshot) swap together so a cache keyed on the version
    // can never observe a torn pair. Writers build the next pair on a
    // clone and assign it as their last step, so a writer that panics
    // leaves the previous pair intact: a poisoned lock is recovered, not
    // propagated.
    current: Arc<RwLock<(u64, Arc<Catalog>)>>,
}

impl SharedCatalog {
    /// An empty shared catalog at version 0.
    pub fn new() -> Self {
        SharedCatalog::default()
    }

    /// Wrap an existing catalog as the initial snapshot.
    pub fn from_catalog(catalog: Catalog) -> Self {
        SharedCatalog {
            current: Arc::new(RwLock::new((0, Arc::new(catalog)))),
        }
    }

    /// The current snapshot. Callers hold it as long as they like; it
    /// never changes under them.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.snapshot_versioned().1
    }

    /// The current snapshot together with its version (the pair is
    /// coherent — the plan cache keys on the version).
    pub fn snapshot_versioned(&self) -> (u64, Arc<Catalog>) {
        let guard = self.current.read().unwrap_or_else(PoisonError::into_inner);
        (guard.0, Arc::clone(&guard.1))
    }

    /// The current publication version: bumped by every
    /// [`SharedCatalog::register`] / [`SharedCatalog::deregister`] /
    /// [`SharedCatalog::append`].
    pub fn version(&self) -> u64 {
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .0
    }

    /// True iff two handles publish into the same underlying catalog.
    pub fn same_catalog(&self, other: &SharedCatalog) -> bool {
        Arc::ptr_eq(&self.current, &other.current)
    }

    /// Publish a new snapshot with `name` registered (copy-on-write:
    /// the table map is cloned, each table stays shared behind its
    /// `Arc`). The table's columns and statistics are built before the
    /// write lock is taken; only the insert and the swap run under it.
    /// Returns the replaced relation, if any, and the version this call
    /// published (read under the same lock, so a concurrent writer's
    /// bump can never be reported as this one's).
    pub fn register(
        &self,
        name: impl Into<String>,
        rel: impl Into<Arc<AuRelation>>,
    ) -> (Option<Arc<AuRelation>>, u64) {
        let name = name.into();
        let table = Arc::new(Table::new(rel.into()));
        self.publish(|cat| cat.insert(name, table))
    }

    /// Publish a new snapshot with `name` removed, returning it if it was
    /// registered.
    pub fn deregister(&self, name: &str) -> Option<Arc<AuRelation>> {
        self.publish(|cat| cat.deregister(name)).0
    }

    fn publish<T>(&self, change: impl FnOnce(&mut Catalog) -> T) -> (T, u64) {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let mut next = (*guard.1).clone();
        let out = change(&mut next);
        *guard = (guard.0 + 1, Arc::new(next));
        (out, guard.0)
    }

    /// Publish a new snapshot with `batch`'s rows appended to the named
    /// table — the ingest path of the streaming API. The append is
    /// copy-on-write like [`SharedCatalog::register`]: the table is cloned
    /// with the new rows, the snapshot `Arc` is swapped, and the version
    /// bump invalidates any [`crate::PlanCache`] keyed on it. In-flight
    /// queries keep their pinned pre-append relation.
    ///
    /// Unlike `register`, the grown table needs the current one, so its
    /// rows, columns and statistics are all rebuilt **under the write
    /// lock**: concurrent writers (and readers taking a snapshot) wait for
    /// the whole rebuild.
    ///
    /// Validation happens before anything is published: a failed append
    /// does **not** bump the version. Returns the table's new total row
    /// count and the new catalog version.
    pub fn append(
        &self,
        name: &str,
        batch: &AuRelation,
    ) -> Result<(usize, u64), CatalogAppendError> {
        let mut guard = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let Some(current) = guard.1.get(name) else {
            return Err(CatalogAppendError::UnknownTable {
                name: name.to_string(),
                known: guard.1.names().map(String::from).collect(),
            });
        };
        if current.schema != batch.schema {
            return Err(CatalogAppendError::SchemaMismatch {
                table: name.to_string(),
                expected: current.schema.to_string(),
                got: batch.schema.to_string(),
            });
        }
        let mut grown = (**current).clone();
        for row in batch.rows() {
            grown.push(row.tuple.clone(), row.mult);
        }
        let total = grown.rows().len();
        let mut next = (*guard.1).clone();
        next.register(name, grown);
        *guard = (guard.0 + 1, Arc::new(next));
        Ok((total, guard.0))
    }
}

/// An append could not be published (nothing changed, no version bump).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CatalogAppendError {
    /// The named table is not registered.
    UnknownTable {
        /// The missing name.
        name: String,
        /// The catalog's registered names (for the error message).
        known: Vec<String>,
    },
    /// The appended rows carry a different schema than the table.
    SchemaMismatch {
        /// The table appended to.
        table: String,
        /// Display form of the table's schema.
        expected: String,
        /// Display form of the batch's schema.
        got: String,
    },
}

impl CatalogAppendError {
    /// A stable machine-readable tag, as used in the server's structured
    /// error responses.
    pub fn kind(&self) -> &'static str {
        match self {
            CatalogAppendError::UnknownTable { .. } => "unknown_table",
            CatalogAppendError::SchemaMismatch { .. } => "schema_mismatch",
        }
    }
}

impl std::fmt::Display for CatalogAppendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CatalogAppendError::UnknownTable { name, known } => {
                write!(f, "unknown table {name:?}; registered: ")?;
                if known.is_empty() {
                    write!(f, "(none)")
                } else {
                    write!(f, "{}", known.join(", "))
                }
            }
            CatalogAppendError::SchemaMismatch {
                table,
                expected,
                got,
            } => write!(
                f,
                "appended rows have schema {got}, but table {table:?} has schema {expected}"
            ),
        }
    }
}

impl std::error::Error for CatalogAppendError {}

#[cfg(test)]
mod tests {
    use super::*;
    use audb_rel::Schema;

    #[test]
    fn shared_catalog_publishes_snapshots() {
        let shared = SharedCatalog::new();
        assert_eq!(shared.version(), 0);
        let before = shared.snapshot();

        let rel = Arc::new(AuRelation::empty(Schema::new(["a"])));
        shared.register("t", Arc::clone(&rel));
        assert_eq!(shared.version(), 1);

        // The pre-registration snapshot is immutable — readers pinned to
        // it never see the new table.
        assert!(before.get("t").is_none());
        let after = shared.snapshot();
        assert!(Arc::ptr_eq(after.get("t").unwrap(), &rel));

        // Deregistration publishes another snapshot; `after` is pinned.
        assert!(shared.deregister("t").is_some());
        assert_eq!(shared.version(), 2);
        assert!(after.get("t").is_some());
        assert!(shared.snapshot().get("t").is_none());

        // Clones share the catalog; from_catalog starts a fresh one.
        let clone = shared.clone();
        assert!(clone.same_catalog(&shared));
        clone.register("u", AuRelation::empty(Schema::new(["b"])));
        assert!(shared.snapshot().get("u").is_some());
        assert!(!SharedCatalog::from_catalog(Catalog::new()).same_catalog(&shared));
    }

    #[test]
    fn append_publishes_grown_snapshots_and_validates_first() {
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("t", AuRelation::from_rows(schema.clone(), [row(1)]));
        assert_eq!(shared.version(), 1);
        let pinned = shared.snapshot();

        let batch = AuRelation::from_rows(schema.clone(), [row(2), row(3)]);
        let (total, version) = shared.append("t", &batch).unwrap();
        assert_eq!((total, version), (3, 2));
        assert_eq!(shared.snapshot().get("t").unwrap().rows().len(), 3);
        // Pinned snapshots keep the pre-append relation.
        assert_eq!(pinned.get("t").unwrap().rows().len(), 1);

        // Failed appends change nothing — not even the version.
        let miss = shared.append("nope", &batch).unwrap_err();
        assert_eq!(miss.kind(), "unknown_table");
        let bad = AuRelation::empty(Schema::new(["a", "b"]));
        let mismatch = shared.append("t", &bad).unwrap_err();
        assert_eq!(mismatch.kind(), "schema_mismatch");
        assert!(mismatch.to_string().contains("(a)"), "{mismatch}");
        assert_eq!(shared.version(), 2);
        assert_eq!(shared.snapshot().get("t").unwrap().rows().len(), 3);
    }

    /// Stats are computed at registration and recomputed when the append
    /// path re-registers the grown table — a snapshot's stats always
    /// describe the rows it holds.
    #[test]
    fn stats_track_publication() {
        use audb_core::{AuTuple, Mult3, RangeValue};
        let shared = SharedCatalog::new();
        let schema = Schema::new(["a"]);
        let row = |v: i64| (AuTuple::new([RangeValue::certain(v)]), Mult3::ONE);
        shared.register("t", AuRelation::from_rows(schema.clone(), [row(1), row(2)]));
        let before = shared.snapshot();
        assert_eq!(before.stats("t").unwrap().rows, 2);

        let batch = AuRelation::from_rows(schema, [row(3)]);
        shared.append("t", &batch).unwrap();
        let after = shared.snapshot();
        assert_eq!(after.stats("t").unwrap().rows, 3);
        // The pinned pre-append snapshot keeps its own (still-accurate)
        // stats.
        assert_eq!(before.stats("t").unwrap().rows, 2);
        assert!(after.stats("missing").is_none());
    }

    /// Every plan over one snapshot scans that snapshot's one table: two
    /// different texts and an optimizer-rewritten plan share its columns
    /// and stats; an append publishes a grown table that only plans
    /// prepared afterwards see.
    #[test]
    fn plans_share_the_published_table() {
        use crate::{Engine, Session};
        use audb_core::{AuTuple, Mult3, RangeValue};
        let schema = Schema::new(["a", "b"]);
        let rows = |from: i64, n: i64| {
            AuRelation::from_rows(
                schema.clone(),
                (from..from + n).map(|i| {
                    (
                        AuTuple::new([RangeValue::certain(i), RangeValue::new(i, i + 1, i + 2)]),
                        Mult3::ONE,
                    )
                }),
            )
        };
        let (n, batch) = (40, 8);
        let session = Session::new(Engine::native());
        session.register("t", rows(0, n));

        let sorted = session.prepare("SELECT * FROM t ORDER BY a").unwrap();
        let filtered = session.prepare("SELECT a FROM t WHERE b < 10").unwrap();
        // The dead column `b` is pruned below the sort: a rewritten plan.
        let rewritten = session
            .prepare("SELECT a FROM (SELECT * FROM t ORDER BY a)")
            .unwrap();
        assert!(rewritten.plan().opt().is_some());
        for other in [&filtered, &rewritten] {
            assert!(std::ptr::eq(
                sorted.plan().source_columns(),
                other.plan().source_columns()
            ));
            assert!(Arc::ptr_eq(
                sorted.plan().source_stats(),
                other.plan().source_stats()
            ));
        }
        assert!(Arc::ptr_eq(
            sorted.plan().source_stats(),
            session.catalog().stats("t").unwrap()
        ));

        let total = (n + batch) as usize;
        let (appended, _) = session
            .shared_catalog()
            .append("t", &rows(n, batch))
            .unwrap();
        assert_eq!(appended, total);
        let grown = session.prepare("SELECT * FROM t ORDER BY a").unwrap();
        assert_eq!(grown.plan().source_columns().len(), total);
        assert_eq!(grown.plan().source_stats().rows, total);
        // The plan pinned before the append keeps the old table.
        assert_eq!(sorted.plan().source_columns().len(), n as usize);
        assert_eq!(sorted.plan().source_stats().rows, n as usize);
        assert!(!Arc::ptr_eq(
            sorted.plan().source_stats(),
            grown.plan().source_stats()
        ));
    }

    /// Each concurrent `register` reports the version it published: N
    /// writers see exactly the versions `1..=N`, each once.
    #[test]
    fn concurrent_registers_report_their_own_versions() {
        const WRITERS: u64 = 8;
        let shared = SharedCatalog::new();
        // Release every writer at once so the publishes contend.
        let start = std::sync::Barrier::new(WRITERS as usize);
        let mut versions: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|i| {
                    let (shared, start) = (&shared, &start);
                    s.spawn(move || {
                        let rel = AuRelation::empty(Schema::new(["a"]));
                        start.wait();
                        shared.register(format!("t{i}"), rel).1
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        versions.sort_unstable();
        assert_eq!(versions, (1..=WRITERS).collect::<Vec<_>>());
        assert_eq!(shared.version(), WRITERS);
        assert_eq!(shared.snapshot().len(), WRITERS as usize);
    }

    /// A writer that panics while holding the lock poisons it, but the
    /// published pair is untouched: every later read and write succeeds
    /// and the version continues from where it stood.
    #[test]
    fn poisoned_lock_keeps_serving_the_last_published_snapshot() {
        let shared = SharedCatalog::new();
        let rel = |v: i64| {
            AuRelation::from_rows(
                Schema::new(["a"]),
                [(
                    audb_core::AuTuple::new([audb_core::RangeValue::certain(v)]),
                    audb_core::Mult3::ONE,
                )],
            )
        };
        shared.register("t", rel(1));
        let poisoner = shared.clone();
        let died = std::thread::spawn(move || {
            let _guard = poisoner.current.write().unwrap();
            panic!("writer dies holding the catalog lock");
        })
        .join();
        assert!(died.is_err());
        assert!(shared.current.is_poisoned());

        assert_eq!(shared.version(), 1);
        assert_eq!(shared.snapshot().get("t").unwrap().len(), 1);
        assert_eq!(shared.register("u", rel(2)).1, 2);
        assert_eq!(shared.append("t", &rel(3)), Ok((2, 3)));
        assert_eq!(shared.snapshot().get("t").unwrap().len(), 2);
        assert_eq!(shared.snapshot_versioned().0, 3);
    }

    #[test]
    fn register_lookup_deregister() {
        let mut cat = Catalog::new();
        let rel = Arc::new(AuRelation::empty(Schema::new(["a"])));
        assert!(cat.register("t", Arc::clone(&rel)).is_none());
        assert!(Arc::ptr_eq(cat.get("t").unwrap(), &rel));
        // Re-registering returns the replaced relation.
        let rel2 = AuRelation::empty(Schema::new(["b"]));
        let old = cat.register("t", rel2).unwrap();
        assert!(Arc::ptr_eq(&old, &rel));
        assert_eq!(cat.names().collect::<Vec<_>>(), ["t"]);
        assert!(cat.deregister("t").is_some());
        assert!(cat.is_empty() && cat.get("t").is_none());
    }
}
