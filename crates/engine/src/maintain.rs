//! Live maintained queries: [`crate::Session::subscribe`] compiles a SQL
//! statement once and keeps its result *maintained* under appended rows,
//! re-emitting only the changed output rows as [`Delta`]s.
//!
//! ## Supported shape
//!
//! A maintainable plan is a chain of row-wise operators (select /
//! project) feeding one final [`Op::Window`] or [`Op::TopK`]. Row-wise
//! operators commute with append — running them over each batch and
//! feeding the final operator's incremental state
//! ([`audb_native::MaintainedWindow`] / [`audb_native::TopKMaintain`]) is
//! exactly equivalent to recomputing the chain over the accumulated rows.
//! Any other shape still subscribes, but every append recomputes.
//!
//! ## Strategy selection
//!
//! Each append batch picks [`Strategy::Incremental`] or
//! [`Strategy::Recompute`], visible in [`MaintainedQuery::explain`]:
//!
//! * **State is built at subscribe.** Subscribing runs the row-wise prefix
//!   once over the subscribed table, builds the final operator's sweep
//!   state from it and reads the value off that state, so an in-order
//!   subscription is incremental from its first append.
//! * **Maintenance needs the native fast path.** If the engine's
//!   effective backend is not `Native`, or the data hits the documented
//!   native-window fallbacks (duplicate multiplicities after
//!   normalization, uncertain `PARTITION BY` values), maintenance is
//!   disabled *permanently* for the subscription — those conditions don't
//!   un-happen — and every append recomputes on the engine, preserving the
//!   engine's bound-agreement promise.
//! * **Out-of-order appends rebuild.** The window sweep consumes rows in
//!   ascending ORDER BY position; a batch overlapping the accumulated
//!   frontier rebuilds the state from every accumulated row through the
//!   same step subscribe uses, and is reported as a recompute. Top-k
//!   maintenance accepts appends in any order and never rebuilds.
//!
//! Ground truth is always the engine itself: with maintenance off an
//! append runs `engine.execute(plan.with_source(accumulated))`, and the
//! property tests pin the maintained value bag-equal to that on all three
//! backends.
//!
//! ## Delta semantics
//!
//! The maintained value is the normalized output bag. A [`Delta`] lists
//! `removed` (key's old row/multiplicity) and `added` (new) for exactly
//! the keys whose normalized entry changed: `value_after = value_before −
//! removed + added`. Replaying every delta from subscription onward
//! reconstructs [`MaintainedQuery::value`].

use crate::backend;
use crate::engine::{BackendChoice, Engine};
use crate::error::SessionError;
use crate::plan::{Op, Plan};
use audb_core::{AuRelation, AuTuple, Mult3, SortKey};
use audb_native::{MaintainedWindow, TopKMaintain};
use std::collections::BTreeMap;
use std::sync::Arc;

/// How one append batch was absorbed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Strategy {
    /// The batch updated live sweep state in `O(log n)` per row.
    #[default]
    Incremental,
    /// The full plan re-ran over the accumulated relation, or the sweep
    /// state was rebuilt from it.
    Recompute,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Incremental => write!(f, "incremental"),
            Strategy::Recompute => write!(f, "recompute"),
        }
    }
}

/// The changed output rows of one append: `value_after = value_before −
/// removed + added`, as normalized `(row, multiplicity)` entries.
#[derive(Clone, Debug, Default)]
pub struct Delta {
    /// Entries whose old form left the result (or changed multiplicity).
    pub removed: Vec<(AuTuple, Mult3)>,
    /// Entries now in the result (with their new multiplicity).
    pub added: Vec<(AuTuple, Mult3)>,
    /// How this batch was absorbed.
    pub strategy: Strategy,
}

impl Delta {
    /// True iff the append changed nothing in the output.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// Live sweep state of the plan's final operator.
enum Sweep {
    Window(MaintainedWindow),
    TopK(TopKMaintain),
}

type ResultMap = BTreeMap<SortKey, (AuTuple, Mult3)>;

/// A subscribed query: a compiled [`Plan`] whose result stays current
/// under [`MaintainedQuery::append`]ed rows. Obtain one from
/// [`crate::Session::subscribe`].
pub struct MaintainedQuery {
    engine: Engine,
    plan: Plan,
    /// The row-wise prefix of the plan (everything before the final op).
    pre: Plan,
    /// Raw accumulated source rows (initial relation + every batch). Shares
    /// the subscribed table's rows until the first append.
    accum: Arc<AuRelation>,
    /// The normalized current result: row key → (row, multiplicity).
    current: ResultMap,
    /// Open (provisional) window rows contributed to `current` by the last
    /// seed or incremental append — removed again on the next one.
    open_prev: Vec<(AuTuple, Mult3)>,
    /// Live sweep state; `None` exactly when `fallback` is set.
    sweep: Option<Sweep>,
    /// Maintenance permanently disabled for this subscription, and why.
    fallback: Option<String>,
    incremental_appends: u64,
    recompute_appends: u64,
    last: Option<(Strategy, usize)>,
}

impl MaintainedQuery {
    pub(crate) fn new(engine: Engine, plan: Plan) -> Result<MaintainedQuery, SessionError> {
        let ops = plan.ops();
        let row_wise = ops.iter().rev().skip(1).all(|op| {
            matches!(
                op,
                Op::Select { .. } | Op::Project { .. } | Op::ProjectExprs { .. }
            )
        });
        let fallback = match ops.last() {
            Some(op @ (Op::Window { .. } | Op::TopK { .. })) if row_wise => {
                (engine.effective() != BackendChoice::Native).then(|| {
                    format!(
                        "{} maintenance requires the native backend (engine runs {})",
                        op.name(),
                        engine.effective()
                    )
                })
            }
            Some(op) => Some(format!(
                "final operator `{}` is not maintainable",
                op.name()
            )),
            None => Some("plan has no maintainable operator".to_string()),
        };
        let mut q = MaintainedQuery {
            engine,
            pre: plan.prefix(ops.len().saturating_sub(1)),
            accum: Arc::clone(plan.source_arc()),
            current: BTreeMap::new(),
            open_prev: Vec::new(),
            sweep: None,
            fallback,
            incremental_appends: 0,
            recompute_appends: 0,
            last: None,
            plan,
        };
        q.seed()?;
        Ok(q)
    }

    /// The compiled plan this subscription maintains.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The current result, normalized, in deterministic row-key order.
    pub fn value(&self) -> AuRelation {
        AuRelation::from_rows(self.plan.schema().clone(), self.current.values().cloned())
    }

    /// Raw accumulated source rows (initial relation plus every appended
    /// batch, in arrival order).
    pub fn accumulated(&self) -> &AuRelation {
        &self.accum
    }

    /// `(incremental, recompute)` append counts so far.
    pub fn strategy_counts(&self) -> (u64, u64) {
        (self.incremental_appends, self.recompute_appends)
    }

    /// Append a batch of source rows and return the changed output rows.
    /// The batch must carry the subscribed table's exact schema.
    pub fn append(&mut self, batch: &AuRelation) -> Result<Delta, SessionError> {
        if batch.schema != self.plan.schemas()[0] {
            return Err(SessionError::Plan(
                crate::error::PlanError::SourceSchemaMismatch {
                    expected: self.plan.schemas()[0].to_string(),
                    got: batch.schema.to_string(),
                },
            ));
        }
        let accum = Arc::make_mut(&mut self.accum);
        for row in batch.rows() {
            accum.push(row.tuple.clone(), row.mult);
        }
        let (strategy, delta) = match self.try_incremental(batch)? {
            Some(delta) => {
                self.incremental_appends += 1;
                (Strategy::Incremental, delta)
            }
            None => {
                self.recompute_appends += 1;
                let before = std::mem::take(&mut self.current);
                self.seed()?;
                (Strategy::Recompute, diff_maps(&before, &self.current))
            }
        };
        self.last = Some((strategy, batch.rows().len()));
        Ok(Delta { strategy, ..delta })
    }

    /// The engine's explain output for the subscribed plan, followed by
    /// stable maintenance lines (strategy, append counts).
    pub fn explain(&self) -> String {
        let mut s = self.engine.explain(&self.plan).to_string();
        if !s.ends_with('\n') {
            s.push('\n');
        }
        let mode = match (&self.fallback, &self.sweep) {
            (Some(reason), _) => format!("always recompute — {reason}"),
            (None, Some(Sweep::Window(_))) => "window incremental".to_string(),
            (None, _) => "top-k incremental".to_string(),
        };
        s.push_str(&format!("maintain: {mode}\n"));
        s.push_str(&format!(
            "appends: {} incremental, {} recompute\n",
            self.incremental_appends, self.recompute_appends
        ));
        if let Some((strategy, rows)) = &self.last {
            s.push_str(&format!("last append: {strategy} ({rows} rows)\n"));
        }
        s
    }

    /// `plan` (the full plan or its row-wise prefix) over the accumulated
    /// rows. Until the first append those are the subscribed table's own
    /// rows, so the plan runs as bound, over the catalog's columns.
    fn over_accum(&self, plan: &Plan) -> Result<AuRelation, SessionError> {
        let out = if Arc::ptr_eq(plan.source_arc(), &self.accum) {
            self.engine.execute(plan)?
        } else {
            self.engine
                .execute(&plan.with_source(Arc::clone(&self.accum))?)?
        };
        Ok(out)
    }

    /// Build the sweep state from every accumulated row in one pass and
    /// read the value off it — the one place sweep state is built, at
    /// subscribe and after an out-of-order batch. With maintenance off (or
    /// switched off here, when the rows need the reference window) the
    /// full plan runs on the engine instead.
    fn seed(&mut self) -> Result<(), SessionError> {
        self.sweep = None;
        self.open_prev = Vec::new();
        if self.fallback.is_some() {
            self.current = result_map(self.over_accum(&self.plan)?);
            return Ok(());
        }
        let pre = self.over_accum(&self.pre)?.normalize();
        let (sweep, out) = match self.plan.ops().last() {
            Some(Op::Window {
                spec,
                agg,
                out_name,
            }) if !backend::Native::window_needs_reference(&pre, spec) => {
                let mut m = MaintainedWindow::new(pre.schema.clone(), spec.clone(), *agg, out_name);
                m.apply(&pre);
                let mut rows = m.drain_new_closed();
                self.open_prev = m.open_result();
                rows.extend(self.open_prev.iter().cloned());
                let out = AuRelation::from_rows(self.plan.schema().clone(), rows);
                (Sweep::Window(m), out)
            }
            Some(Op::Window { .. }) => {
                self.fallback = Some(
                    "accumulated rows need the reference window \
                     (duplicate multiplicities or uncertain PARTITION BY)"
                        .to_string(),
                );
                return self.seed();
            }
            Some(Op::TopK { order, k, pos_name }) => {
                let mut m = TopKMaintain::new(pre.schema.clone(), order.clone(), *k, pos_name);
                m.apply(&pre);
                let out = m.result();
                (Sweep::TopK(m), out)
            }
            _ => unreachable!("every other shape has maintenance off"),
        };
        self.current = result_map(out);
        self.sweep = Some(sweep);
        Ok(())
    }

    /// Absorb `batch` (already in `accum`) into the live sweep state and
    /// return the changed rows. `None` when it cannot: the caller then
    /// re-seeds, which rebuilds the state after a frontier overlap and
    /// recomputes once maintenance is off.
    fn try_incremental(&mut self, batch: &AuRelation) -> Result<Option<Delta>, SessionError> {
        let Some(sweep) = &mut self.sweep else {
            return Ok(None);
        };
        // Row-wise prefix over the batch alone ≡ its contribution to the
        // prefix over the accumulated relation.
        let pre_batch = self
            .engine
            .execute(&self.pre.with_source(batch.clone())?)?
            .normalize();
        let m = match sweep {
            Sweep::TopK(m) => {
                m.apply(&pre_batch);
                // The whole top-k band is the changed region; diff it
                // against the previous map wholesale (O(k), not O(n)).
                let before = std::mem::replace(&mut self.current, result_map(m.result()));
                return Ok(Some(diff_maps(&before, &self.current)));
            }
            Sweep::Window(m) => m,
        };
        // The native window's documented fallbacks are sticky: a duplicate
        // multiplicity or uncertain partition value stays in the data.
        if pre_batch.rows().iter().any(|r| r.mult.ub > 1) {
            self.fallback =
                Some("appended rows carry duplicate multiplicities (k↑ > 1)".to_string());
            return Ok(None);
        }
        if let Err(reason) = m.check_batch(&pre_batch) {
            // A frontier overlap only needs a rebuild.
            if reason.contains("PARTITION BY") {
                self.fallback = Some(reason);
            }
            return Ok(None);
        }
        m.apply(&pre_batch);
        // Retract the previous open rows, add the newly closed and
        // currently open rows, and report the keys whose normalized entry
        // changed. `O(changed)`, not `O(n)`.
        let mut additions = m.drain_new_closed();
        let open_now = m.open_result();
        additions.extend(open_now.iter().cloned());
        let removals = std::mem::replace(&mut self.open_prev, open_now);
        let mut touched: BTreeMap<SortKey, Option<(AuTuple, Mult3)>> = BTreeMap::new();
        for (t, mult) in removals {
            let key = SortKey::of_row(&t);
            touched
                .entry(key.clone())
                .or_insert_with(|| self.current.get(&key).cloned());
            sub_entry(&mut self.current, key, &t, mult);
        }
        for (t, mult) in additions {
            let key = SortKey::of_row(&t);
            touched
                .entry(key.clone())
                .or_insert_with(|| self.current.get(&key).cloned());
            add_entry(&mut self.current, key, t, mult);
        }
        let mut delta = Delta::default();
        for (key, before) in touched {
            let after = self.current.get(&key);
            if before.as_ref() != after {
                delta.removed.extend(before);
                delta.added.extend(after.cloned());
            }
        }
        Ok(Some(delta))
    }
}

impl std::fmt::Debug for MaintainedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainedQuery")
            .field("rows", &self.accum.rows().len())
            .field("result_rows", &self.current.len())
            .field("incremental", &self.incremental_appends)
            .field("recompute", &self.recompute_appends)
            .finish()
    }
}

/// The normalized result map of an operator output.
fn result_map(out: AuRelation) -> ResultMap {
    out.normalize()
        .rows()
        .iter()
        .map(|row| (SortKey::of_row(&row.tuple), (row.tuple.clone(), row.mult)))
        .collect()
}

fn add_entry(map: &mut ResultMap, key: SortKey, t: AuTuple, mult: Mult3) {
    let e = map.entry(key).or_insert_with(|| (t, Mult3::new(0, 0, 0)));
    e.1 = Mult3::new(e.1.lb + mult.lb, e.1.sg + mult.sg, e.1.ub + mult.ub);
}

fn sub_entry(map: &mut ResultMap, key: SortKey, t: &AuTuple, mult: Mult3) {
    let e = map
        .get_mut(&key)
        .unwrap_or_else(|| panic!("retracting a row that is not in the maintained result: {t:?}"));
    e.1 = Mult3::new(e.1.lb - mult.lb, e.1.sg - mult.sg, e.1.ub - mult.ub);
    if e.1.ub == 0 {
        map.remove(&key);
    }
}

/// Full map diff (the recompute path's delta): every key present in either
/// map whose entry changed.
fn diff_maps(before: &ResultMap, after: &ResultMap) -> Delta {
    let mut delta = Delta::default();
    for (key, b) in before {
        match after.get(key) {
            Some(a) if a == b => {}
            _ => delta.removed.push(b.clone()),
        }
    }
    for (key, a) in after {
        match before.get(key) {
            Some(b) if a == b => {}
            _ => delta.added.push(a.clone()),
        }
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::session::Session;
    use audb_core::RangeValue;
    use audb_rel::Schema;
    use std::sync::Arc as StdArc;

    fn rv(lb: i64, sg: i64, ub: i64) -> RangeValue {
        RangeValue::new(lb, sg, ub)
    }

    fn stream_rows(n: usize, seed: u64) -> Vec<(AuTuple, Mult3)> {
        let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        (0..n)
            .map(|i| {
                let o = 10 * i as i64;
                let j = (step() % 5) as i64;
                let v = (step() % 100) as i64 - 50;
                (
                    AuTuple::new([rv(o - j, o, o + j), rv(v, v, v + (step() % 3) as i64)]),
                    if step() % 4 == 0 {
                        Mult3::new(0, 1, 1)
                    } else {
                        Mult3::ONE
                    },
                )
            })
            .collect()
    }

    fn rel_of(rows: &[(AuTuple, Mult3)]) -> AuRelation {
        AuRelation::from_rows(Schema::new(["o", "v"]), rows.iter().cloned())
    }

    const ROLLING_SQL: &str = "SELECT *, SUM(v) OVER (ORDER BY o \
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll FROM s";

    fn subscribe(rows: &[(AuTuple, Mult3)]) -> MaintainedQuery {
        let session = Session::new(Engine::native());
        session.register("s", rel_of(rows));
        session.subscribe(ROLLING_SQL).unwrap()
    }

    #[test]
    fn value_tracks_recompute_and_deltas_replay() {
        let rows = stream_rows(60, 5);
        let mut q = subscribe(&rows[..20]);
        let session = Session::new(Engine::native());
        // Replay target: apply every delta to the initial value's map.
        let mut replay: ResultMap = q.current.clone();
        for chunk in rows[20..].chunks(7) {
            let delta = q.append(&rel_of(chunk)).unwrap();
            for (t, m) in &delta.removed {
                sub_entry(&mut replay, SortKey::of_row(t), t, *m);
            }
            for (t, m) in &delta.added {
                add_entry(&mut replay, SortKey::of_row(t), t.clone(), *m);
            }
            // Ground truth: full recompute over the accumulated rows.
            session.register("s", q.accumulated().clone());
            let truth = session.sql(ROLLING_SQL).unwrap();
            let value = q.value();
            assert!(value.bag_eq(&truth), "value:\n{value}\ntruth:\n{truth}");
            assert_eq!(replay, q.current, "deltas must replay to the value");
        }
        assert_eq!(
            q.strategy_counts(),
            (6, 0),
            "in-order appends are incremental from the first one"
        );
    }

    #[test]
    fn out_of_order_appends_recompute_then_resume_incremental() {
        let rows = stream_rows(40, 3);
        let mut q = subscribe(&rows[..24]);
        assert_eq!(
            q.append(&rel_of(&rows[24..30])).unwrap().strategy,
            Strategy::Incremental,
            "subscribe seeds the state"
        );
        assert_eq!(
            q.append(&rel_of(&rows[30..34])).unwrap().strategy,
            Strategy::Incremental
        );
        // An overlapping (out-of-order) batch forces a recompute + rebuild…
        let overlap = vec![(AuTuple::new([rv(5, 7, 9), rv(1, 1, 1)]), Mult3::ONE)];
        assert_eq!(
            q.append(&rel_of(&overlap)).unwrap().strategy,
            Strategy::Recompute
        );
        // …but is not sticky: the next in-order batch is incremental again.
        assert_eq!(
            q.append(&rel_of(&rows[34..38])).unwrap().strategy,
            Strategy::Incremental
        );
        let text = q.explain();
        assert!(text.contains("maintain: window incremental\n"), "{text}");
        assert!(
            text.contains("appends: 3 incremental, 1 recompute"),
            "{text}"
        );
        assert!(text.contains("last append: incremental (4 rows)"), "{text}");
        let session = Session::new(Engine::native());
        session.register("s", q.accumulated().clone());
        let truth = session.sql(ROLLING_SQL).unwrap();
        assert!(q.value().bag_eq(&truth));
    }

    #[test]
    fn duplicate_multiplicities_disable_maintenance_permanently() {
        let rows = stream_rows(30, 17);
        let mut q = subscribe(&rows[..20]);
        q.append(&rel_of(&rows[20..24])).unwrap();
        assert_eq!(
            q.append(&rel_of(&rows[24..26])).unwrap().strategy,
            Strategy::Incremental
        );
        // k↑ = 2 hits the native window's documented fallback — sticky.
        let dup = vec![(
            AuTuple::new([rv(400, 400, 400), rv(1, 1, 1)]),
            Mult3::new(1, 1, 2),
        )];
        assert_eq!(
            q.append(&rel_of(&dup)).unwrap().strategy,
            Strategy::Recompute
        );
        assert_eq!(
            q.append(&rel_of(&rows[26..28])).unwrap().strategy,
            Strategy::Recompute,
            "fallback is permanent"
        );
        assert!(q.explain().contains("always recompute"), "{}", q.explain());
        let session = Session::new(Engine::native());
        session.register("s", q.accumulated().clone());
        assert!(q.value().bag_eq(&session.sql(ROLLING_SQL).unwrap()));
    }

    #[test]
    fn topk_subscription_accepts_any_order() {
        let rows = stream_rows(50, 23);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..20]));
        let sql = "SELECT * FROM s ORDER BY v AS rank LIMIT 5";
        let mut q = session.subscribe(sql).unwrap();
        // Appends in reverse order: top-k maintenance has no frontier.
        let mut chunks: Vec<&[(AuTuple, Mult3)]> = rows[20..].chunks(6).collect();
        chunks.reverse();
        let mut saw_incremental = false;
        for chunk in chunks {
            let d = q.append(&rel_of(chunk)).unwrap();
            saw_incremental |= d.strategy == Strategy::Incremental;
            session.register("s", q.accumulated().clone());
            let truth = session.sql(sql).unwrap();
            assert!(q.value().bag_eq(&truth), "{}\nvs\n{truth}", q.value());
        }
        assert!(saw_incremental);
        assert!(q.explain().contains("top-k incremental"), "{}", q.explain());
    }

    #[test]
    fn non_maintainable_and_non_native_shapes_always_recompute() {
        let rows = stream_rows(20, 29);
        let session = Session::new(Engine::native());
        session.register("s", rel_of(&rows[..10]));
        // Final op is a plain sort — not maintainable.
        let mut q = session
            .subscribe("SELECT * FROM s ORDER BY o AS p")
            .unwrap();
        let d = q.append(&rel_of(&rows[10..15])).unwrap();
        assert_eq!(d.strategy, Strategy::Recompute);
        assert!(
            q.explain()
                .contains("always recompute — final operator `sort`"),
            "{}",
            q.explain()
        );
        // Reference engine: window maintenance requires the native backend.
        let ref_session = Session::new(Engine::reference());
        ref_session.register("s", rel_of(&rows[..10]));
        let mut q = ref_session.subscribe(ROLLING_SQL).unwrap();
        assert_eq!(
            q.append(&rel_of(&rows[10..15])).unwrap().strategy,
            Strategy::Recompute
        );
        assert!(q.explain().contains("requires the native backend"));
        let check = Session::new(Engine::reference());
        check.register("s", q.accumulated().clone());
        assert!(q.value().bag_eq(&check.sql(ROLLING_SQL).unwrap()));
    }

    #[test]
    fn append_rejects_mismatched_schemas() {
        let rows = stream_rows(10, 31);
        let mut q = subscribe(&rows);
        let bad = AuRelation::empty(Schema::new(["o", "v", "extra"]));
        let e = q.append(&bad).unwrap_err();
        assert_eq!(e.kind(), "schema_mismatch");
        // Pre-oped plans survive: the subscription still answers.
        let _ = StdArc::new(q.value());
    }
}
