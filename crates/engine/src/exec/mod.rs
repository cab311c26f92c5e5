//! The physical execution layer between [`Plan`](crate::Plan) and the
//! backends: batch-streaming pipelines with fused scans running
//! morsel-parallel, materializing only at pipeline breakers.
//!
//! Logical plans are linear operator chains. Before this layer existed,
//! every backend executed them operator-at-a-time, materializing a full
//! [`AuRelation`](audb_core::AuRelation) between steps — a
//! `scan → select → project → window` query paid three intermediate
//! relation builds before the window operator even started. The executor
//! here removes that: a [`lower`] pass splits the chain into
//! [`Pipeline`]s, fusing adjacent `select`/`project`/`project_exprs`
//! operators into a single per-batch closure chain, and marking the
//! order-based operators (`sort`, `topk`, `window`) as **pipeline
//! breakers** — the only points where state is materialized.
//!
//! Execution ([`execute`]) is the only way a plan runs, on every backend
//! and at every input size. It columnarizes each fused stage's input
//! ([`audb_core::AuColumns`] — the published table's columns when the
//! stage reads the scan source unchanged) and streams cache-sized
//! zero-copy column-slice [`AuBatch`](audb_core::AuBatch) morsels through
//! the fused chain in parallel (via `audb-par`, with deterministic output
//! order) as vectorized column sweeps, then hands the single materialized
//! build side to the backend's breaker hook. Per-operator wall times and
//! batch counts are collected in an [`ExecTrace`], surfaced by
//! `Engine::run_all` and the `repro bench` harness.
//!
//! The semantic contract, property-tested in `tests/pipeline_equivalence.rs`:
//! for every plan, backend and batch size, execution is bag-equal to the
//! plan folded operator-at-a-time — `audb_core`'s row operators for the
//! streamable steps, the same backend's breaker hooks for the rest.

mod lower;
mod run;

pub use lower::{is_breaker, lower, Pipeline};
pub use run::{execute, ExecTrace, OpTiming, DEFAULT_BATCH_SIZE};
