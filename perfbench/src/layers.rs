//! The traced run's view of the program: the public calls a request
//! makes, replayed in process with one span per call, and the per-layer
//! metrics computed from those spans and from the program's own return
//! values (`ExecTrace`, `PlanCache::stats`, `MaintainedQuery`).

use crate::stats::{median, sorted, tail};
use crate::trace::{self_times, Tracer};
use crate::Measured;
use crate::SERVER_WORKERS;
use audb_core::stats::TableStats;
use audb_core::AuRelation;
use audb_engine::{Engine, SharedCatalog};
use audb_engine::{ExecTrace, Plan, PlanCache, Session};
use audb_server::http::Request;
use audb_server::{serve, wire, ConnState, ServerConfig, ServerHandle, ServerState};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An op whose span the layer self times leave more than this share of
/// uncovered counts against the tracing tolerance.
pub const COVERAGE_TOLERANCE: f64 = 0.10;
/// ... unless the uncovered part is shorter than this (glue code between
/// calls costs a few microseconds however short the op).
pub const COVERAGE_SLACK_US: f64 = 50.0;

/// Counters gathered next to the spans.
#[derive(Default)]
pub struct Counters {
    pub lookups: u64,
    pub hits: u64,
    pub skipped: u64,
    pub scanned: u64,
    /// Per breaker layer: (rows in, rows out) of each call.
    pub breaker_rows: BTreeMap<&'static str, Vec<(f64, f64)>>,
    pub json_bytes: u64,
    pub json_rows: u64,
    /// Untraced in-process `wire::handle` plus JSON text of each
    /// `/query`, µs.
    pub handle_us: Vec<f64>,
    /// Untraced in-process op time, µs (the tracing-overhead baseline).
    pub untraced_op_us: Vec<f64>,
    /// Untraced socket `/query` latency, µs.
    pub socket_us: Vec<f64>,
    /// Generator lateness of the open loop, ms.
    pub late_ms: Vec<f64>,
    pub incremental: u64,
    pub recompute: u64,
    pub delta_rows: Vec<f64>,
}

/// The layer an `ExecTrace` operator label belongs to.
fn exec_layer(label: &str) -> &'static str {
    match label {
        "sort" => "native.sort",
        "topk" => "native.topk",
        "window" => "native.window",
        // `scan`, `fuse(…)` and the materialized row-wise operators.
        _ => "exec.fuse",
    }
}

/// `Engine::execute_traced` under an `engine.execute` span, with the
/// executor's own per-operator timings as derived child spans.
pub fn execute(
    t: &mut Tracer,
    session: &Session,
    plan: &Plan,
    c: &mut Counters,
) -> Result<AuRelation, String> {
    let (rel, trace): (AuRelation, ExecTrace) = t
        .span("engine.execute", |_| session.engine().execute_traced(plan))
        .map_err(|e| e.to_string())?;
    if let Some(id) = t.last("engine.execute") {
        let kids: Vec<(&str, Duration)> = trace
            .ops
            .iter()
            .map(|op| (exec_layer(&op.label), op.elapsed))
            .collect();
        t.derived(id, &kids);
    }
    c.skipped += trace.batches_skipped as u64;
    c.scanned += trace.batches_scanned as u64;
    for pair in trace.ops.windows(2) {
        let layer = exec_layer(&pair[1].label);
        if layer.starts_with("native.") {
            c.breaker_rows
                .entry(layer)
                .or_default()
                .push((pair[0].rows_out as f64, pair[1].rows_out as f64));
        }
    }
    Ok(rel)
}

/// Attach a parse and a bind+optimize child to span `parent`, measured by
/// running the same public calls again on their own.
fn attach_prepare(t: &mut Tracer, parent: usize, session: &Session, sql: &str) {
    let start = Instant::now();
    let parsed = audb_sql::parse(sql);
    let parse = start.elapsed();
    let start = Instant::now();
    let prepared = session.prepare(sql);
    let prepare = start.elapsed();
    std::hint::black_box((parsed.is_ok(), prepared.is_ok()));
    t.derived(
        parent,
        &[
            ("sql.parse", parse),
            ("engine.prepare", prepare.saturating_sub(parse)),
        ],
    );
}

/// The `/query` route replayed in process: `prepare_cached` →
/// `source_columns` → `execute_traced` → `relation_body` → JSON text,
/// under one `op.query` span. Returns the response text.
pub fn cached_query(
    t: &mut Tracer,
    session: &Session,
    cache: &PlanCache,
    sql: &str,
    c: &mut Counters,
) -> Result<String, String> {
    t.begin_request();
    let (text, hit) = t.span("op.query", |t| {
        let (prepared, hit) = t
            .span("plancache.lookup", |_| session.prepare_cached(cache, sql))
            .map_err(|e| e.to_string())?;
        t.span("exec.transpose", |_| {
            std::hint::black_box(prepared.plan().source_columns().len())
        });
        let rel = execute(t, session, prepared.plan(), c)?;
        let rows = rel.len();
        let text = t.span("json.encode", |_| wire::relation_body(rel).to_string());
        c.json_bytes += text.len() as u64;
        c.json_rows += rows as u64;
        Ok::<_, String>((text, hit))
    })?;
    c.lookups += 1;
    if hit {
        c.hits += 1;
    } else if let Some(id) = t.last("plancache.lookup") {
        attach_prepare(t, id, session, sql);
    }
    Ok(text)
}

/// `wire::handle` of one `/query` plus its JSON text, untraced: the
/// in-process baseline for the wire overhead and the tracing overhead.
/// Returns the reply's status.
pub fn handle_query(state: &ServerState, sql: &str, c: &mut Counters) -> u16 {
    let req = Request {
        method: "POST".into(),
        path: "/query".into(),
        query: Vec::new(),
        body: sql.as_bytes().to_vec(),
        keep_alive: true,
    };
    let mut conn = ConnState::default();
    let start = Instant::now();
    let (status, body) = wire::handle(state, &mut conn, &req);
    let text = body.to_string();
    let us = start.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(text.len());
    c.handle_us.push(us);
    c.untraced_op_us.push(us);
    status
}

/// `Session::sql` replayed as its public calls: `Session::prepare` (with
/// the parse inside it derived) → `source_columns` → `execute_traced`,
/// under one `op.query` span.
pub fn session_query(
    t: &mut Tracer,
    session: &Session,
    sql: &str,
    c: &mut Counters,
) -> Result<AuRelation, String> {
    t.begin_request();
    let rel = t.span("op.query", |t| {
        let prepared = t
            .span("engine.prepare", |_| session.prepare(sql))
            .map_err(|e| e.to_string())?;
        t.span("exec.transpose", |_| {
            std::hint::black_box(prepared.plan().source_columns().len())
        });
        execute(t, session, prepared.plan(), c)
    })?;
    if let Some(id) = t.last("engine.prepare") {
        let start = Instant::now();
        let parsed = audb_sql::parse(sql);
        let parse = start.elapsed();
        std::hint::black_box(parsed.is_ok());
        t.derived(id, &[("sql.parse", parse)]);
    }
    Ok(rel)
}

/// `SharedCatalog::register` under a `catalog.register` span, with the
/// statistics build inside it as a derived child.
pub fn register(t: &mut Tracer, catalog: &SharedCatalog, name: &str, rel: &Arc<AuRelation>) {
    t.span("catalog.register", |_| {
        catalog.register(name, Arc::clone(rel))
    });
    if let Some(id) = t.last("catalog.register") {
        attach_stats(t, id, rel);
    }
}

/// Start the server under test on an ephemeral loopback port.
pub fn start_server(catalog: SharedCatalog) -> Result<ServerHandle, String> {
    let state = ServerState::new(Engine::native(), catalog, SERVER_WORKERS);
    let config = ServerConfig {
        port: 0,
        threads: SERVER_WORKERS,
        // The benchmark's connections stay open for the whole run.
        keepalive_limit: usize::MAX,
    };
    serve(state, config).map_err(|e| format!("serve: {e}"))
}

/// Attach a `stats.build` child to span `parent`, measured by
/// `TableStats::of_relation` on `table` (the table at its current size).
pub fn attach_stats(t: &mut Tracer, parent: usize, table: &AuRelation) {
    let start = Instant::now();
    std::hint::black_box(TableStats::of_relation(table).rows);
    let d = start.elapsed();
    t.derived(parent, &[("stats.build", d)]);
}

fn p50(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Every per-layer metric, in a fixed order, from the spans and counters
/// of a traced run. A layer the workload never called reports 0.
pub fn report(t: &Tracer, c: &Counters, out: &mut Measured) {
    let spans = t.spans();
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut inclusive: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut ops, mut outside) = (0usize, 0usize);
    let mut coverage = Vec::new();
    let mut op_us = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        by_layer
            .entry(s.name.as_str())
            .or_default()
            .push(self_ns as f64 / 1e3);
        inclusive
            .entry(s.name.as_str())
            .or_default()
            .push(s.duration_ns() as f64 / 1e3);
        if s.name == "op.query" {
            op_us.push(s.duration_ns() as f64 / 1e3);
        }
        if s.name.starts_with("op.") {
            ops += 1;
            let dur = s.duration_ns().max(1) as f64;
            let uncovered = self_ns as f64;
            coverage.push(1.0 - uncovered / dur);
            if uncovered / dur > COVERAGE_TOLERANCE && uncovered / 1e3 > COVERAGE_SLACK_US {
                outside += 1;
            }
        }
    }
    let us = |name: &str| by_layer.get(name).map_or(0.0, |v| p50(v));
    let ms = |name: &str| us(name) / 1e3;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let rows = |layer: &str, which: usize| {
        c.breaker_rows.get(layer).map_or(0.0, |v| {
            p50(&v
                .iter()
                .map(|&(i, o)| if which == 0 { i } else { o })
                .collect::<Vec<_>>())
        })
    };

    out.metric("sql.parse_us", us("sql.parse"), "us");
    out.metric("engine.prepare_us", us("engine.prepare"), "us");
    out.metric("plancache.lookup_us", us("plancache.lookup"), "us");
    out.metric("plancache.hit_ratio", ratio(c.hits, c.lookups), "ratio");
    out.metric("exec.transpose_ms", ms("exec.transpose"), "ms");
    out.metric("engine.execute_us", us("engine.execute"), "us");
    out.metric("exec.fuse_ms", ms("exec.fuse"), "ms");
    out.metric(
        "exec.skip_ratio",
        ratio(c.skipped, c.skipped + c.scanned),
        "ratio",
    );
    out.metric("native.topk_ms", ms("native.topk"), "ms");
    out.metric("native.topk_rows_in", rows("native.topk", 0), "rows");
    out.metric("native.topk_rows_out", rows("native.topk", 1), "rows");
    out.metric("native.sort_ms", ms("native.sort"), "ms");
    out.metric("native.sort_rows_in", rows("native.sort", 0), "rows");
    out.metric("native.sort_rows_out", rows("native.sort", 1), "rows");
    out.metric("native.window_ms", ms("native.window"), "ms");
    out.metric("native.window_rows_in", rows("native.window", 0), "rows");
    out.metric("native.window_rows_out", rows("native.window", 1), "rows");
    out.metric("json.encode_us", us("json.encode"), "us");
    out.metric(
        "json.bytes_per_row",
        ratio(c.json_bytes, c.json_rows),
        "B/row",
    );
    let handle = p50(&c.handle_us);
    out.metric("wire.handle_us", handle, "us");
    let overhead = if c.socket_us.is_empty() {
        0.0
    } else {
        p50(&c.socket_us) - handle
    };
    out.metric("wire.overhead_us", overhead, "us");
    out.metric("csv.parse_us", us("csv.parse"), "us");
    out.metric("catalog.append_ms", ms("catalog.append"), "ms");
    out.metric("stats.build_ms", ms("stats.build"), "ms");
    // Set-up layers report whole calls: registering a table is almost
    // all statistics, which `stats.build_ms` already shows.
    let whole_ms = |name: &str| inclusive.get(name).map_or(0.0, |v| p50(v)) / 1e3;
    out.metric("catalog.register_ms", whole_ms("catalog.register"), "ms");
    out.metric(
        "maintain.subscribe_ms",
        whole_ms("maintain.subscribe"),
        "ms",
    );
    out.metric("maintain.window_append_us", us("maintain.window"), "us");
    out.metric("maintain.topk_append_us", us("maintain.topk"), "us");
    out.metric(
        "maintain.incremental_ratio",
        ratio(c.incremental, c.incremental + c.recompute),
        "ratio",
    );
    out.metric("maintain.delta_rows", p50(&c.delta_rows), "rows");
    let late = tail(&sorted(c.late_ms.clone()), 99.0).map_or(0.0, |t| t.value);
    out.metric("gen.late_p99_ms", late, "ms");
    let covered = p50(&coverage);
    out.metric("trace.coverage", covered, "ratio");
    let overhead = if c.untraced_op_us.is_empty() {
        0.0
    } else {
        p50(&op_us) - p50(&c.untraced_op_us)
    };
    out.metric("trace.overhead_us", overhead, "us");

    out.line(format!(
        "trace: {} spans over {ops} ops; median coverage {covered:.4}; {outside} ops leave more than {:.0}% (and {COVERAGE_SLACK_US} us) of their span to no layer",
        spans.len(),
        COVERAGE_TOLERANCE * 100.0
    ));
    out.line(format!(
        "trace: tracing overhead {overhead:.1} us = traced op p50 {:.1} us - untraced p50 {:.1} us",
        p50(&op_us),
        p50(&c.untraced_op_us)
    ));
    for (layer, v) in &by_layer {
        out.line(format!(
            "layer {layer:<20} calls {:>6}  self p50 {:>10.1} us  total {:>12.1} us",
            v.len(),
            p50(v),
            v.iter().sum::<f64>()
        ));
    }
}

/// Write the spans to `<target dir>/perfbench-spans-<workload>-<seed>.jsonl`
/// (the build directory, which version control ignores).
pub fn write_spans(t: &Tracer, workload: &str, seed: u64) -> Result<String, String> {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string());
    std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
    let path = format!("{dir}/perfbench-spans-{workload}-{seed}.jsonl");
    let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    t.write_jsonl(&mut w).map_err(|e| format!("{path}: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("{path}: {e}"))?;
    Ok(path)
}
