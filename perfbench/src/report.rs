//! `report`: the paper's analytical case at 256k rows, in process.
//!
//! One caller in a closed loop runs `Session::sql` over a fixed rotation:
//! top-k over all of `s`, a sort over a ~50% non-clustered predicate on
//! `s`, and the partitioned window over a ~50% non-clustered predicate on
//! `w`. The native breakers, the fused select over every batch and row
//! materialization do almost all the work; there is no socket, no JSON,
//! no plan cache and no zone skipping.

use crate::check;
use crate::data::{self, Shape};
use crate::layers::{self, Counters};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Args, Measured, Outcome};
use audb_core::AuRelation;
use audb_engine::{Engine, Session, SharedCatalog};
use std::sync::Arc;
use std::time::Instant;

/// Rows of `s` and of `w`.
pub const ROWS: usize = 262_144;

/// Register both tables in a fresh catalog and run one top-k query to
/// warm the allocator and caches.
fn setup(t: &mut Tracer, s: &Arc<AuRelation>, w: &Arc<AuRelation>) -> Result<Session, String> {
    t.begin_request();
    t.span("setup", |t| {
        let catalog = SharedCatalog::new();
        layers::register(t, &catalog, "s", s);
        layers::register(t, &catalog, "w", w);
        let session = Session::with_catalog(Engine::native(), catalog);
        session
            .sql(&data::report_sql(Shape::TopK, ROWS))
            .map_err(|e| format!("warm-up: {e}"))?;
        Ok(session)
    })
}

/// One process: set up and run rotations while one more fits in the
/// time; the traced run also replays each query with spans.
pub fn run(args: &Args) -> Result<Measured, String> {
    let s = Arc::new(data::sort_table(ROWS, args.seed));
    let w = Arc::new(data::window_table(ROWS, args.seed));
    let texts: Vec<String> = Shape::ALL
        .iter()
        .map(|&sh| data::report_sql(sh, ROWS))
        .collect();
    let mut m = Measured::default();
    if args.child.unwrap_or(0) == 0 {
        let agreed = check::backends_agree(args.seed)?;
        m.line(format!("backends agreed on {agreed} statements"));
    }
    crate::reset_peak_rss();

    let mut t = Tracer::new(args.trace);
    let started = Instant::now();
    let session = setup(&mut t, &s, &w)?;
    m.push("setup_s", started.elapsed().as_secs_f64());

    let mut c = Counters::default();
    // The first result of each shape, which every later one must equal.
    let mut first: [Option<AuRelation>; 3] = Default::default();
    let started = Instant::now();
    let mut last_wall = 0.0;
    while m.get("rotation").is_empty()
        || started.elapsed().as_secs_f64() + last_wall <= args.seconds
    {
        let wall = Instant::now();
        let mut rotation = 0.0;
        for (i, sql) in texts.iter().enumerate() {
            m.attempted += 1;
            let t0 = Instant::now();
            let result = session.sql(sql);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let rel = match result {
                Ok(rel) => rel,
                Err(e) => {
                    eprintln!("report: {sql}: {e}");
                    m.failed += 1;
                    m.push(Shape::ALL[i].name(), f64::INFINITY);
                    continue;
                }
            };
            m.push(Shape::ALL[i].name(), ms);
            m.push("rows_in", if i == 2 { w.len() } else { s.len() } as f64);
            rotation += ms;
            if args.trace {
                c.untraced_op_us.push(ms * 1e3);
                let traced = layers::session_query(&mut t, &session, sql, &mut c)?;
                if traced.rows() != rel.rows() {
                    m.failed += 1;
                }
            }
            match &first[i] {
                None => first[i] = Some(rel),
                Some(f) if f.rows() == rel.rows() => {}
                Some(_) => {
                    eprintln!("report: {sql}: result changed between iterations");
                    m.failed += 1;
                }
            }
        }
        m.push("rotation", rotation);
        last_wall = wall.elapsed().as_secs_f64();
    }
    m.push("peak_rss_mb", crate::peak_rss_mb());
    if args.trace {
        layers::report(&t, &c, &mut m);
        let path = layers::write_spans(&t, "report", args.seed)?;
        m.line(format!("spans written to {path}"));
    }
    Ok(m)
}

/// The end-to-end metrics from the pooled samples of a run.
pub fn finish(m: &Measured, out: &mut Outcome) {
    let shape_p50: Vec<f64> = Shape::ALL
        .iter()
        .map(|s| median(m.get(s.name())).unwrap_or(f64::INFINITY))
        .collect();
    // The shapes' latencies form three clusters that overlap as a process
    // warms up, so the median of all samples jumps between clusters from
    // run to run; the median of the shapes' medians does not.
    let q50 = median(&shape_p50).unwrap_or(f64::INFINITY);
    // A run holds a few dozen queries, too few for a tail beyond the
    // median under the ten-samples rule; the slowest shape's median
    // stands in for the tail of the rotation.
    let q90 = shape_p50.iter().copied().fold(0.0, f64::max);
    let all: Vec<f64> = Shape::ALL
        .iter()
        .flat_map(|s| m.get(s.name()).to_vec())
        .collect();
    let busy_s = all.iter().sum::<f64>() / 1e3;
    let rows_per_s = m.sum("rows_in") / busy_s;
    let setup_s = median(m.get("setup_s")).unwrap_or(f64::INFINITY);
    let rss = median(m.get("peak_rss_mb")).unwrap_or(0.0);
    let step = median(m.get("rotation")).unwrap_or(f64::INFINITY);

    out.line(format!(
        "report: {ROWS} rows in s and w, closed loop, 1 caller, {} rotations, {} queries, {} failed or wrong",
        m.get("rotation").len(),
        out.attempted,
        out.failed
    ));
    out.line(format!(
        "setup_s {setup_s:.4} s (median of {})",
        m.get("setup_s").len()
    ));
    out.line(format!("peak_rss_mb {rss:.2} MiB"));
    for (shape, p50) in Shape::ALL.iter().zip(&shape_p50) {
        out.line(format!(
            "{}_p50_ms {p50:.4} ms (in process, {} samples)",
            shape.name(),
            m.get(shape.name()).len()
        ));
    }
    out.line(format!("rows_per_s {rows_per_s:.1} rows/s"));
    out.line(format!(
        "query_p50_ms {q50:.4} ms (median of the shapes' medians)"
    ));
    out.line(format!(
        "query_p90_ms {q90:.4} ms (the slowest shape's median; {} samples)",
        all.len()
    ));
    out.line(format!("step_p50_ms {step:.4} ms (one rotation)"));
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("query_p50_ms", q50, "ms");
    out.metric("query_p90_ms", q90, "ms");
    out.metric("step_p50_ms", step, "ms");
}
