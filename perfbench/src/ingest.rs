//! `ingest`: writes beside reads.
//!
//! One connection in a closed loop. An episode starts from the same
//! 64k-row `w` and runs a fixed number of steps, so every commit grows
//! the table identically; episodes repeat, each from a fresh set-up,
//! until the run's time is spent. Each step appends a 64-row AU-CSV
//! batch over `POST /append`, sends the top-10-by-`v` query over the
//! latest 1024 ids (every append bumps the catalog version, so every
//! query misses the plan cache), and hands the same batch to a window
//! and a top-k subscription in process.
//!
//! Episodes are short because the plan cache keeps each superseded
//! snapshot of `w` alive until its entry is evicted: memory grows by
//! about one table copy per step.

use crate::check;
use crate::client::Client;
use crate::data::{self, Appender};
use crate::layers::{self, Counters};
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::{Args, Measured, Outcome};
use audb_core::AuRelation;
use audb_engine::{Engine, MaintainedQuery, PlanCache, Session, SharedCatalog};
use audb_server::{Json, ServerHandle};
use std::sync::Arc;
use std::time::Instant;

/// Rows of `w` before the first append.
pub const ROWS: usize = 65_536;
/// Timed steps per episode (after one warm-up step). Each step pins
/// another ~30 MB table copy; on a 2-vCPU VM, steps beyond ~28 ran
/// markedly slower as the process passed 1.3 GB resident.
pub const STEPS: usize = 24;

/// Seeded inputs of one episode and the answers its end must show.
struct Inputs {
    w: Arc<AuRelation>,
    /// Batch and AU-CSV text per step; index 0 is the warm-up step.
    batches: Vec<(AuRelation, String)>,
    /// Query text per step.
    texts: Vec<String>,
    /// Expected final `/query` body prefix and subscription values.
    final_query: Vec<u8>,
    final_window: AuRelation,
    final_topk: AuRelation,
}

impl Inputs {
    fn new(seed: u64) -> Result<Inputs, String> {
        let w = Arc::new(data::window_table(ROWS, seed));
        let mut appender = Appender::after(&w, seed);
        let mut batches = Vec::with_capacity(STEPS + 1);
        let mut texts = Vec::with_capacity(STEPS + 1);
        for _ in 0..=STEPS {
            batches.push(appender.next_batch());
            texts.push(data::ingest_sql(appender.max_id()));
        }
        // The final table, built in process without the catalog's append
        // path, is the oracle for the end-of-episode checks.
        let mut grown = (*w).clone();
        for (b, _) in &batches {
            for row in b.rows() {
                grown.push(row.tuple.clone(), row.mult);
            }
        }
        let oracle = Session::new(Engine::native());
        oracle.register("w", grown);
        let sql = |q: &str| oracle.sql(q).map_err(|e| format!("oracle: {e}"));
        Ok(Inputs {
            final_query: check::expected_prefix(sql(&texts[STEPS])?),
            final_window: sql(data::INGEST_WINDOW_SUB)?,
            final_topk: sql(data::INGEST_TOPK_SUB)?,
            w,
            batches,
            texts,
        })
    }

    fn rows_after(step: usize) -> usize {
        ROWS + data::BATCH_ROWS * (step + 1)
    }
}

// Field order is drop order: the client closes its connection before
// the server joins the worker serving it.
struct Env {
    client: Client,
    server: ServerHandle,
    window: MaintainedQuery,
    topk: MaintainedQuery,
}

/// Register `w`, start the server, subscribe both queries, and run the
/// warm-up step so the subscriptions' first lazy recompute happens here
/// rather than in the first timed step.
fn setup(t: &mut Tracer, inputs: &Inputs) -> Result<Env, String> {
    t.begin_request();
    t.span("setup", |t| {
        let catalog = SharedCatalog::new();
        layers::register(t, &catalog, "w", &inputs.w);
        let session = Session::with_catalog(Engine::native(), catalog.clone());
        let server = layers::start_server(catalog)?;
        let mut subscribe = |sql: &str| {
            t.span("maintain.subscribe", |_| session.subscribe(sql))
                .map_err(|e| format!("subscribe: {e}"))
        };
        let window = subscribe(data::INGEST_WINDOW_SUB)?;
        let topk = subscribe(data::INGEST_TOPK_SUB)?;
        let mut env = Env {
            client: Client::new(server.addr()),
            server,
            window,
            topk,
        };
        let (warm, csv) = &inputs.batches[0];
        let append = env
            .client
            .post("/append?name=w", csv.as_bytes())
            .map_err(|e| format!("warm-up append: {e}"))?;
        let query = env
            .client
            .post("/query", inputs.texts[0].as_bytes())
            .map_err(|e| format!("warm-up query: {e}"))?;
        if append.status != 200 || query.status != 200 {
            return Err(format!(
                "warm-up statuses {} / {}",
                append.status, query.status
            ));
        }
        for sub in [&mut env.window, &mut env.topk] {
            sub.append(warm)
                .map_err(|e| format!("warm-up delta: {e}"))?;
        }
        Ok(env)
    })
}

/// The `rows` member of an `/append` reply.
fn appended_rows(body: &[u8]) -> Option<i64> {
    Json::parse(std::str::from_utf8(body).ok()?)
        .ok()?
        .get("rows")?
        .as_i64()
}

/// Rows of `w` according to `GET /stats`.
fn stats_rows(client: &mut Client) -> Option<i64> {
    let r = client.get("/stats").ok()?;
    let json = Json::parse(std::str::from_utf8(&r.body).ok()?).ok()?;
    json.get("tables")?
        .as_arr()?
        .iter()
        .find(|t| t.get("name").and_then(Json::as_str) == Some("w"))?
        .get("rows")?
        .as_i64()
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64() * 1e3
}

/// One timed step over the socket; latencies go to `m` in ms. Returns
/// the number of failed ops.
fn socket_step(
    env: &mut Env,
    inputs: &Inputs,
    step: usize,
    m: &mut Measured,
    c: &mut Counters,
) -> Result<u64, String> {
    let (batch, csv) = &inputs.batches[step];
    let t0 = Instant::now();
    let append = env.client.post("/append?name=w", csv.as_bytes());
    let t1 = Instant::now();
    let query = env.client.post("/query", inputs.texts[step].as_bytes());
    let t2 = Instant::now();
    let mut rows = 0;
    for sub in [&mut env.window, &mut env.topk] {
        let d = sub.append(batch).map_err(|e| format!("delta: {e}"))?;
        rows += d.removed.len() + d.added.len();
    }
    let t3 = Instant::now();
    let want = Inputs::rows_after(step) as i64;
    let append_ok =
        matches!(&append, Ok(r) if r.status == 200 && appended_rows(&r.body) == Some(want));
    let query_ok = matches!(&query, Ok(r) if r.status == 200);
    m.push("append", if append_ok { ms(t0, t1) } else { f64::INFINITY });
    m.push("query", if query_ok { ms(t1, t2) } else { f64::INFINITY });
    m.push("delta", ms(t2, t3));
    m.push("step", ms(t0, t3));
    c.socket_us.push(ms(t1, t2) * 1e3);
    c.delta_rows.push(rows as f64);
    Ok(u64::from(!append_ok) + u64::from(!query_ok))
}

/// One step replayed in process with spans: the `/append` route's calls,
/// an untraced `wire::handle` of the query (the baseline for the wire
/// overhead and the tracing overhead), the `/query` route's calls with a
/// plan cache of the replay's own, and the two deliveries. Returns the
/// number of failed ops.
fn traced_step(
    t: &mut Tracer,
    env: &mut Env,
    inputs: &Inputs,
    step: usize,
    replay: &(Session, PlanCache),
    c: &mut Counters,
) -> Result<u64, String> {
    let (batch, csv) = &inputs.batches[step];
    let sql = &inputs.texts[step];
    let (session, cache) = replay;
    let state = env.server.state();
    let mut failed = 0;
    t.begin_request();
    let appended = t.span("op.append", |t| {
        let parsed = t
            .span("csv.parse", |_| audb_workloads::read_au_csv(csv.as_bytes()))
            .map_err(|e| e.to_string())?;
        t.span("catalog.append", |_| state.catalog.append("w", &parsed))
            .map_err(|e| e.to_string())
    });
    if let Some(id) = t.last("catalog.append") {
        let current = state.catalog.snapshot();
        let table = current.get("w").ok_or("w vanished from the catalog")?;
        layers::attach_stats(t, id, table);
    }
    failed += u64::from(appended.map(|(rows, _)| rows) != Ok(Inputs::rows_after(step)));

    let status = layers::handle_query(state, sql, c);
    let text = layers::cached_query(t, session, cache, sql, c)?;
    failed += u64::from(status != 200 || !text.contains("\"row_count\":10,"));

    t.begin_request();
    let mut rows = 0;
    t.span("op.delta", |t| {
        for (name, sub) in [
            ("maintain.window", &mut env.window),
            ("maintain.topk", &mut env.topk),
        ] {
            let d = t
                .span(name, |_| sub.append(batch))
                .map_err(|e| format!("delta: {e}"))?;
            rows += d.removed.len() + d.added.len();
        }
        Ok::<_, String>(())
    })?;
    c.delta_rows.push(rows as f64);
    Ok(failed)
}

/// Run one episode's timed steps and its end checks on `env`. The traced
/// run takes every other step in process.
fn episode(
    args: &Args,
    t: &mut Tracer,
    env: &mut Env,
    inputs: &Inputs,
    m: &mut Measured,
    c: &mut Counters,
) -> Result<(), String> {
    let state = Arc::clone(env.server.state());
    let replay = (state.session(), PlanCache::default());
    for step in 1..=STEPS {
        m.attempted += 3;
        m.failed += if args.trace && step % 2 == 0 {
            traced_step(t, env, inputs, step, &replay, c)?
        } else {
            socket_step(env, inputs, step, m, c)?
        };
    }
    for sub in [&env.window, &env.topk] {
        let (incremental, recompute) = sub.strategy_counts();
        m.push("incremental", incremental as f64);
        m.push("recompute", recompute as f64);
        c.incremental += incremental;
        c.recompute += recompute;
    }

    // End checks, outside timing.
    let mut wrong = Vec::new();
    if stats_rows(&mut env.client) != Some(Inputs::rows_after(STEPS) as i64) {
        wrong.push("/stats row count");
    }
    match env.client.post("/query", inputs.texts[STEPS].as_bytes()) {
        Ok(r) if r.status == 200 && check::body_matches(&r.body, &inputs.final_query) => {}
        _ => wrong.push("final /query"),
    }
    if !env.window.value().bag_eq(&inputs.final_window) {
        wrong.push("window subscription");
    }
    if !env.topk.value().bag_eq(&inputs.final_topk) {
        wrong.push("top-k subscription");
    }
    for w in &wrong {
        eprintln!("ingest: wrong answer: {w}");
    }
    m.attempted += 4;
    m.failed += wrong.len() as u64;
    m.push("episodes", 1.0);
    Ok(())
}

/// One process: set up, then run episodes while one more (with its
/// set-up) fits in the time.
pub fn run(args: &Args) -> Result<Measured, String> {
    let inputs = Inputs::new(args.seed)?;
    let mut m = Measured::default();
    if args.child.unwrap_or(0) == 0 {
        let agreed = check::backends_agree(args.seed)?;
        m.line(format!("backends agreed on {agreed} statements"));
    }
    crate::reset_peak_rss();

    let mut t = Tracer::new(args.trace);
    let started = Instant::now();
    let mut env = setup(&mut t, &inputs)?;
    let setup_s = started.elapsed().as_secs_f64();
    m.push("setup_s", setup_s);
    let mut c = Counters::default();
    let started = Instant::now();
    loop {
        let wall = Instant::now();
        episode(args, &mut t, &mut env, &inputs, &mut m, &mut c)?;
        let next = wall.elapsed().as_secs_f64() + setup_s;
        if started.elapsed().as_secs_f64() + next > args.seconds {
            break;
        }
        drop(env);
        env = setup(&mut t, &inputs)?;
    }
    m.push("peak_rss_mb", crate::peak_rss_mb());
    if args.trace {
        layers::report(&t, &c, &mut m);
        let path = layers::write_spans(&t, "ingest", args.seed)?;
        m.line(format!("spans written to {path}"));
    }
    Ok(m)
}

/// The end-to-end metrics from the pooled samples of a run.
pub fn finish(m: &Measured, out: &mut Outcome) {
    let query = sorted(m.get("query").to_vec());
    let (Some(q50), Some(q90)) = (tail(&query, 50.0), tail(&query, 90.0)) else {
        return;
    };
    let setup_s = median(m.get("setup_s")).unwrap_or(f64::INFINITY);
    let rss = median(m.get("peak_rss_mb")).unwrap_or(0.0);
    let step = median(m.get("step")).unwrap_or(f64::INFINITY);
    out.line(format!(
        "ingest: {} episodes, each growing w from {ROWS} to {} rows in {} appends of {} rows ({STEPS} timed); {} failed or wrong",
        m.get("episodes").len(),
        Inputs::rows_after(STEPS),
        STEPS + 1,
        data::BATCH_ROWS,
        out.failed
    ));
    out.line(format!(
        "subscriptions: {} incremental, {} recompute appends",
        m.sum("incremental"),
        m.sum("recompute")
    ));
    out.line(format!(
        "setup_s {setup_s:.4} s (median of {})",
        m.get("setup_s").len()
    ));
    out.line(format!("peak_rss_mb {rss:.2} MiB"));
    for name in ["append", "query", "delta"] {
        let v = sorted(m.get(name).to_vec());
        if let (Some(p50), Some(p90)) = (tail(&v, 50.0), tail(&v, 90.0)) {
            out.line(format!(
                "{name}_p50_ms {:.4} ms; {name}_p90_ms {:.4} ms (p{:.2}, {} of {} samples beyond)",
                p50.value,
                p90.value,
                p90.percentile,
                p90.beyond,
                v.len()
            ));
        }
    }
    out.line(format!(
        "step_p50_ms {step:.4} ms (append + query + delivery)"
    ));
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("query_p50_ms", q50.value, "ms");
    out.metric("query_p90_ms", q90.value, "ms");
    out.metric("step_p50_ms", step, "ms");
}
