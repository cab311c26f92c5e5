//! `dashboard`: interactive ranking users over the socket.
//!
//! Open loop at a fixed offered rate over two keep-alive connections;
//! `POST /query` in equal thirds of three shapes over clustered `id`
//! slices of 64k-row tables. The 192 distinct texts fit the 256-entry
//! plan cache, so every timed request is a cache hit, and zone maps skip
//! most batches. HTTP, wire and JSON encoding are a large share of each
//! request.

use crate::check;
use crate::client::Client;
use crate::data::{self, Rng, Shape};
use crate::layers::{self, Counters};
use crate::load::{open_loop, Sample};
use crate::stats::{median, sorted, tail};
use crate::trace::Tracer;
use crate::{Args, Measured, Outcome};
use audb_core::AuRelation;
use audb_engine::{Engine, PlanCache, Session, SharedCatalog};
use audb_server::ServerHandle;
use std::sync::Arc;
use std::time::Instant;

/// Rows of `s` and of `w`.
pub const ROWS: usize = 65_536;
/// Offered rate, requests per second, frozen. Two connections served
/// about 390 req/s in a closed loop on a 2-vCPU machine; at 150 req/s
/// requests falling due while both connections were busy already made
/// the generator's lateness p99 9 ms, at 100 req/s it is about 1 ms.
pub const RATE: f64 = 100.0;
pub const CONNECTIONS: usize = 2;
/// Generator lateness (p99) above which a run is flagged: the schedule
/// was not kept, so the offered rate was not the one stated.
pub const LATE_LIMIT_MS: f64 = 5.0;

/// Register both tables in a fresh catalog, start the server, and send
/// every text once so the plan cache holds all of them.
fn setup(
    t: &mut Tracer,
    s: &Arc<AuRelation>,
    w: &Arc<AuRelation>,
    texts: &[String],
) -> Result<ServerHandle, String> {
    t.begin_request();
    t.span("setup", |t| {
        let catalog = SharedCatalog::new();
        layers::register(t, &catalog, "s", s);
        layers::register(t, &catalog, "w", w);
        let server = layers::start_server(catalog)?;
        let mut client = Client::new(server.addr());
        for text in texts {
            let r = client
                .post("/query", text.as_bytes())
                .map_err(|e| format!("warm-up: {e}"))?;
            if r.status != 200 {
                return Err(format!("warm-up {text:?}: status {}", r.status));
            }
        }
        Ok(server)
    })
}

/// The seeded op sequence: op `i` has shape `i % 3` and one of the 64
/// slices; the value is an index into the 192 texts.
fn ops(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x0d5b);
    (0..n)
        .map(|i| (i % 3) * data::SLICE_STARTS + rng.below(data::SLICE_STARTS as u64) as usize)
        .collect()
}

fn post_and_check(client: &mut Client, text: &str, prefix: &[u8]) -> bool {
    match client.post("/query", text.as_bytes()) {
        Ok(r) => r.status == 200 && check::body_matches(&r.body, prefix),
        Err(_) => false,
    }
}

/// One process: set up, drive the open loop, and (traced run) replay the
/// same op sequence in process with spans.
pub fn run(args: &Args) -> Result<Measured, String> {
    let s = Arc::new(data::sort_table(ROWS, args.seed));
    let w = Arc::new(data::window_table(ROWS, args.seed));
    let starts = data::slice_starts(ROWS, args.seed);
    let texts: Vec<String> = Shape::ALL
        .iter()
        .flat_map(|&shape| starts.iter().map(move |&l| data::dashboard_sql(shape, l)))
        .collect();
    // Expected answers, computed in process before the set-up.
    let oracle = Session::new(Engine::native());
    oracle.register("s", Arc::clone(&s));
    oracle.register("w", Arc::clone(&w));
    let expected: Vec<Vec<u8>> = texts
        .iter()
        .map(|sql| oracle.sql(sql).map(check::expected_prefix))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("oracle: {e}"))?;
    drop(oracle);
    let mut m = Measured::default();
    if args.child.unwrap_or(0) == 0 {
        let agreed = check::backends_agree(args.seed)?;
        m.line(format!("backends agreed on {agreed} statements"));
    }
    crate::reset_peak_rss();

    let mut t = Tracer::new(args.trace);
    let started = Instant::now();
    let server = setup(&mut t, &s, &w, &texts)?;
    m.push("setup_s", started.elapsed().as_secs_f64());
    let addr = server.addr();

    // The traced run splits its time between the socket and the replay.
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let n = (RATE * seconds).round().max(3.0) as usize;
    let op_texts = ops(n, args.seed);
    let samples = open_loop(
        n,
        RATE,
        CONNECTIONS,
        |_| Client::new(addr),
        |client, i| post_and_check(client, &texts[op_texts[i]], &expected[op_texts[i]]),
    );
    m.attempted += n as u64;
    m.failed += samples.iter().filter(|s| !s.ok).count() as u64;
    let latency: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    m.extend("query", &latency);
    for (i, shape) in Shape::ALL.iter().enumerate() {
        let v: Vec<f64> = samples
            .iter()
            .filter(|s| op_texts[s.index] / data::SLICE_STARTS == i)
            .map(Sample::latency_ms)
            .collect();
        m.extend(shape.name(), &v);
    }
    m.extend(
        "late",
        &samples.iter().map(Sample::late_ms).collect::<Vec<_>>(),
    );
    let cache = server.state().plan_cache.stats();
    m.line(format!(
        "plan cache after the open loop: {} hits, {} misses, {} resident of {}",
        cache.hits, cache.misses, cache.len, cache.capacity
    ));
    m.push("peak_rss_mb", crate::peak_rss_mb());
    if !args.trace {
        return Ok(m);
    }

    // Traced run, part two: replay the same op sequence in process.
    let mut c = Counters {
        socket_us: samples
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.done_ms - s.sent_ms) * 1e3)
            .collect(),
        late_ms: m.get("late").to_vec(),
        ..Counters::default()
    };
    let state = Arc::clone(server.state());
    let session = state.session();
    let cache = PlanCache::default();
    for text in &texts {
        let (p, _) = session
            .prepare_cached(&cache, text)
            .map_err(|e| e.to_string())?;
        std::hint::black_box(p.plan().source_columns().len());
    }
    let started = Instant::now();
    let mut replayed = 0u64;
    for &op in op_texts.iter().cycle() {
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let status = layers::handle_query(&state, &texts[op], &mut c);
        let text = layers::cached_query(&mut t, &session, &cache, &texts[op], &mut c)?;
        replayed += 1;
        if status != 200 || !check::text_matches(&text, &expected[op]) {
            m.failed += 1;
        }
    }
    m.attempted += replayed;
    m.line(format!("traced replay: {replayed} requests in process"));
    layers::report(&t, &c, &mut m);
    let path = layers::write_spans(&t, "dashboard", args.seed)?;
    m.line(format!("spans written to {path}"));
    Ok(m)
}

/// The end-to-end metrics from the pooled samples of a run.
pub fn finish(m: &Measured, out: &mut Outcome) {
    let latency = sorted(m.get("query").to_vec());
    let late = sorted(m.get("late").to_vec());
    let (q50, q90, q99, late99) = match (
        tail(&latency, 50.0),
        tail(&latency, 90.0),
        tail(&latency, 99.0),
        tail(&late, 99.0),
    ) {
        (Some(a), Some(b), Some(c), Some(d)) => (a, b, c, d),
        _ => return,
    };
    let setup_s = median(m.get("setup_s")).unwrap_or(f64::INFINITY);
    let rss = median(m.get("peak_rss_mb")).unwrap_or(0.0);
    out.line(format!(
        "dashboard: {ROWS} rows in s and w, 192 texts, open loop {RATE} req/s, {} requests, {} failed or wrong",
        latency.len(),
        out.failed
    ));
    out.line(format!(
        "setup_s {setup_s:.4} s (median of {})",
        m.get("setup_s").len()
    ));
    out.line(format!("peak_rss_mb {rss:.2} MiB"));
    out.line(format!("query_p50_ms {:.4} ms", q50.value));
    for (name, t) in [("query_p90_ms", q90), ("query_p99_ms", q99)] {
        out.line(format!(
            "{name} {:.4} ms (p{:.2}, {} of {} samples beyond)",
            t.value,
            t.percentile,
            t.beyond,
            latency.len()
        ));
    }
    for shape in Shape::ALL {
        out.line(format!(
            "{}_p50_ms {:.4} ms (socket)",
            shape.name(),
            median(m.get(shape.name())).unwrap_or(f64::INFINITY)
        ));
    }
    out.line(format!(
        "gen.late_p99_ms {:.4} ms (p{:.2})",
        late99.value, late99.percentile
    ));
    if late99.value > LATE_LIMIT_MS {
        out.line(format!(
            "FLAG: generator lateness p99 {:.3} ms exceeds {LATE_LIMIT_MS} ms; the offered rate was not kept",
            late99.value
        ));
    }
    out.metric("setup_s", setup_s, "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("query_p50_ms", q50.value, "ms");
    out.metric("query_p90_ms", q90.value, "ms");
    out.metric("step_p50_ms", q50.value, "ms");
}
