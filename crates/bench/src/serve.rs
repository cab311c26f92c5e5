//! `repro serve` and `repro loadgen` — run the SQL service and measure it.
//!
//! ```text
//! repro serve   [--data DIR] [--table name=path.csv]... [--port P]
//!               [--threads N] [--backend reference|native|rewrite]
//!               [--port-file PATH]
//! repro loadgen [--port P | --port-file PATH] [--clients 1,8,64]
//!               [--duration SECS] [--quick] [--think MS]
//!               [--sql "SELECT ..."] [--json [PATH]]
//! ```
//!
//! `serve` loads CSV tables exactly like `repro sql` (every `*.csv` in
//! `--data`, default `workloads/`, plus explicit `--table` pairs) into a
//! shared catalog and serves until killed. `--port 0` binds an ephemeral
//! port; `--port-file` writes the bound port for scripts (the CI smoke
//! step) to pick up.
//!
//! `loadgen` is a closed-loop multi-client generator: per concurrency
//! level it runs `clients` threads for `duration` seconds, each sending
//! `POST /query` on a persistent keep-alive connection (reconnecting
//! transparently when the server rotates it out), and reports QPS and
//! p50/p99 latency. `--json` merges a `server` section into the
//! bench artifact, preserving whatever `repro bench` wrote.
//!
//! Each client pauses `--think` milliseconds (default 1 ms) between
//! requests — the interactive-user model the paper targets. With think
//! time, one client's throughput is bounded by its own request cadence,
//! so rising QPS at higher concurrency measures the server actually
//! overlapping sessions rather than a single hot loop saturating the
//! machine; `--think 0` turns the generator into a pure saturation rig.

use audb_engine::{BackendChoice, Engine, SharedCatalog};
use audb_server::{serve, Json, ServerConfig, ServerState};
use audb_workloads::csvload;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Default workload: a ranking query over the demo `products` table — the
/// paper's interactive case (certain/possible top ranks in one request).
pub const DEFAULT_WORKLOAD: &str = "SELECT * FROM products ORDER BY price AS rank LIMIT 3";

fn parse_backend(v: &str) -> BackendChoice {
    match v {
        "reference" => BackendChoice::Reference,
        "native" => BackendChoice::Native,
        "rewrite" => BackendChoice::Rewrite,
        other => panic!("unknown backend {other:?} (reference|native|rewrite)"),
    }
}

/// `repro serve` entry point. Blocks until the process is killed.
pub fn serve_cli(args: &[String]) -> io::Result<()> {
    let mut data_dir = "workloads".to_string();
    let mut tables: Vec<(String, String)> = Vec::new();
    let mut config = ServerConfig {
        port: 7878,
        ..ServerConfig::default()
    };
    let mut backend = BackendChoice::Native;
    let mut port_file: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |flag: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
                .clone()
        };
        match a.as_str() {
            "--data" => data_dir = val("--data"),
            "--table" => {
                let spec = val("--table");
                let (name, path) = spec
                    .split_once('=')
                    .unwrap_or_else(|| panic!("--table needs name=path.csv, got {spec:?}"));
                tables.push((name.to_string(), path.to_string()));
            }
            "--port" => config.port = val("--port").parse().expect("--port must be a port number"),
            "--threads" => {
                config.threads = val("--threads")
                    .parse()
                    .expect("--threads must be an integer")
            }
            "--backend" => backend = parse_backend(&val("--backend")),
            "--port-file" => port_file = Some(val("--port-file")),
            other => panic!("unknown serve flag {other:?}"),
        }
    }

    let catalog = SharedCatalog::new();
    if Path::new(&data_dir).is_dir() {
        for (name, rel) in csvload::load_au_dir(&data_dir)? {
            catalog.register(name, rel);
        }
    }
    for (name, path) in &tables {
        catalog.register(name.clone(), csvload::load_au_csv(path)?);
    }
    let listing: Vec<String> = catalog
        .snapshot()
        .iter()
        .map(|(n, r)| format!("{n} ({} rows)", r.len()))
        .collect();

    let threads = config.threads;
    let state = ServerState::new(Engine::new(backend), catalog, threads);
    let handle = serve(state, config)?;
    println!(
        "audb-server listening on http://{} — {} workers, backend {}, tables: {}",
        handle.addr(),
        threads,
        backend,
        if listing.is_empty() {
            "(none)".to_string()
        } else {
            listing.join(", ")
        }
    );
    if let Some(path) = port_file {
        std::fs::write(&path, format!("{}\n", handle.addr().port()))?;
        println!("wrote port to {path}");
    }
    // Serve until killed; the handle's worker pool does all the work.
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// One concurrency level's aggregated measurements.
#[derive(Clone, Debug)]
pub struct LoadLevel {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Successful requests inside the measurement window.
    pub requests: u64,
    /// Requests that returned a non-200 status or died on I/O.
    pub failed: u64,
    /// Successful requests per second of wall-clock window.
    pub qps: f64,
    /// Median latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
}

/// `repro loadgen` entry point.
pub fn loadgen_cli(args: &[String]) -> io::Result<()> {
    let mut port: Option<u16> = None;
    let mut clients_spec = vec![1usize, 8, 64];
    let mut duration = Duration::from_secs_f64(5.0);
    let mut quick = false;
    let mut think = Duration::from_micros(1000);
    let mut sql = DEFAULT_WORKLOAD.to_string();
    let mut json_path: Option<String> = None;
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--port" => {
                port = Some(
                    it.next()
                        .expect("--port needs a value")
                        .parse()
                        .expect("--port must be a port number"),
                )
            }
            "--port-file" => {
                let path = it.next().expect("--port-file needs a path");
                let text = std::fs::read_to_string(path)?;
                port = Some(text.trim().parse().expect("port file must hold a port"));
            }
            "--clients" => {
                clients_spec = it
                    .next()
                    .expect("--clients needs a comma-separated list")
                    .split(',')
                    .map(|c| {
                        c.trim()
                            .parse()
                            .expect("--clients entries must be integers")
                    })
                    .collect();
            }
            "--duration" => {
                duration = Duration::from_secs_f64(
                    it.next()
                        .expect("--duration needs seconds")
                        .parse()
                        .expect("--duration must be a number"),
                );
            }
            "--quick" => quick = true,
            "--think" => {
                think = Duration::from_secs_f64(
                    it.next()
                        .expect("--think needs milliseconds")
                        .parse::<f64>()
                        .expect("--think must be a number")
                        / 1e3,
                );
            }
            "--sql" => sql = it.next().expect("--sql needs a statement").clone(),
            "--json" => {
                json_path = Some(match it.peek() {
                    Some(p) if !p.starts_with('-') => it.next().unwrap().clone(),
                    _ => "BENCH_sort_window.json".to_string(),
                });
            }
            other => panic!("unknown loadgen flag {other:?}"),
        }
    }
    if quick {
        duration = duration.min(Duration::from_secs(1));
    }
    let port = port.expect("loadgen needs --port or --port-file");
    let addr = format!("127.0.0.1:{port}");

    // Probe the server (and pick up its worker count) before loading it.
    let stats = http_post_once(&addr, "GET", "/stats", "")?;
    let threads = Json::parse(&stats.1)
        .ok()
        .and_then(|j| j.get("threads").and_then(Json::as_i64))
        .unwrap_or(0);
    println!(
        "loadgen against http://{addr} ({threads} server workers), {:.1}s per level, {:.1}ms think time",
        duration.as_secs_f64(),
        think.as_secs_f64() * 1e3,
    );
    println!("workload: {sql}");

    let mut levels = Vec::new();
    for &clients in &clients_spec {
        let level = run_level(&addr, &sql, clients, duration, think);
        println!(
            "{:>4} clients  {:>8} req  {:>4} failed  {:>10.1} qps  p50 {:>8.3} ms  p99 {:>8.3} ms",
            level.clients, level.requests, level.failed, level.qps, level.p50_ms, level.p99_ms
        );
        levels.push(level);
    }

    if let Some(path) = json_path {
        merge_server_section(&path, &sql, threads, duration, think, &levels)?;
        println!("merged server section into {path}");
    }
    Ok(())
}

/// Run one concurrency level: `clients` threads, closed loop, one warmup
/// request each, then `duration` of measured requests.
pub fn run_level(
    addr: &str,
    sql: &str,
    clients: usize,
    duration: Duration,
    think: Duration,
) -> LoadLevel {
    let started = Instant::now();
    let deadline = started + duration;
    let handles: Vec<_> = (0..clients.max(1))
        .map(|_| {
            let addr = addr.to_string();
            let sql = sql.to_string();
            // lint: allow(no-raw-spawn) -- loadgen deliberately opens raw client threads to stress the server's pool from outside
            std::thread::spawn(move || client_loop(&addr, &sql, deadline, think))
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    for h in handles {
        let (mut lats, f) = h.join().expect("client thread panicked");
        latencies.append(&mut lats);
        failed += f;
    }
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.total_cmp(b));
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).floor() as usize).min(latencies.len() - 1);
        latencies[idx]
    };
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    LoadLevel {
        clients,
        requests: latencies.len() as u64,
        failed,
        qps: latencies.len() as f64 / elapsed.max(1e-9),
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
        mean_ms: mean,
    }
}

/// One client's closed loop on a persistent connection. Returns measured
/// latencies (ms) and the failure count. The server rotates keep-alive
/// connections out after a request quota; that shows up here as a clean
/// reconnect, not a failure.
fn client_loop(addr: &str, sql: &str, deadline: Instant, think: Duration) -> (Vec<f64>, u64) {
    let mut latencies = Vec::new();
    let mut failed = 0u64;
    let mut conn: Option<(BufReader<TcpStream>, TcpStream)> = None;
    // Warmup: one untimed request (connection setup, first-touch costs).
    let mut warm = true;
    let mut first = true;
    while Instant::now() < deadline {
        // Think time between requests (not counted in latency).
        if !first && !think.is_zero() {
            std::thread::sleep(think);
        }
        first = false;
        if conn.is_none() {
            match connect(addr) {
                Ok(c) => conn = Some(c),
                Err(_) => {
                    failed += 1;
                    break; // server gone: no point hammering connect()
                }
            }
        }
        let (reader, writer) = conn.as_mut().unwrap();
        let sent = Instant::now();
        match http_post(reader, writer, "POST", "/query", sql) {
            Ok((status, _body, keep_alive)) => {
                if status == 200 {
                    if warm {
                        warm = false;
                    } else {
                        latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    }
                } else {
                    failed += 1;
                }
                if !keep_alive {
                    conn = None;
                }
            }
            Err(_) => {
                // Connection died mid-request (server rotation races the
                // send): retry once on a fresh connection before counting
                // a failure.
                conn = None;
                match connect(addr).and_then(|(mut r, mut w)| {
                    let out = http_post(&mut r, &mut w, "POST", "/query", sql);
                    out.map(|ok| (r, w, ok))
                }) {
                    Ok((r, w, (status, _body, keep_alive))) => {
                        if status == 200 {
                            if warm {
                                warm = false;
                            } else {
                                latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                            }
                        } else {
                            failed += 1;
                        }
                        conn = if keep_alive { Some((r, w)) } else { None };
                    }
                    Err(_) => failed += 1,
                }
            }
        }
    }
    (latencies, failed)
}

fn connect(addr: &str) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((reader, stream))
}

/// Minimal HTTP/1.1 client request/response on an open connection.
/// Returns `(status, body, server_keeps_alive)`.
fn http_post(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String, bool)> {
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: audb\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n{body}",
        body.len()
    )?;
    writer.flush()?;

    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length = 0usize;
    let mut keep_alive = true;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().unwrap_or(0);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = !value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok((
        status,
        String::from_utf8_lossy(&body).into_owned(),
        keep_alive,
    ))
}

/// One-shot request on a fresh connection.
fn http_post_once(addr: &str, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
    let (mut reader, mut writer) = connect(addr)?;
    let (status, body, _) = http_post(&mut reader, &mut writer, method, path, body)?;
    Ok((status, body))
}

/// Build the `server` section and merge it into the artifact at `path`
/// (creating a minimal v5 skeleton when no artifact exists yet).
fn merge_server_section(
    path: &str,
    sql: &str,
    threads: i64,
    duration: Duration,
    think: Duration,
    levels: &[LoadLevel],
) -> io::Result<()> {
    let levels_json = Json::Arr(
        levels
            .iter()
            .map(|l| {
                Json::obj([
                    ("clients", Json::Int(l.clients as i64)),
                    ("requests", Json::Int(l.requests as i64)),
                    ("failed", Json::Int(l.failed as i64)),
                    ("qps", Json::Float(round3(l.qps))),
                    ("p50_ms", Json::Float(round3(l.p50_ms))),
                    ("p99_ms", Json::Float(round3(l.p99_ms))),
                    ("mean_ms", Json::Float(round3(l.mean_ms))),
                ])
            })
            .collect(),
    );
    let section = Json::obj([
        ("threads", Json::Int(threads)),
        ("workload", Json::str(sql)),
        ("duration_s", Json::Float(round3(duration.as_secs_f64()))),
        ("think_ms", Json::Float(round3(think.as_secs_f64() * 1e3))),
        ("levels", levels_json),
    ]);

    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or_else(|| {
            Json::obj([
                ("artifact", Json::str("BENCH_sort_window")),
                ("schema_version", Json::Int(8)),
            ])
        });
    doc.set("schema_version", Json::Int(8));
    doc.set("server", section);
    let mut out = doc.pretty();
    out.push('\n');
    std::fs::write(path, out)
}

fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}
