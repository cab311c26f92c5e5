//! The repository's benchmark: one command, three workloads, every
//! answer checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dashboard|report|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. The run starts
//! [`CHILDREN`] child processes of the same workload and seed one after
//! the other, each measuring for `S / CHILDREN` seconds, and pools their
//! samples: the program's speed differs from process to process by more
//! than it differs between runs of many samples in one process, so one
//! process per run would make run-to-run spreads wide. Each child sets
//! the program up once; `setup_s` is the median over the children.
//! `--trace 1` is the separate traced run, in one process, and gives the
//! per-layer metrics.
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with the metrics. The exit code is nonzero when any
//! answer was wrong or any operation failed.

mod check;
mod client;
mod dashboard;
mod data;
mod ingest;
mod layers;
mod load;
mod report;
mod stats;
mod trace;

use audb_server::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

/// Engine threads (`AUDB_THREADS`) and server workers: the load shape of
/// every workload on a 2-vCPU machine.
pub const ENGINE_THREADS: usize = 2;
pub const SERVER_WORKERS: usize = 2;
/// Child processes per untraced run.
pub const CHILDREN: usize = 3;

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in a child process: its index.
    pub child: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut child) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--child" => {
                child = Some(
                    value
                        .parse::<usize>()
                        .map_err(|e| format!("--child: {e}"))?,
                )
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one process measured: named samples, op counts, human-readable
/// lines, and (traced runs only) the per-layer metrics. Runs merge the
/// measurements of their children by concatenating samples and adding
/// counts.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    pub failed: u64,
    pub series: BTreeMap<String, Vec<f64>>,
    pub lines: Vec<String>,
    pub layers: Vec<Metric>,
}

impl Measured {
    pub fn push(&mut self, name: &str, value: f64) {
        self.series.entry(name.to_string()).or_default().push(value);
    }

    pub fn extend(&mut self, name: &str, values: &[f64]) {
        self.series
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(values);
    }

    /// The samples named `name` (empty if none were taken).
    pub fn get(&self, name: &str) -> &[f64] {
        self.series.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.get(name).iter().sum()
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric { name, value, unit });
    }

    fn merge(&mut self, other: Measured) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (name, values) in other.series {
            self.series.entry(name).or_default().extend(values);
        }
        self.lines.extend(other.lines);
    }

    /// One line of JSON; a failed sample (infinite latency) travels as
    /// `null`.
    fn to_json(&self) -> String {
        let series = self
            .series
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|&x| Json::Float(x)).collect()),
                )
            })
            .collect();
        Json::obj([
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("series", Json::Obj(series)),
            (
                "lines",
                Json::Arr(self.lines.iter().map(|l| Json::str(l.as_str())).collect()),
            ),
        ])
        .to_string()
    }

    fn from_json(text: &str) -> Result<Measured, String> {
        let bad = || format!("malformed child output: {text:.200}");
        let json = Json::parse(text).map_err(|e| format!("child output: {e}"))?;
        let count = |k: &str| json.get(k).and_then(Json::as_i64).map(|n| n as u64);
        let mut m = Measured {
            attempted: count("attempted").ok_or_else(bad)?,
            failed: count("failed").ok_or_else(bad)?,
            ..Measured::default()
        };
        let Some(Json::Obj(series)) = json.get("series") else {
            return Err(bad());
        };
        for (name, values) in series {
            let values = values.as_arr().ok_or_else(bad)?;
            m.series.insert(
                name.clone(),
                values
                    .iter()
                    .map(|v| v.as_f64().unwrap_or(f64::INFINITY))
                    .collect(),
            );
        }
        for line in json.get("lines").and_then(Json::as_arr).ok_or_else(bad)? {
            m.lines.push(line.as_str().ok_or_else(bad)?.to_string());
        }
        Ok(m)
    }
}

/// The final result: op counts, metrics and the lines printed before
/// them.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }
}

/// Forget the peak resident set so far, so `peak_rss_mb` excludes input
/// generation (Linux `clear_refs` value 5 resets `VmHWM`).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The load shape every report records.
pub fn load_shape(connections: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "load shape: nproc {nproc}, AUDB_THREADS {ENGINE_THREADS}, server workers {SERVER_WORKERS}, client connections {connections}, {CHILDREN} processes per untraced run"
    )
}

/// A value with all its digits; non-finite values (a failed sample in a
/// percentile) print as a huge number so the JSON stays valid.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1e300".to_string()
    }
}

fn final_json(correct: bool, o: &Outcome) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.attempted, o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn measure(args: &Args) -> Result<Measured, String> {
    match args.workload.as_str() {
        "dashboard" => dashboard::run(args),
        "report" => report::run(args),
        "ingest" => ingest::run(args),
        other => Err(format!(
            "unknown workload {other:?} (dashboard, report, ingest)"
        )),
    }
}

fn finish(workload: &str, m: &Measured, out: &mut Outcome) {
    match workload {
        "dashboard" => dashboard::finish(m, out),
        "report" => report::finish(m, out),
        _ => ingest::finish(m, out),
    }
}

/// Run the children one after the other, waiting for each, and merge
/// what they measured.
fn run_children(args: &Args) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = args.seconds / CHILDREN as f64;
    let mut all = Measured::default();
    for i in 0..CHILDREN {
        let out = Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", "0", "--child", &i.to_string()])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("child {i}: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {i} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let last = text
            .lines()
            .last()
            .ok_or(format!("child {i} printed nothing"))?;
        all.merge(Measured::from_json(last)?);
    }
    Ok(all)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before any engine call: the engine reads its thread count from here.
    std::env::set_var("AUDB_THREADS", ENGINE_THREADS.to_string());
    let measured = if args.trace || args.child.is_some() {
        measure(&args)
    } else {
        run_children(&args)
    };
    let m = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.child.is_some() {
        println!("{}", m.to_json());
        return ExitCode::SUCCESS;
    }
    let mut out = Outcome {
        attempted: m.attempted,
        failed: m.failed,
        ..Outcome::default()
    };
    out.line(load_shape(match args.workload.as_str() {
        "dashboard" => dashboard::CONNECTIONS,
        "ingest" => 1,
        _ => 0,
    }));
    out.lines.extend(m.lines.iter().cloned());
    finish(&args.workload, &m, &mut out);
    if args.trace {
        out.metrics = m.layers;
    }
    for l in &out.lines {
        println!("{l}");
    }
    let correct = out.failed == 0;
    println!("{}", final_json(correct, &out));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args(&[
            "--workload",
            "report",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("report", 7, 12.0, true)
        );
        assert_eq!(a.child, None);
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "x", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "x", "--seconds", "-1"]).is_err());
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        o.metric("setup_s", 0.5, "s");
        o.metric("query_p50_ms", f64::INFINITY, "ms");
        assert_eq!(
            final_json(true, &o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"query_p50_ms\": {\"value\": 1e300, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn child_measurements_round_trip_and_merge() {
        let mut a = Measured {
            attempted: 4,
            failed: 1,
            ..Measured::default()
        };
        a.extend("query", &[1.5, 2.0, f64::INFINITY]);
        a.push("setup_s", 0.25);
        a.line("child line \"quoted\"");
        let b = Measured::from_json(&a.to_json()).unwrap();
        assert_eq!((b.attempted, b.failed), (4, 1));
        assert_eq!(b.get("query")[..2], [1.5, 2.0]);
        assert!(b.get("query")[2].is_infinite());
        assert_eq!(b.lines, a.lines);
        a.merge(b);
        assert_eq!((a.attempted, a.failed), (8, 2));
        assert_eq!(a.get("query").len(), 6);
        assert_eq!(a.sum("setup_s"), 0.5);
        assert!(a.get("missing").is_empty());
    }
}
