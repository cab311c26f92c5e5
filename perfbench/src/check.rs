//! Answer checks shared by the workloads.

use crate::data::{self, Shape};
use audb_core::AuRelation;
use audb_engine::{Engine, Session};
use audb_server::wire;

/// Rows of the small instance the three backends must agree on.
const SMALL_ROWS: usize = 256;

/// Run every query shape the benchmark sends on a small seeded instance
/// through `Engine::run_all`, which fails unless the Reference, Native
/// and Rewrite backends return bag-equal bounds. Returns the number of
/// statements checked.
pub fn backends_agree(seed: u64) -> Result<usize, String> {
    let session = Session::new(Engine::native());
    let w = data::window_table(SMALL_ROWS, seed);
    let max_id = (SMALL_ROWS - 1) as i64;
    session.register("s", data::sort_table(SMALL_ROWS, seed));
    session.register("w", w);
    let mut texts: Vec<String> = Vec::new();
    for shape in Shape::ALL {
        texts.push(data::report_sql(shape, SMALL_ROWS));
        texts.push(data::dashboard_sql(shape, SMALL_ROWS / 4));
    }
    texts.push(data::ingest_sql(max_id));
    texts.push(data::INGEST_WINDOW_SUB.to_string());
    texts.push(data::INGEST_TOPK_SUB.to_string());
    for sql in &texts {
        let all = session
            .run_all_sql(sql)
            .map_err(|e| format!("run_all on {sql:?}: {e}"))?;
        if all.output.is_empty() {
            return Err(format!("run_all on {sql:?} returned no rows"));
        }
    }
    Ok(texts.len())
}

/// The JSON text `/query` sends for `rel`, up to (not including) the
/// fields that vary per request (`cache`, `elapsed_us`): the server
/// appends those after the relation's own fields.
pub fn expected_prefix(rel: AuRelation) -> Vec<u8> {
    let mut text = wire::relation_body(rel).to_string().into_bytes();
    // Drop the closing brace; the server continues with `,"cache":…`.
    text.pop();
    text.push(b',');
    text
}

/// Whether a `/query` response body carries exactly the expected rows
/// and multiplicities.
pub fn body_matches(body: &[u8], prefix: &[u8]) -> bool {
    body.starts_with(prefix)
}

/// Whether an encoded relation (`relation_body` as text, without the
/// per-request fields) is exactly the one `prefix` expects.
pub fn text_matches(text: &str, prefix: &[u8]) -> bool {
    text.len() == prefix.len() && text.as_bytes()[..text.len() - 1] == prefix[..prefix.len() - 1]
}
