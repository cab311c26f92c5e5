//! Seeded inputs: the synthetic uncertain tables, the request texts and
//! the ingest batches. Everything here is a pure function of the seed.

use audb_core::{AuRelation, AuTuple, Mult3, RangeValue};
use audb_rel::Schema;
use audb_workloads::synthetic::{gen_sort_table, gen_window_table, SyntheticConfig};

/// SplitMix64: a small, seedable generator for op sequences and batches.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The sorting table `s(a, b, id)`: `id` is the row index, so an `id`
/// range selects a clustered slice.
pub fn sort_table(rows: usize, seed: u64) -> AuRelation {
    gen_sort_table(&SyntheticConfig::default().rows(rows).seed(seed)).to_au_relation()
}

/// The window table `w(o, g, v, id)` with 8 certain partitions `g`.
pub fn window_table(rows: usize, seed: u64) -> AuRelation {
    gen_window_table(&SyntheticConfig::default().rows(rows).seed(seed)).to_au_relation()
}

/// Value domain of `s`'s attributes: the generator's automatic domain
/// (`SyntheticConfig::domain` = 0 scales it to `rows × 20`).
pub fn sort_domain(rows: usize) -> i64 {
    (rows as i64 * 20).max(1_000)
}

/// Value domain of `w`'s attributes (`rows × 200`, see
/// `gen_window_table`).
pub fn window_domain(rows: usize) -> i64 {
    (rows as i64 * 200).max(10_000)
}

/// The partitioned rolling sum every window query uses.
pub const WINDOW_SELECT: &str = "SELECT *, SUM(v) OVER (PARTITION BY g ORDER BY o \
     ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) AS roll FROM w";

/// Query shapes, shared by `dashboard` and `report`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    TopK,
    Sort,
    Window,
}

impl Shape {
    pub const ALL: [Shape; 3] = [Shape::TopK, Shape::Sort, Shape::Window];

    pub fn name(self) -> &'static str {
        match self {
            Shape::TopK => "topk",
            Shape::Sort => "sort",
            Shape::Window => "window",
        }
    }
}

/// Distinct slice starts `L` in the `dashboard` texts.
pub const SLICE_STARTS: usize = 64;
/// `id` width of the `dashboard` top-k slice.
pub const TOPK_SLICE: usize = 4096;
/// `id` width of the `dashboard` sort and window slices.
pub const SMALL_SLICE: usize = 512;

/// The `dashboard` request text for `shape` over the slice starting at
/// `l`.
pub fn dashboard_sql(shape: Shape, l: usize) -> String {
    match shape {
        Shape::TopK => format!(
            "SELECT * FROM s WHERE id >= {l} AND id < {} ORDER BY a, b LIMIT 10",
            l + TOPK_SLICE
        ),
        Shape::Sort => format!(
            "SELECT * FROM s WHERE id >= {l} AND id < {} ORDER BY a",
            l + SMALL_SLICE
        ),
        Shape::Window => format!(
            "{WINDOW_SELECT} WHERE id >= {l} AND id < {}",
            l + SMALL_SLICE
        ),
    }
}

/// The 64 seeded slice starts of `dashboard` over a table of `rows`.
pub fn slice_starts(rows: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0xda5b_0a2d);
    let span = (rows - TOPK_SLICE) as u64;
    let mut starts: Vec<usize> = Vec::with_capacity(SLICE_STARTS);
    while starts.len() < SLICE_STARTS {
        let l = rng.below(span) as usize;
        if !starts.contains(&l) {
            starts.push(l);
        }
    }
    starts
}

/// The `report` rotation: top-k over all of `s`, a sort over a ~50%
/// predicate on the non-clustered `b`, and the window over a ~50%
/// predicate on `v`.
pub fn report_sql(shape: Shape, rows: usize) -> String {
    match shape {
        Shape::TopK => "SELECT * FROM s ORDER BY a, b LIMIT 10".to_string(),
        Shape::Sort => format!(
            "SELECT * FROM s WHERE b < {} ORDER BY a",
            sort_domain(rows) / 2
        ),
        Shape::Window => format!("{WINDOW_SELECT} WHERE v < {}", window_domain(rows) / 2),
    }
}

/// The `ingest` query: top-10 by `v` over the latest 1024 ids.
pub fn ingest_sql(max_id: i64) -> String {
    format!(
        "SELECT * FROM w WHERE id >= {} ORDER BY v LIMIT 10",
        max_id - 1023
    )
}

/// The `ingest` subscriptions: the rolling window and a top-k.
pub const INGEST_WINDOW_SUB: &str = WINDOW_SELECT;
pub const INGEST_TOPK_SUB: &str = "SELECT * FROM w ORDER BY v LIMIT 10";

/// Rows per `ingest` append.
pub const BATCH_ROWS: usize = 64;

/// Generator of in-order `w` batches: `o` and `id` continue past the
/// current maxima, so every batch lands past the window sweep's frontier.
/// About 5% of `o` and `v` values carry a band, as in the base table.
#[derive(Clone, Debug)]
pub struct Appender {
    rng: Rng,
    next_o: i64,
    next_id: i64,
    domain: i64,
}

impl Appender {
    /// Continue after `table` (a `w` relation).
    pub fn after(table: &AuRelation, seed: u64) -> Appender {
        let max_of = |col: usize| {
            table
                .rows()
                .iter()
                .filter_map(|r| r.tuple.get(col).ub.as_i64())
                .max()
                .unwrap_or(0)
        };
        Appender {
            rng: Rng::new(seed ^ 0x001a_6e57),
            next_o: max_of(0) + 1,
            next_id: max_of(3) + 1,
            domain: window_domain(table.len()),
        }
    }

    /// Largest `id` handed out so far.
    pub fn max_id(&self) -> i64 {
        self.next_id - 1
    }

    /// The next batch, as a relation and as the AU-CSV text `/append`
    /// takes.
    pub fn next_batch(&mut self) -> (AuRelation, String) {
        let mut rows = Vec::with_capacity(BATCH_ROWS);
        let mut csv = String::from("o_lb,o,o_ub,g,v_lb,v,v_ub,id\n");
        for _ in 0..BATCH_ROWS {
            let o_spread = if self.rng.below(20) == 0 { 3 } else { 0 };
            let o_lb = self.next_o;
            self.next_o += 4;
            let g = self.rng.below(8) as i64;
            let v = self.rng.below(self.domain as u64) as i64;
            let v_band = if self.rng.below(20) == 0 { 500 } else { 0 };
            let id = self.next_id;
            self.next_id += 1;
            let o = RangeValue::new(o_lb, o_lb + o_spread / 2, o_lb + o_spread);
            let vv = RangeValue::new(v, v + v_band / 2, v + v_band);
            csv.push_str(&format!(
                "{},{},{},{g},{},{},{},{id}\n",
                o.lb, o.sg, o.ub, vv.lb, vv.sg, vv.ub
            ));
            rows.push((
                AuTuple::new([o, RangeValue::certain(g), vv, RangeValue::certain(id)]),
                Mult3::ONE,
            ));
        }
        (
            AuRelation::from_rows(Schema::new(["o", "g", "v", "id"]), rows),
            csv,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_changes_data_but_not_op_counts() {
        let (a, b) = (sort_table(2_000, 1), sort_table(2_000, 2));
        assert_eq!(a.len(), b.len());
        assert!(!a.bag_eq(&b));
        let (a, b) = (window_table(2_000, 1), window_table(2_000, 2));
        assert_eq!(a.len(), b.len());
        assert!(!a.bag_eq(&b));

        let (l1, l2) = (slice_starts(65_536, 1), slice_starts(65_536, 2));
        assert_ne!(l1, l2);
        assert_eq!(l1.len(), SLICE_STARTS);
        assert_eq!(l2.len(), SLICE_STARTS);
        let texts = |ls: &[usize]| {
            let mut t: Vec<String> = Shape::ALL
                .iter()
                .flat_map(|&s| ls.iter().map(move |&l| dashboard_sql(s, l)))
                .collect();
            t.sort();
            t.dedup();
            t.len()
        };
        assert_eq!(texts(&l1), 3 * SLICE_STARTS);
        assert_eq!(texts(&l2), 3 * SLICE_STARTS);

        let w = window_table(2_000, 1);
        let (mut x, mut y) = (Appender::after(&w, 1), Appender::after(&w, 2));
        let (bx, _) = x.next_batch();
        let (by, _) = y.next_batch();
        assert_eq!((bx.len(), by.len()), (BATCH_ROWS, BATCH_ROWS));
        assert!(!bx.bag_eq(&by));
    }

    #[test]
    fn batches_continue_past_the_table_and_parse_back() {
        let w = window_table(2_000, 3);
        let mut app = Appender::after(&w, 3);
        let max_o = w
            .rows()
            .iter()
            .map(|r| r.tuple.get(0).ub.as_i64().unwrap())
            .max()
            .unwrap();
        let (batch, csv) = app.next_batch();
        assert!(batch
            .rows()
            .iter()
            .all(|r| r.tuple.get(0).lb.as_i64().unwrap() > max_o));
        assert_eq!(app.max_id(), 2_000 + BATCH_ROWS as i64 - 1);
        let parsed = audb_workloads::read_au_csv(csv.as_bytes()).unwrap();
        assert_eq!(parsed.schema, w.schema);
        assert!(parsed.bag_eq(&batch));
    }
}
