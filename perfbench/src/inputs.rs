//! Seeded request generation. Every input the benchmark sends is a pure
//! function of `(seed, connection, request index)`, so a seed names one
//! exact byte stream and any request can be regenerated later (to verify
//! its answer) without storing it.

use std::fmt::Write as _;

/// The scenario every serving workload queries: the paper's full FMM
/// space (2112 configurations of `(t, N, q, k)`).
pub const WORKLOAD: &str = "fmm";
/// The model family every serving workload queries.
pub const KIND: &str = "hybrid";

/// Fraction grid of off-space values: `1/1024` is exact in binary and
/// its decimal expansion has ten digits, so a generated value prints
/// exactly and parses back to the same bits.
const FRACTION_STEPS: u64 = 1024;

/// splitmix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A counter-based random word: independent streams per
/// `(seed, a, b, c)` with no generator state to carry.
pub fn draw(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    splitmix(splitmix(splitmix(splitmix(seed) ^ a) ^ b) ^ c)
}

/// The configuration space a workload draws rows from.
pub struct Space {
    /// Feature rows in canonical space order.
    pub rows: Vec<Vec<f64>>,
    /// Each row pre-rendered as a JSON array.
    texts: Vec<String>,
    /// Per-column minimum over the space.
    lo: Vec<u64>,
    /// Per-column maximum over the space.
    hi: Vec<u64>,
}

impl Space {
    /// Build from a scenario's feature rows. Columns must hold
    /// non-negative whole numbers, as every built-in space does.
    pub fn new(rows: Vec<Vec<f64>>) -> Self {
        let arity = rows[0].len();
        let col = |c: usize| rows.iter().map(move |r| r[c]);
        for c in 0..arity {
            assert!(
                col(c).all(|v| v >= 0.0 && v.fract() == 0.0),
                "column {c} is not whole-numbered"
            );
        }
        let lo = (0..arity)
            .map(|c| col(c).fold(f64::INFINITY, f64::min) as u64)
            .collect();
        let hi = (0..arity)
            .map(|c| col(c).fold(0.0, f64::max) as u64)
            .collect();
        let texts = rows.iter().map(|r| format!("{r:?}")).collect();
        Self {
            rows,
            texts,
            lo,
            hi,
        }
    }

    /// The serving scenario's space.
    pub fn serving() -> Self {
        let id = lam_serve::workload::WorkloadId::get(WORKLOAD).expect("built-in scenario");
        Self::new(id.entry().workload().feature_rows())
    }

    /// Feature count of every row.
    pub fn arity(&self) -> usize {
        self.lo.len()
    }
}

/// What the rows of one request look like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    /// Rows drawn from the space (the server's cache sees repeats).
    Hot,
    /// Fresh off-space rows: every value lies inside its column's range
    /// but off the grid, so no two requests of a run share a row.
    Cold,
}

/// The seeded request stream of one workload.
#[derive(Clone, Copy)]
pub struct Generator<'a> {
    /// The run's seed.
    pub seed: u64,
    /// Where rows come from.
    pub space: &'a Space,
    /// Hot or cold rows.
    pub rows: Rows,
    /// Rows per request.
    pub batch: usize,
}

impl Generator<'_> {
    /// Space index of row `i` of request `k` on connection `conn`
    /// (hot rows only).
    pub fn hot_index(&self, conn: u64, k: u64, i: usize) -> usize {
        (draw(self.seed, conn, k, i as u64) % self.space.rows.len() as u64) as usize
    }

    /// Column `c` of cold row `i` of request `k` on connection `conn`,
    /// as whole and 1/1024 parts.
    fn cold_parts(&self, conn: u64, k: u64, i: usize, c: usize) -> (u64, u64) {
        let (lo, hi) = (self.space.lo[c], self.space.hi[c]);
        let word = draw(
            self.seed ^ 0xC01D,
            conn,
            k,
            (i * self.space.arity() + c) as u64,
        );
        // Strictly inside the range and never a whole number: the
        // fractional part is drawn from 1..1024.
        let whole = lo + word % (hi - lo).max(1);
        let frac = 1 + (word >> 40) % (FRACTION_STEPS - 1);
        (whole, frac)
    }

    /// Row `i` of request `k` on connection `conn`.
    pub fn row(&self, conn: u64, k: u64, i: usize) -> Vec<f64> {
        match self.rows {
            Rows::Hot => self.space.rows[self.hot_index(conn, k, i)].clone(),
            Rows::Cold => (0..self.space.arity())
                .map(|c| {
                    let (whole, frac) = self.cold_parts(conn, k, i, c);
                    whole as f64 + frac as f64 / FRACTION_STEPS as f64
                })
                .collect(),
        }
    }

    /// Every row of request `k` on connection `conn`.
    pub fn rows_of(&self, conn: u64, k: u64) -> Vec<Vec<f64>> {
        (0..self.batch).map(|i| self.row(conn, k, i)).collect()
    }

    /// Append the JSON `/predict` body of request `k` on connection
    /// `conn` to `out`.
    pub fn write_body(&self, conn: u64, k: u64, out: &mut String) {
        out.push_str("{\"workload\":\"");
        out.push_str(WORKLOAD);
        out.push_str("\",\"kind\":\"");
        out.push_str(KIND);
        out.push_str("\",\"rows\":[");
        for i in 0..self.batch {
            if i > 0 {
                out.push(',');
            }
            match self.rows {
                Rows::Hot => out.push_str(&self.space.texts[self.hot_index(conn, k, i)]),
                Rows::Cold => {
                    out.push('[');
                    for c in 0..self.space.arity() {
                        if c > 0 {
                            out.push(',');
                        }
                        let (whole, frac) = self.cold_parts(conn, k, i, c);
                        // frac/1024 = frac * 9765625 / 10^10, exactly.
                        let digits = format!("{:010}", frac * 9_765_625);
                        let _ = write!(out, "{whole}.{}", digits.trim_end_matches('0'));
                    }
                    out.push(']');
                }
            }
        }
        out.push_str("]}");
    }

    /// The full HTTP request bytes of request `k` on connection `conn`,
    /// with an optional `x-lam-trace` header.
    pub fn request(&self, conn: u64, k: u64, host: &str, trace: Option<&str>) -> Vec<u8> {
        let mut body = String::with_capacity(64 + self.batch * 48);
        self.write_body(conn, k, &mut body);
        lam_serve::proto::encode_request_traced("POST", "/predict", host, body.as_bytes(), trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn generator(space: &Space, seed: u64, rows: Rows, batch: usize) -> Generator<'_> {
        Generator {
            seed,
            space,
            rows,
            batch,
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let space = Space::serving();
        for rows in [Rows::Hot, Rows::Cold] {
            let a = generator(&space, 7, rows, 64);
            let b = generator(&space, 7, rows, 64);
            let c = generator(&space, 8, rows, 64);
            for k in 0..20 {
                let ra = a.request(1, k, "h:1", None);
                assert_eq!(ra, b.request(1, k, "h:1", None));
                assert_ne!(ra, c.request(1, k, "h:1", None));
            }
            // Connections draw independent streams.
            assert_ne!(a.request(0, 0, "h:1", None), a.request(1, 0, "h:1", None));
        }
    }

    #[test]
    fn bodies_parse_back_to_the_generated_rows() {
        let space = Space::serving();
        for rows in [Rows::Hot, Rows::Cold] {
            let g = generator(&space, 3, rows, 16);
            for k in 0..50 {
                let mut body = String::new();
                g.write_body(0, k, &mut body);
                let req: lam_serve::http::PredictRequest = serde_json::from_str(&body).unwrap();
                assert_eq!(req.workload, WORKLOAD);
                assert_eq!(req.kind, KIND);
                let want = g.rows_of(0, k);
                assert_eq!(req.rows.len(), want.len());
                for (got, want) in req.rows.iter().zip(&want) {
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    let want: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want);
                }
            }
        }
    }

    #[test]
    fn hot_rows_lie_in_the_space() {
        let space = Space::serving();
        let members: HashSet<Vec<u64>> = space
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        let g = generator(&space, 11, Rows::Hot, 64);
        for k in 0..100 {
            for row in g.rows_of(0, k) {
                assert!(members.contains(&row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()));
            }
        }
    }

    #[test]
    fn cold_rows_are_distinct_in_range_and_predict_finite() {
        let space = Space::serving();
        let g = generator(&space, 5, Rows::Cold, 256);
        let members: HashSet<Vec<u64>> = space
            .rows
            .iter()
            .map(|r| r.iter().map(|v| v.to_bits()).collect())
            .collect();
        let mut seen = HashSet::new();
        let mut all = Vec::new();
        for conn in 0..2 {
            for k in 0..200 {
                for row in g.rows_of(conn, k) {
                    for (c, v) in row.iter().enumerate() {
                        assert!(*v > space.lo[c] as f64 && *v < space.hi[c] as f64);
                        assert_ne!(v.fract(), 0.0);
                    }
                    let bits: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                    assert!(!members.contains(&bits), "cold row on the grid");
                    assert!(seen.insert(bits), "cold row repeated");
                    all.push(row);
                }
            }
        }
        let id = lam_serve::workload::WorkloadId::get(WORKLOAD).unwrap();
        let key = lam_serve::registry::ModelKey::new(id, KIND.parse().expect("known kind"), 1);
        let model = lam_serve::registry::train(key)
            .unwrap()
            .into_predictor()
            .unwrap();
        for row in all.iter().step_by(7) {
            assert!(model.predict_row(row).is_finite());
        }
    }
}
