//! Incremental (streaming) ordinary least squares.
//!
//! [`OnlineOls`] accumulates the sufficient statistics of a regression
//! — `XᵀX`, `Xᵀy`, `yᵀy`, `Σy`, `n` — one observation at a time. These
//! exact accumulators are the whole state. After every accepted push
//! (and on restore) one Cholesky factor `XᵀX = LLᵀ` is derived from
//! them; coefficients are `LLᵀβ = Xᵀy` solves and leverage is
//! `‖L⁻¹r‖²`. Nothing is carried forward between pushes but the
//! accumulators, so there is no numerical drift to bound: the fit after
//! `n` rows is a function of those rows alone.
//!
//! The state is a flat list of `f64`/`u64` words
//! ([`OnlineOls::state`] / [`OnlineOls::from_state`]) so a server can
//! checkpoint a fit mid-stream and resume it **bitwise**: the factor is
//! never serialized, so a restored fit re-derives exactly the factor
//! the uninterrupted one holds.

use crate::error::StatsError;
use crate::Result;
use pmc_linalg::{solve_lower, Cholesky, Matrix};

/// Streaming OLS over a fixed design width `p`.
#[derive(Debug, Clone)]
pub struct OnlineOls {
    p: usize,
    n: u64,
    /// Exact accumulated Gram matrix `XᵀX`.
    xtx: Matrix,
    /// Exact accumulated `Xᵀy`.
    xty: Vec<f64>,
    /// Exact accumulated `yᵀy` (for the incremental residual sum).
    yty: f64,
    /// Exact accumulated `Σy` (for the incremental total sum).
    sum_y: f64,
    /// Cholesky factor of `xtx`, derived from the accumulators; the
    /// error says why the fit is cold (`n ≤ p`, or `XᵀX` does not
    /// factor).
    factor: Result<Cholesky>,
}

impl OnlineOls {
    /// Creates an empty fit for design width `p`.
    ///
    /// The second argument is ignored: it was the refactorization
    /// cadence of a cached inverse the fit no longer keeps, and stays
    /// only so existing callers compile. Pass `0`.
    pub fn new(p: usize, _resync_every: u64) -> Self {
        let xtx = Matrix::zeros(p, p);
        OnlineOls {
            p,
            n: 0,
            factor: derive_factor(p, 0, &xtx),
            xtx,
            xty: vec![0.0; p],
            yty: 0.0,
            sum_y: 0.0,
        }
    }

    /// Design width.
    pub fn width(&self) -> usize {
        self.p
    }

    /// Observations accumulated so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// True once the Cholesky factor of `XᵀX` exists: `n > p` and the
    /// accumulated Gram matrix is numerically positive definite.
    pub fn is_warm(&self) -> bool {
        self.factor.is_ok()
    }

    /// Leverage of a prospective row, `h = rᵀ(XᵀX)⁻¹r = ‖L⁻¹r‖²` — the
    /// self-influence this observation would have on the fit. `None`
    /// until the fit is warm. Rows with `h` far above the average
    /// `p / n` are high-leverage outliers.
    pub fn leverage(&self, row: &[f64]) -> Option<f64> {
        let chol = self.factor.as_ref().ok()?;
        let z = solve_lower(chol.l(), row).ok()?;
        Some(pmc_linalg::dot(&z, &z))
    }

    /// Accumulates one observation and re-derives the factor.
    ///
    /// Rejects rows of the wrong width, non-finite values, and rows
    /// whose products would overflow an accumulator: the update is
    /// staged and committed only if every accumulator stays finite, so
    /// a rejected push leaves the state bitwise unchanged. A Gram
    /// matrix that does not factor (rank-deficient so far) is not an
    /// error: the fit stays cold until later rows make it factor.
    pub fn push(&mut self, row: &[f64], y: f64) -> Result<()> {
        if row.len() != self.p {
            return Err(StatsError::DimensionMismatch {
                what: "online OLS push",
                rows: self.p,
                response: row.len(),
            });
        }
        let degenerate = |reason| StatsError::Degenerate {
            what: "online OLS push",
            reason,
        };
        if !y.is_finite() || !row.iter().all(|x| x.is_finite()) {
            return Err(degenerate("non-finite observation"));
        }
        let mut xtx = self.xtx.clone();
        let mut xty = self.xty.clone();
        for i in 0..self.p {
            for j in i..self.p {
                xtx[(i, j)] += row[i] * row[j];
                if j != i {
                    xtx[(j, i)] = xtx[(i, j)];
                }
            }
            xty[i] += row[i] * y;
        }
        let (yty, sum_y) = (self.yty + y * y, self.sum_y + y);
        if !(xtx.all_finite() && xty.iter().chain([&yty, &sum_y]).all(|v| v.is_finite())) {
            return Err(degenerate("observation overflows the accumulators"));
        }
        self.n += 1;
        self.factor = derive_factor(self.p, self.n, &xtx);
        (self.xtx, self.xty, self.yty, self.sum_y) = (xtx, xty, yty, sum_y);
        Ok(())
    }

    /// The current coefficient vector, the solution of
    /// `(XᵀX)β = Xᵀy` through the Cholesky factor, or why the fit is
    /// cold (underdetermined, or `XᵀX` not positive definite).
    pub fn coefficients(&self) -> Result<Vec<f64>> {
        match &self.factor {
            Ok(chol) => Ok(chol.solve(&self.xty)?),
            Err(e) => Err(e.clone()),
        }
    }

    /// Coefficient of determination from the accumulated statistics:
    /// `R² = 1 − RSS/TSS` with `RSS = yᵀy − 2βᵀXᵀy + βᵀXᵀXβ` and
    /// centered `TSS = yᵀy − n·ȳ²`. `None` while the fit is cold or
    /// when the response is (numerically) constant.
    pub fn r_squared(&self) -> Option<f64> {
        let beta = self.coefficients().ok()?;
        let xtxb = self.xtx.matvec(&beta).ok()?;
        let rss =
            self.yty - 2.0 * pmc_linalg::dot(&beta, &self.xty) + pmc_linalg::dot(&beta, &xtxb);
        let mean = self.sum_y / self.n as f64;
        let tss = self.yty - self.n as f64 * mean * mean;
        if !tss.is_finite() || tss <= f64::EPSILON * self.yty.abs() {
            return None;
        }
        Some(1.0 - rss / tss)
    }

    /// Serializes the fit as `(u64 words, f64 words)`: `[p, n]` and the
    /// accumulators `XᵀX`, `Xᵀy`, `yᵀy`, `Σy`. Restoring via
    /// [`OnlineOls::from_state`] reproduces the object bit-for-bit, so
    /// a resumed stream continues exactly where the original would
    /// have.
    pub fn state(&self) -> (Vec<u64>, Vec<f64>) {
        let mut floats = Vec::with_capacity(self.p * self.p + self.p + 2);
        floats.extend_from_slice(self.xtx.as_slice());
        floats.extend_from_slice(&self.xty);
        floats.push(self.yty);
        floats.push(self.sum_y);
        (vec![self.p as u64, self.n], floats)
    }

    /// Rebuilds a fit from [`OnlineOls::state`] output, and from the
    /// earlier six-word layout that also carried a cached inverse (its
    /// extra words are checked for shape and otherwise ignored). Errors
    /// on malformed shapes and on non-finite accumulators.
    pub fn from_state(words: &[u64], floats: &[f64]) -> Result<Self> {
        let malformed = |reason| StatsError::Degenerate {
            what: "online OLS state",
            reason,
        };
        let shape = || malformed("malformed serialized fit state");
        // `[p, n]`, or the earlier `[p, n, resync_every, rank1_updates,
        // full_refits, has_inverse]` with `p²` inverse floats after the
        // accumulators when `has_inverse`.
        let has_inv = match words.len() {
            2 => false,
            6 => words[5] != 0,
            _ => return Err(shape()),
        };
        let p = words[0] as usize;
        // The width word comes from an untrusted checkpoint (the CRC
        // is recomputable): derive the expected length with checked
        // arithmetic so a tampered `p` is rejected here — before it
        // can wrap in release builds or drive a huge split/allocation.
        let pp = p.checked_mul(p).ok_or_else(shape)?;
        let accumulators = pp
            .checked_add(p)
            .and_then(|v| v.checked_add(2))
            .ok_or_else(shape)?;
        let expect = accumulators
            .checked_add(if has_inv { pp } else { 0 })
            .ok_or_else(shape)?;
        if floats.len() != expect {
            return Err(shape());
        }
        let floats = &floats[..accumulators];
        if !floats.iter().all(|f| f.is_finite()) {
            return Err(malformed("non-finite accumulator in serialized fit state"));
        }
        let (xtx_w, rest) = floats.split_at(pp);
        let (xty_w, rest) = rest.split_at(p);
        let xtx = Matrix::from_vec(p, p, xtx_w.to_vec())?;
        let n = words[1];
        Ok(OnlineOls {
            p,
            n,
            factor: derive_factor(p, n, &xtx),
            xtx,
            xty: xty_w.to_vec(),
            yty: rest[0],
            sum_y: rest[1],
        })
    }
}

/// The Cholesky factor of the accumulated `XᵀX`, or why there is none.
fn derive_factor(p: usize, n: u64, xtx: &Matrix) -> Result<Cholesky> {
    if n <= p as u64 {
        return Err(StatsError::TooFewObservations {
            what: "online OLS coefficients",
            got: n as usize,
            need: p + 1,
        });
    }
    Ok(Cholesky::decompose(xtx)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ols::OlsFit;
    use crate::rng::SplitMix64;

    fn train_seed() -> u64 {
        std::env::var("TRAIN_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }

    /// Random well-conditioned regression data: rows uniform in
    /// [0.1, 2), responses from a random true β plus small noise.
    fn random_problem(rng: &mut SplitMix64, n: usize, p: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let beta: Vec<f64> = (0..p).map(|_| rng.uniform(-5.0, 5.0)).collect();
        let mut rows = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        for _ in 0..n {
            let row: Vec<f64> = (0..p).map(|_| rng.uniform(0.1, 2.0)).collect();
            let y = pmc_linalg::dot(&row, &beta) + 0.01 * rng.normal();
            rows.push(row);
            ys.push(y);
        }
        (rows, ys)
    }

    fn design(rows: &[Vec<f64>]) -> Matrix {
        let slices: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&slices).unwrap()
    }

    fn full_fit(rows: &[Vec<f64>], ys: &[f64]) -> OlsFit {
        OlsFit::fit(&design(rows), ys).unwrap()
    }

    fn fit_of(p: usize, rows: &[Vec<f64>], ys: &[f64]) -> OnlineOls {
        let mut online = OnlineOls::new(p, 0);
        for (row, &y) in rows.iter().zip(ys) {
            online.push(row, y).unwrap();
        }
        online
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁`, an upper bound on the 2-norm condition
    /// number up to a factor of `p`.
    fn cond1(a: &Matrix) -> f64 {
        let norm1 = |m: &Matrix| {
            (0..m.cols())
                .map(|j| m.column(j).iter().map(|x| x.abs()).sum::<f64>())
                .fold(0.0, f64::max)
        };
        norm1(a) * norm1(&a.spd_inverse().unwrap())
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, ctx: &str) {
        let scale = b.iter().fold(1.0f64, |m, x| m.max(x.abs()));
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * scale,
                "{ctx}: coef {i} diverged: online={x} full={y}"
            );
        }
    }

    /// Seeded property test — streaming fit vs. full QR `OlsFit::fit`
    /// refit across random widths and sample orders.
    #[test]
    fn matches_full_refit_across_widths_and_orders() {
        let seed = train_seed();
        let mut rng = SplitMix64::new(seed);
        for p in 2..=6 {
            for trial in 0..4 {
                let n = p + 4 + rng.below(40);
                let (mut rows, mut ys) = random_problem(&mut rng, n, p);
                // Random arrival order: OLS is order-free, the
                // streaming fit must be too.
                let mut order: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut order);
                let reordered: Vec<Vec<f64>> = order.iter().map(|&i| rows[i].clone()).collect();
                let reordered_y: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
                rows = reordered;
                ys = reordered_y;

                let online = fit_of(p, &rows, &ys);
                let full = full_fit(&rows, &ys);
                let ctx = format!("p={p} n={n} trial={trial} seed={seed}");
                assert_close(
                    &online.coefficients().unwrap(),
                    full.coefficients(),
                    1e-7,
                    &ctx,
                );
                let r2 = online.r_squared().unwrap();
                assert!(
                    (r2 - full.r_squared()).abs() < 1e-6,
                    "{ctx}: r2 online={r2} full={}",
                    full.r_squared()
                );
            }
        }
    }

    /// Closed form: the streaming coefficients are exactly the normal
    /// equations `Cholesky(XᵀX)·β = Xᵀy` over the same rows, with
    /// `XᵀX` and `Xᵀy` built by `Matrix::gram` / `tmatvec`. Both sides
    /// accumulate row by row in arrival order, so the match is bitwise.
    #[test]
    fn online_coefficients_equal_closed_form_bitwise() {
        let seed = train_seed();
        let mut rng = SplitMix64::new(seed);
        for p in 2..=9 {
            let n = p + 1 + rng.below(60);
            let (rows, ys) = random_problem(&mut rng, n, p);
            let online = fit_of(p, &rows, &ys);
            let x = design(&rows);
            let gram = x.gram();
            let closed = Cholesky::decompose(&gram)
                .unwrap()
                .solve(&x.tmatvec(&ys).unwrap())
                .unwrap();
            let ctx = format!("p={p} n={n} seed={seed}");
            assert_eq!(
                bits(&online.state().1[..p * p]),
                bits(gram.as_slice()),
                "{ctx}: XᵀX"
            );
            assert_eq!(
                bits(&online.coefficients().unwrap()),
                bits(&closed),
                "{ctx}: β"
            );
        }
    }

    /// Analytical truth: a noise-free response `y = Xβ` is fitted
    /// exactly up to rounding. Forming `XᵀX` (n-term sums) and factoring
    /// it (p-term sums) perturb the normal equations by O((n+p)·ε)
    /// relative, which the solve amplifies by at most `κ(XᵀX)`; `κ₁`
    /// bounds `κ₂`, so the stated tolerance is `(n+p)·κ₁(XᵀX)·ε`.
    #[test]
    fn online_noise_free_response_recovers_beta() {
        let seed = train_seed();
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        for p in 2..=9 {
            let n = 2 * p + rng.below(60);
            let (rows, _) = random_problem(&mut rng, n, p);
            let beta: Vec<f64> = (0..p).map(|_| rng.uniform(-5.0, 5.0)).collect();
            let ys: Vec<f64> = rows.iter().map(|r| pmc_linalg::dot(r, &beta)).collect();
            let online = fit_of(p, &rows, &ys);
            let gram = design(&rows).gram();
            let tol = (n + p) as f64 * cond1(&gram) * f64::EPSILON;
            assert!(tol < 1e-6, "p={p} n={n}: bound {tol} too loose to test");
            let got = online.coefficients().unwrap();
            let scale = beta.iter().fold(0.0f64, |m, b| m.max(b.abs()));
            for (i, (g, b)) in got.iter().zip(&beta).enumerate() {
                assert!(
                    (g - b).abs() <= tol * scale,
                    "p={p} n={n} seed={seed}: β{i} = {g}, truth {b}, tol {tol}"
                );
            }
        }
    }

    /// Analytical truth: leverages are the diagonal of the hat matrix
    /// `H = X(XᵀX)⁻¹Xᵀ`, whose trace is `tr((XᵀX)⁻¹XᵀX) = p`.
    #[test]
    fn online_leverages_sum_to_width() {
        let seed = train_seed();
        let mut rng = SplitMix64::new(seed ^ 0x1e7e);
        for p in 2..=9 {
            let n = p + 1 + rng.below(60);
            let (rows, ys) = random_problem(&mut rng, n, p);
            let online = fit_of(p, &rows, &ys);
            let trace: f64 = rows.iter().map(|r| online.leverage(r).unwrap()).sum();
            let tol = (n + p) as f64 * cond1(&design(&rows).gram()) * f64::EPSILON;
            assert!(
                (trace - p as f64).abs() <= tol * p as f64,
                "p={p} n={n} seed={seed}: Σh = {trace}, tol {tol}"
            );
        }
    }

    /// An observation whose products overflow the accumulators (each
    /// entry finite, `1e200²` is not) is refused with a typed error and
    /// leaves the fit bitwise as it was — still warm, same β — rather
    /// than turning `XᵀX` into `inf` for good.
    #[test]
    fn overflowing_push_is_rejected_and_leaves_state_unchanged() {
        let mut rng = SplitMix64::new(3);
        let (rows, ys) = random_problem(&mut rng, 10, 3);
        let mut online = fit_of(3, &rows, &ys);
        assert!(online.is_warm());
        let before = online.state();
        let coefs = online.coefficients().unwrap();
        for (row, y) in [([1e200; 3], 100.0), ([1.0, 2.0, 3.0], 1e200)] {
            assert!(matches!(
                online.push(&row, y),
                Err(StatsError::Degenerate { .. })
            ));
            let after = online.state();
            assert_eq!(before.0, after.0);
            assert_eq!(bits(&before.1), bits(&after.1));
            assert!(online.is_warm());
            assert_eq!(bits(&online.coefficients().unwrap()), bits(&coefs));
        }
    }

    /// A rank-deficient prefix (identical rows) leaves the fit cold;
    /// once diverse rows arrive the factor exists again and the fit
    /// matches the full reference.
    #[test]
    fn recovers_from_rank_deficient_prefix() {
        let mut rows = vec![vec![1.0, 2.0]; 4];
        let mut ys = vec![3.0; 4];
        let mut online = fit_of(2, &rows, &ys);
        assert!(!online.is_warm(), "singular Gram must leave the fit cold");
        assert!(online.coefficients().is_err());
        let mut rng = SplitMix64::new(11);
        for _ in 0..6 {
            let row = vec![rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)];
            let y = 4.0 * row[0] - 1.5 * row[1];
            online.push(&row, y).unwrap();
            rows.push(row);
            ys.push(y);
        }
        assert!(online.is_warm(), "diverse rows must revive the fit");
        let full = full_fit(&rows, &ys);
        assert_close(
            &online.coefficients().unwrap(),
            full.coefficients(),
            1e-7,
            "recovery",
        );
    }

    #[test]
    fn rejects_bad_rows() {
        let mut online = OnlineOls::new(2, 0);
        assert!(online.push(&[1.0], 1.0).is_err());
        assert!(online.push(&[1.0, f64::NAN], 1.0).is_err());
        assert!(online.push(&[1.0, 2.0], f64::INFINITY).is_err());
        assert_eq!(online.n(), 0, "rejected rows must not accumulate");
    }

    #[test]
    fn leverage_flags_distant_rows() {
        let mut rng = SplitMix64::new(5);
        let (rows, ys) = random_problem(&mut rng, 30, 3);
        let online = fit_of(3, &rows, &ys);
        let typical = online.leverage(&rows[0]).unwrap();
        let distant = online.leverage(&[50.0, 50.0, 50.0]).unwrap();
        assert!(
            distant > 20.0 * typical,
            "typical={typical} distant={distant}"
        );
        assert!(online.leverage(&[1.0]).is_none(), "wrong width");
    }

    /// The checkpoint contract: state round-trips bitwise, and a
    /// restored fit continues producing the exact floats the original
    /// does.
    #[test]
    fn state_roundtrip_is_bitwise_and_continuation_identical() {
        let mut rng = SplitMix64::new(9);
        let (rows, ys) = random_problem(&mut rng, 30, 4);
        let mut original = fit_of(4, &rows[..17], &ys[..17]);
        let (words, floats) = original.state();
        assert_eq!(words.len(), 2, "state is [p, n] plus accumulators");
        let mut restored = OnlineOls::from_state(&words, &floats).unwrap();
        let (w2, f2) = restored.state();
        assert_eq!(words, w2);
        assert_eq!(bits(&floats), bits(&f2));
        for (row, &y) in rows.iter().zip(&ys).skip(17) {
            original.push(row, y).unwrap();
            restored.push(row, y).unwrap();
        }
        assert_eq!(
            bits(&original.coefficients().unwrap()),
            bits(&restored.coefficients().unwrap()),
            "continuation after restore must be bitwise identical"
        );
    }

    /// Checkpoints written while the fit cached `(XᵀX)⁻¹` carry six
    /// words and the inverse after the accumulators. They restore from
    /// the accumulators alone and then continue bitwise equal to a
    /// fresh fit of the same rows.
    #[test]
    fn online_legacy_six_word_state_restores_and_continues_bitwise() {
        let seed = train_seed();
        let mut rng = SplitMix64::new(seed ^ 0x01d);
        let p = 5;
        let (rows, ys) = random_problem(&mut rng, 40, p);
        let (words, mut floats) = fit_of(p, &rows[..23], &ys[..23]).state();
        let inverse = design(&rows[..23]).gram().spd_inverse().unwrap();
        floats.extend_from_slice(inverse.as_slice());
        let legacy_words = [words[0], words[1], 256, 17, 2, 1];
        let mut restored = OnlineOls::from_state(&legacy_words, &floats).unwrap();
        assert!(restored.is_warm());
        for (row, &y) in rows.iter().zip(&ys).skip(23) {
            restored.push(row, y).unwrap();
        }
        let (fresh, (w, f)) = (fit_of(p, &rows, &ys), restored.state());
        assert_eq!((w, bits(&f)), (fresh.state().0, bits(&fresh.state().1)));
        assert_eq!(
            bits(&restored.coefficients().unwrap()),
            bits(&fresh.coefficients().unwrap())
        );
        // A cold legacy fit carried no inverse words.
        let (w, f) = fit_of(p, &rows[..3], &ys[..3]).state();
        let cold = OnlineOls::from_state(&[w[0], w[1], 256, 0, 0, 0], &f).unwrap();
        assert!(!cold.is_warm() && cold.n() == 3);
    }

    /// Wrong shapes, and non-finite accumulators (a fit that could
    /// never factor again), are refused.
    #[test]
    fn malformed_state_rejected() {
        assert!(OnlineOls::from_state(&[1, 2], &[]).is_err());
        assert!(OnlineOls::from_state(&[2, 0, 0, 0, 0, 0], &[0.0; 3]).is_err());
        assert!(OnlineOls::from_state(&[2, 0, 0], &[0.0; 8]).is_err());
        let (words, floats) = fit_of(1, &[vec![1.0], vec![2.0]], &[1.0, 2.0]).state();
        for i in 0..floats.len() {
            let mut tampered = floats.clone();
            tampered[i] = f64::NAN;
            assert!(
                OnlineOls::from_state(&words, &tampered).is_err(),
                "word {i}"
            );
        }
    }

    /// A tampered checkpoint width must fail cleanly before any
    /// width-derived arithmetic or allocation: `p·p` wrapping in a
    /// release build could otherwise sneak past the length check.
    #[test]
    fn tampered_width_rejected_before_allocation() {
        for p in [u64::MAX, 1 << 63, 1 << 32, 1 << 20] {
            assert!(
                OnlineOls::from_state(&[p, 0], &[0.0; 8]).is_err(),
                "width {p} accepted"
            );
            assert!(OnlineOls::from_state(&[p, 0, 0, 0, 0, 0], &[0.0; 8]).is_err());
            assert!(OnlineOls::from_state(&[p, 0, 0, 0, 0, 1], &[0.0; 8]).is_err());
        }
    }
}
