//! The Equation 1 power model.
//!
//! ```text
//! P_total = Σₙ αₙ·Eₙ·V²·f  +  β·V²·f  +  γ·V  +  δ·Z
//!           └── event-attributed ──┘   dynamic   static  system
//!                dynamic power          floor
//! ```
//!
//! with `Eₙ` = selected counter rates (events per available core
//! cycle), `V` = measured core voltage, `f` = operating frequency in
//! GHz, `Z ≡ 1`. Coefficients come from OLS with the HC3
//! heteroscedasticity-consistent covariance (paper §III-C).

use crate::dataset::{Dataset, SampleRow};
use crate::{ModelError, Result};
use pmc_events::PapiEvent;
use pmc_json::{Json, JsonError};
use pmc_linalg::Matrix;
use pmc_stats::ols::{CovarianceKind, OlsFit, OlsOptions};

/// The operating region a model was trained over. Estimates for
/// `(V, f)` points outside this box extrapolate beyond the data the
/// coefficients were identified on, and downstream consumers (the
/// serving engine) flag them as out-of-range rather than refusing.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingEnvelope {
    /// Lowest core voltage seen in training, volts.
    pub voltage_min: f64,
    /// Highest core voltage seen in training, volts.
    pub voltage_max: f64,
    /// Lowest operating frequency seen in training, MHz.
    pub freq_mhz_min: u32,
    /// Highest operating frequency seen in training, MHz.
    pub freq_mhz_max: u32,
}

impl TrainingEnvelope {
    /// Computes the envelope of a training dataset; `None` for an
    /// empty dataset.
    pub fn from_dataset(data: &Dataset) -> Option<Self> {
        let rows = data.rows();
        let first = rows.first()?;
        let mut env = TrainingEnvelope {
            voltage_min: first.voltage,
            voltage_max: first.voltage,
            freq_mhz_min: first.freq_mhz,
            freq_mhz_max: first.freq_mhz,
        };
        for r in &rows[1..] {
            env.voltage_min = env.voltage_min.min(r.voltage);
            env.voltage_max = env.voltage_max.max(r.voltage);
            env.freq_mhz_min = env.freq_mhz_min.min(r.freq_mhz);
            env.freq_mhz_max = env.freq_mhz_max.max(r.freq_mhz);
        }
        Some(env)
    }

    /// Whether a `(V, f)` operating point lies inside the training
    /// box. A tiny absolute slack on voltage absorbs representation
    /// noise from serialized artifacts.
    pub fn contains(&self, voltage: f64, freq_mhz: u32) -> bool {
        const V_SLACK: f64 = 1e-9;
        voltage >= self.voltage_min - V_SLACK
            && voltage <= self.voltage_max + V_SLACK
            && freq_mhz >= self.freq_mhz_min
            && freq_mhz <= self.freq_mhz_max
    }

    fn to_json_value(&self) -> Json {
        Json::obj(vec![
            ("voltage_min", self.voltage_min.into()),
            ("voltage_max", self.voltage_max.into()),
            ("freq_mhz_min", self.freq_mhz_min.into()),
            ("freq_mhz_max", self.freq_mhz_max.into()),
        ])
    }

    fn from_json_value(v: &Json) -> Result<Self> {
        Ok(TrainingEnvelope {
            voltage_min: v.f64_field("voltage_min")?,
            voltage_max: v.f64_field("voltage_max")?,
            freq_mhz_min: v.u32_field("freq_mhz_min")?,
            freq_mhz_max: v.u32_field("freq_mhz_max")?,
        })
    }
}

/// A fitted Equation 1 power model.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// The selected PMC events, in coefficient order.
    pub events: Vec<PapiEvent>,
    /// Event coefficients `αₙ` (watts per rate unit per `V²·GHz`).
    pub alpha: Vec<f64>,
    /// Residual dynamic power coefficient `β`.
    pub beta: f64,
    /// Static power coefficient `γ` (watts per volt).
    pub gamma: f64,
    /// System power `δ` (`Z ≡ 1`), watts.
    pub delta: f64,
    /// Training R².
    pub fit_r_squared: f64,
    /// Training adjusted R².
    pub fit_adj_r_squared: f64,
    /// HC3 standard errors, one per design column
    /// (`α₀…α_{k−1}, β, γ, δ`).
    pub std_errors: Vec<f64>,
    /// Number of training observations.
    pub n_observations: usize,
    /// The `(V, f)` region the model was trained over. `None` only for
    /// artifacts predating envelope metadata.
    pub envelope: Option<TrainingEnvelope>,
}

impl PowerModel {
    /// Builds the Equation 1 design row for a sample:
    /// `[E₁·V²f, …, Eₖ·V²f, V²f, V, 1]`.
    pub fn design_row(row: &SampleRow, events: &[PapiEvent]) -> Vec<f64> {
        let v2f = row.v2f();
        let mut out = Vec::with_capacity(events.len() + 3);
        for &e in events {
            out.push(row.rate(e) * v2f);
        }
        out.push(v2f);
        out.push(row.voltage);
        out.push(1.0);
        out
    }

    /// Builds the full design matrix for a dataset.
    pub fn design_matrix(data: &Dataset, events: &[PapiEvent]) -> Matrix {
        let cols = events.len() + 3;
        let mut m = Matrix::zeros(data.len(), cols);
        for (i, row) in data.rows().iter().enumerate() {
            let r = Self::design_row(row, events);
            for (j, v) in r.into_iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Fits the model on a dataset with the given selected events,
    /// using OLS + HC3 as the paper does.
    pub fn fit(data: &Dataset, events: &[PapiEvent]) -> Result<Self> {
        if events.is_empty() {
            return Err(ModelError::Selection {
                reason: "cannot fit Equation 1 with zero selected events".into(),
            });
        }
        if data.len() < events.len() + 4 {
            return Err(ModelError::BadDataset {
                what: "PowerModel::fit",
                reason: format!(
                    "{} rows cannot identify {} coefficients",
                    data.len(),
                    events.len() + 3
                ),
            });
        }
        let x = Self::design_matrix(data, events);
        let y = data.power();
        let fit = OlsFit::fit_with(
            &x,
            &y,
            OlsOptions {
                covariance: CovarianceKind::HC3,
                centered_tss: true,
            },
        )?;
        let coefs = fit.coefficients();
        let k = events.len();
        Ok(PowerModel {
            events: events.to_vec(),
            alpha: coefs[..k].to_vec(),
            beta: coefs[k],
            gamma: coefs[k + 1],
            delta: coefs[k + 2],
            fit_r_squared: fit.r_squared(),
            fit_adj_r_squared: fit.adj_r_squared(),
            std_errors: fit.std_errors(),
            n_observations: fit.n_observations(),
            envelope: TrainingEnvelope::from_dataset(data),
        })
    }

    /// Predicted power for one sample row, watts — [`Self::predict_raw`]
    /// over the row's rates for [`Self::events`].
    pub fn predict_row(&self, row: &SampleRow) -> f64 {
        let rates: Vec<f64> = self.events.iter().map(|&e| row.rate(e)).collect();
        self.predict_raw(&rates, row.voltage, row.freq_mhz)
            .expect("rates are built from the model's own events")
    }

    /// Predicted power for every row of a dataset.
    pub fn predict(&self, data: &Dataset) -> Vec<f64> {
        data.rows().iter().map(|r| self.predict_row(r)).collect()
    }

    /// The Equation 1 kernel, from raw inputs: `rates` must align with
    /// [`Self::events`]. Every prediction — offline, online, served —
    /// runs this arithmetic in this order: the base term
    /// `β·V²f + γ·V + δ` first, then `(αₙ·rₙ)·V²f` added in event
    /// order. Replies are checked against it bit for bit, so the order
    /// is part of the contract.
    pub fn predict_raw(&self, rates: &[f64], voltage: f64, freq_mhz: u32) -> Result<f64> {
        if rates.len() != self.events.len() {
            return Err(ModelError::BadDataset {
                what: "predict_raw",
                reason: format!("expected {} rates, got {}", self.events.len(), rates.len()),
            });
        }
        let v2f = voltage * voltage * (freq_mhz as f64 / 1000.0);
        let mut p = self.beta * v2f + self.gamma * voltage + self.delta;
        for (a, r) in self.alpha.iter().zip(rates) {
            p += a * r * v2f;
        }
        Ok(p)
    }

    /// Serializes the model to JSON (deployable artifact).
    pub fn to_json(&self) -> Result<String> {
        Ok(self.to_json_value().to_string_pretty())
    }

    /// The model as a JSON value (events as PAPI mnemonics).
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            (
                "events",
                Json::Arr(self.events.iter().map(|e| e.mnemonic().into()).collect()),
            ),
            ("alpha", self.alpha.as_slice().into()),
            ("beta", self.beta.into()),
            ("gamma", self.gamma.into()),
            ("delta", self.delta.into()),
            ("fit_r_squared", self.fit_r_squared.into()),
            ("fit_adj_r_squared", self.fit_adj_r_squared.into()),
            ("std_errors", self.std_errors.as_slice().into()),
            ("n_observations", self.n_observations.into()),
        ];
        if let Some(env) = &self.envelope {
            fields.push(("envelope", env.to_json_value()));
        }
        Json::obj(fields)
    }

    /// Loads a model from JSON. Fails with a typed [`ModelError`] on
    /// malformed input — never panics.
    pub fn from_json(s: &str) -> Result<Self> {
        Self::from_json_value(&Json::parse(s)?)
    }

    /// Decodes a model from a parsed JSON value, validating shape
    /// (coefficient/σ arity must match the event list).
    pub fn from_json_value(v: &Json) -> Result<Self> {
        let events = v
            .arr_field("events")?
            .iter()
            .map(|e| {
                let name = e.as_str()?;
                name.parse::<PapiEvent>().map_err(|_| JsonError::Range {
                    what: format!("unknown PAPI event {name:?} in model artifact"),
                })
            })
            .collect::<std::result::Result<Vec<_>, _>>()?;
        let alpha = v.f64_vec_field("alpha")?;
        if alpha.len() != events.len() {
            return Err(ModelError::Json(JsonError::Range {
                what: format!(
                    "model artifact has {} events but {} alpha coefficients",
                    events.len(),
                    alpha.len()
                ),
            }));
        }
        let std_errors = v.f64_vec_field("std_errors")?;
        if std_errors.len() != events.len() + 3 {
            return Err(ModelError::Json(JsonError::Range {
                what: format!(
                    "model artifact has {} std errors, expected {}",
                    std_errors.len(),
                    events.len() + 3
                ),
            }));
        }
        let envelope = match v.get("envelope") {
            Some(env) => Some(TrainingEnvelope::from_json_value(env)?),
            None => None,
        };
        Ok(PowerModel {
            events,
            alpha,
            beta: v.f64_field("beta")?,
            gamma: v.f64_field("gamma")?,
            delta: v.f64_field("delta")?,
            fit_r_squared: v.f64_field("fit_r_squared")?,
            fit_adj_r_squared: v.f64_field("fit_adj_r_squared")?,
            std_errors,
            n_observations: v.usize_field("n_observations")?,
            envelope,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::test_fixtures::linear_dataset;

    const FIXTURE_EVENTS: [PapiEvent; 2] = [PapiEvent::PRF_DM, PapiEvent::TOT_CYC];

    #[test]
    fn recovers_exact_coefficients() {
        // The fixture's power is exactly
        // 5000·E_PRF·V²f + 120·E_CYC·V²f + 20·V²f + 40·V + 70.
        let d = linear_dataset(80);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        assert!((m.alpha[0] - 5000.0).abs() < 1e-6, "{}", m.alpha[0]);
        assert!((m.alpha[1] - 120.0).abs() < 1e-8, "{}", m.alpha[1]);
        assert!((m.beta - 20.0).abs() < 1e-7, "{}", m.beta);
        assert!((m.gamma - 40.0).abs() < 1e-6, "{}", m.gamma);
        assert!((m.delta - 70.0).abs() < 1e-6, "{}", m.delta);
        assert!(m.fit_r_squared > 1.0 - 1e-12);
    }

    #[test]
    fn predictions_match_truth_on_fixture() {
        let d = linear_dataset(50);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let pred = m.predict(&d);
        for (p, row) in pred.iter().zip(d.rows()) {
            assert!((p - row.power).abs() < 1e-8);
        }
    }

    #[test]
    fn json_roundtrip_predictions_identical_on_100_rows() {
        let d = linear_dataset(100);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let restored = PowerModel::from_json(&m.to_json().unwrap()).unwrap();
        // Bit-identical predictions: the artifact must carry the exact
        // coefficients, not a lossy rendering.
        for row in d.rows() {
            assert_eq!(
                m.predict_row(row).to_bits(),
                restored.predict_row(row).to_bits(),
                "roundtrip changed a prediction"
            );
        }
    }

    #[test]
    fn truncated_artifact_is_typed_error_never_panics() {
        let d = linear_dataset(30);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let text = m.to_json().unwrap();
        for cut in 0..text.len() {
            if let Err(e) = PowerModel::from_json(&text[..cut]) {
                assert!(matches!(e, ModelError::Json(_)), "cut {cut}: {e:?}");
            } else {
                panic!("truncation at {cut} of {} parsed", text.len());
            }
        }
    }

    #[test]
    fn corrupted_artifact_is_typed_error_never_panics() {
        let d = linear_dataset(30);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let text = m.to_json().unwrap();
        // Flip each character to garbage, one position at a time (on a
        // stride to keep the test fast), and require a clean error or a
        // clean parse — never a panic.
        for i in (0..text.len()).step_by(7) {
            let mut corrupted = text.clone();
            corrupted.replace_range(i..i + 1, "\u{7f}");
            let _ = PowerModel::from_json(&corrupted);
        }
        // Structurally valid JSON with a broken field is also typed.
        let wrong = text.replace("\"events\"", "\"bogus\"");
        assert!(matches!(
            PowerModel::from_json(&wrong),
            Err(ModelError::Json(_))
        ));
    }

    #[test]
    fn predict_raw_matches_predict_row() {
        let d = linear_dataset(30);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        for row in d.rows() {
            let rates: Vec<f64> = m.events.iter().map(|&e| row.rate(e)).collect();
            let a = m.predict_row(row);
            let b = m.predict_raw(&rates, row.voltage, row.freq_mhz).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn predict_raw_checks_arity() {
        let d = linear_dataset(30);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        assert!(m.predict_raw(&[0.1], 1.0, 2400).is_err());
    }

    #[test]
    fn design_row_layout() {
        let d = linear_dataset(5);
        let row = &d.rows()[0];
        let design = PowerModel::design_row(row, &FIXTURE_EVENTS);
        assert_eq!(design.len(), 5);
        assert_eq!(design[4], 1.0); // Z
        assert!((design[3] - row.voltage).abs() < 1e-15);
        assert!((design[2] - row.v2f()).abs() < 1e-15);
        assert!((design[0] - row.rate(PapiEvent::PRF_DM) * row.v2f()).abs() < 1e-18);
    }

    #[test]
    fn too_few_rows_rejected() {
        let d = linear_dataset(4);
        assert!(PowerModel::fit(&d, &FIXTURE_EVENTS).is_err());
    }

    #[test]
    fn zero_events_rejected() {
        let d = linear_dataset(20);
        assert!(PowerModel::fit(&d, &[]).is_err());
    }

    #[test]
    fn json_roundtrip() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let s = m.to_json().unwrap();
        let back = PowerModel::from_json(&s).unwrap();
        assert_eq!(m.events, back.events);
        assert_eq!(m.n_observations, back.n_observations);
        for (a, b) in m.alpha.iter().zip(&back.alpha) {
            assert!((a - b).abs() <= a.abs() * 1e-12);
        }
        assert!((m.beta - back.beta).abs() < 1e-9);
        assert!((m.delta - back.delta).abs() < 1e-9);
    }

    #[test]
    fn fit_records_training_envelope() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let env = m.envelope.as_ref().expect("fit populates envelope");
        for row in d.rows() {
            assert!(env.contains(row.voltage, row.freq_mhz));
        }
        assert!(!env.contains(env.voltage_max + 1.0, env.freq_mhz_min));
        assert!(!env.contains(env.voltage_min, env.freq_mhz_max + 1));
    }

    #[test]
    fn envelope_survives_json_roundtrip() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let back = PowerModel::from_json(&m.to_json().unwrap()).unwrap();
        assert_eq!(m.envelope, back.envelope);
    }

    #[test]
    fn artifact_without_envelope_still_loads() {
        let d = linear_dataset(40);
        let mut m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        m.envelope = None;
        let back = PowerModel::from_json(&m.to_json().unwrap()).unwrap();
        assert_eq!(back.envelope, None);
    }

    #[test]
    fn mismatched_arity_artifact_rejected() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let mut v = m.to_json_value();
        if let Json::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "alpha" {
                    *val = Json::Arr(vec![Json::Num(1.0)]);
                }
            }
        }
        assert!(matches!(
            PowerModel::from_json_value(&v),
            Err(ModelError::Json(JsonError::Range { .. }))
        ));
    }

    #[test]
    fn unknown_event_artifact_rejected() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        let s = m.to_json().unwrap().replace("PRF_DM", "NOT_A_CTR");
        assert!(PowerModel::from_json(&s).is_err());
    }

    #[test]
    fn std_errors_cover_all_coefficients() {
        let d = linear_dataset(40);
        let m = PowerModel::fit(&d, &FIXTURE_EVENTS).unwrap();
        assert_eq!(m.std_errors.len(), m.events.len() + 3);
        assert!(m.std_errors.iter().all(|s| s.is_finite() && *s >= 0.0));
    }
}
