//! Guarded online model refresh: the `train` op's whole lifecycle.
//!
//! A labeled sample (counter vector + measured watts) flows through
//! three defenses before it can influence serving:
//!
//! 1. **Quarantine gate** — typed, machine-readable rejection of
//!    poisoned samples: non-finite / implausible / out-of-envelope
//!    labels, bad voltage or duration, implausible counters, and
//!    high-leverage design rows (the classic single-observation
//!    poisoning vector), reusing [`pmc_model::quarantine`]'s reason
//!    taxonomy.
//! 2. **Shadow evaluation** — accepted samples feed an incremental OLS
//!    refit ([`pmc_stats::OnlineOls`]: exact Gram accumulators with a
//!    fresh Cholesky factor per sample). The refit candidate never answers
//!    clients; it is scored on live labels (rolling MAPE) against the
//!    active model, and only auto-activated through the versioned
//!    registry after beating the active model by a configurable margin
//!    over a minimum number of scored labels.
//! 3. **Activation guard** — after *any* activation (auto or manual),
//!    the newly active model's rolling MAPE is watched against the
//!    baseline it promised; regressing past the guard threshold
//!    triggers an automatic [`ModelRegistry::rollback`] to the pinned
//!    previous version and latches the `shadow_regressed` readiness
//!    reason until a later activation proves healthy.
//!
//! The fit, both score windows, and any armed activation guard
//! serialize into the engine checkpoint ([`TrainingSnapshot`]) so a
//! SIGKILL mid-training resumes the fit **bitwise** — the restored
//! stream produces exactly the coefficients the uninterrupted one
//! would have — and a crash right after an activation does not disarm
//! the rollback watch.

use crate::artifact::ModelArtifact;
use crate::engine::CounterSample;
use crate::error::ServeError;
use crate::registry::ModelRegistry;
use crate::stats::ServerStats;
use pmc_events::PapiEvent;
use pmc_json::Json;
use pmc_model::model::PowerModel;
use pmc_model::quarantine::{triage_label, QuarantineConfig, QuarantineReason};
use pmc_stats::OnlineOls;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

/// Thresholds and windows of the online-learning loop.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Rolling score-window length (labels) for both MAPE series.
    pub score_window: usize,
    /// Minimum scored labels in *both* windows before the shadow may
    /// auto-activate.
    pub min_score_samples: usize,
    /// Minimum accepted samples before a candidate is even built.
    pub min_train_samples: u64,
    /// The shadow must beat the active MAPE by this relative margin
    /// (`shadow < active · (1 − margin)`) to auto-activate.
    pub activate_margin: f64,
    /// Post-activation regression bound: rolling MAPE above
    /// `baseline · (1 + threshold)` triggers automatic rollback.
    pub guard_threshold: f64,
    /// Labels scored after an activation before the guard verdict.
    pub guard_window: usize,
    /// Absolute MAPE slack, percentage points. Auto-activation needs
    /// `active − shadow` to exceed this, and the guard bound gets it
    /// added — so machine-epsilon MAPE differences between two
    /// near-perfect models never drive activation churn or spurious
    /// rollback.
    pub mape_slack: f64,
    /// A design row with leverage above `factor · p / n` — squared
    /// Mahalanobis distance beyond `factor · p` — is quarantined as a
    /// leverage outlier. Benign first-of-kind operating points on a
    /// gridded campaign reach ~100·p/n; injected single-row poisoning
    /// (counters scaled tens of ×) lands thousands of ×p/n out, so
    /// the default separates them with a wide margin at any `n`.
    pub leverage_factor: f64,
    /// Ignored. It was the refactorization cadence of a cached inverse
    /// the incremental fit no longer keeps (the fit refactors its exact
    /// `XᵀX` on every sample); it stays so existing callers compile.
    pub resync_every: u64,
    /// Plausibility envelope for labels, voltage, and counter rates.
    pub quarantine: QuarantineConfig,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            score_window: 64,
            min_score_samples: 20,
            min_train_samples: 24,
            activate_margin: 0.1,
            guard_threshold: 0.5,
            guard_window: 10,
            mape_slack: 0.01,
            leverage_factor: 500.0,
            resync_every: 256,
            quarantine: QuarantineConfig::default(),
        }
    }
}

/// Post-activation watch: the promised baseline MAPE and the labels
/// scored against the newly active model since activation.
#[derive(Debug)]
struct GuardState {
    /// MAPE (percent) the activation promised — the shadow window's
    /// median at auto-activation, or the retired active window's when
    /// the activation was external (manual `activate` / `rollback`).
    baseline: f64,
    apes: VecDeque<f64>,
}

#[derive(Debug)]
struct TrainerState {
    fit: OnlineOls,
    events: Vec<PapiEvent>,
    /// The active model id the shadow is racing; an observed change
    /// means an activation happened and both score windows retire.
    base: Option<(String, u32)>,
    candidate: Option<PowerModel>,
    active_apes: VecDeque<f64>,
    shadow_apes: VecDeque<f64>,
    guard: Option<GuardState>,
    accepted: u64,
}

impl Default for TrainerState {
    fn default() -> Self {
        TrainerState {
            // Placeholder width; the first `train` call resets the fit
            // to the active model's design before any push.
            fit: OnlineOls::new(0, 0),
            events: Vec::new(),
            base: None,
            candidate: None,
            active_apes: VecDeque::new(),
            shadow_apes: VecDeque::new(),
            guard: None,
            accepted: 0,
        }
    }
}

/// [`GuardState`] as it rides the checkpoint: a crash right after an
/// activation must not disarm the post-activation regression watch —
/// a bad model activated just before a SIGKILL would otherwise keep
/// serving with no automatic rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct GuardSnapshot {
    /// Promised baseline MAPE, percent.
    pub baseline: f64,
    /// APEs scored against the newly active model since activation.
    pub apes: Vec<f64>,
}

/// Complete serializable training state — what rides the checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSnapshot {
    /// [`OnlineOls::state`] integer words.
    pub words: Vec<u64>,
    /// [`OnlineOls::state`] float words (bitwise-exact).
    pub floats: Vec<f64>,
    /// Event mnemonics of the fit's design, in coefficient order.
    pub events: Vec<String>,
    /// The active model id the shadow was racing.
    pub base: Option<(String, u32)>,
    /// Accepted (gate-passing) samples so far.
    pub accepted: u64,
    /// Rolling APE window of the active model (fractions).
    pub active_apes: Vec<f64>,
    /// Rolling APE window of the shadow candidate (fractions).
    pub shadow_apes: Vec<f64>,
    /// Armed post-activation guard, if an activation was still under
    /// watch at snapshot time.
    pub guard: Option<GuardSnapshot>,
}

/// The shared online-learning loop: one per server, called from any
/// worker holding a `train` request.
#[derive(Debug)]
pub struct Trainer {
    config: TrainerConfig,
    state: Mutex<TrainerState>,
}

/// Rolling MAPE of a window, percent (the paper's convention) —
/// computed as the **median** APE, not the mean. The windows score
/// every gate-passing label, and a leverage attack that slips through
/// the cold-start gate produces a few wild APEs against the honest
/// active model; a mean would let that minority hand the race to the
/// very candidate that trained on the poison. The median ignores any
/// minority of wild points while tracking genuine (whole-stream)
/// drift exactly.
fn window_mape(w: &VecDeque<f64>) -> Option<f64> {
    if w.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = w.iter().copied().collect();
    // total_cmp: the windows only ever receive finite APEs, but a NaN
    // that somehow slipped in (or rode a checkpoint) must not panic
    // the whole train path for the window's lifetime.
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    let median = if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    };
    Some(100.0 * median)
}

/// Pushes one APE, dropping non-finite scores: a degenerate model's
/// NaN prediction must never poison a window — a single NaN median
/// would disable every threshold comparison (NaN compares false) and
/// ride the checkpoint across restarts.
fn push_window(w: &mut VecDeque<f64>, ape: f64, cap: usize) {
    if !ape.is_finite() {
        return;
    }
    w.push_back(ape);
    while w.len() > cap.max(1) {
        w.pop_front();
    }
}

fn id_json(id: &(String, u32)) -> Json {
    Json::obj(vec![
        ("name", Json::from(id.0.as_str())),
        ("version", Json::from(id.1)),
    ])
}

impl Trainer {
    /// Creates a trainer with the given thresholds.
    pub fn new(config: TrainerConfig) -> Self {
        Trainer {
            config,
            state: Mutex::new(TrainerState::default()),
        }
    }

    /// The configured thresholds.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TrainerState> {
        // A panic mid-update cannot corrupt the state (exact
        // accumulators are updated atomically per push); recover the
        // lock like the registry does.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Handles one `train` request end to end. `total_cores` is the
    /// engine's rate-normalization constant (events per available core
    /// cycle must match the offline dataset normalization).
    pub fn train(
        &self,
        registry: &ModelRegistry,
        stats: &ServerStats,
        total_cores: u32,
        sample: &CounterSample,
        power_w: f64,
    ) -> Result<Json, ServeError> {
        let cfg = &self.config;
        let active = registry.active().ok_or_else(|| ServeError::Registry {
            reason: "no active model — training needs a serving baseline".into(),
        })?;
        let active_id = (active.name.clone(), active.version);
        let mut st = self.lock();

        if st.events != active.model.events {
            // The serving design changed width or content: the old
            // sufficient statistics describe a different regression.
            self.reset_training(&mut st, &active.model.events);
            st.base = Some(active_id.clone());
        } else if st.base.as_ref() != Some(&active_id) {
            // An activation (manual activate/rollback, or another
            // worker's auto-activation) landed since the last label:
            // both score windows described the retired pairing and
            // must retire with it. The retired active window's mean
            // becomes the guard baseline for the new model.
            let baseline = (st.active_apes.len() >= cfg.min_score_samples)
                .then(|| window_mape(&st.active_apes))
                .flatten();
            st.active_apes.clear();
            st.shadow_apes.clear();
            st.guard = baseline.map(|baseline| GuardState {
                baseline,
                apes: VecDeque::new(),
            });
            st.base = Some(active_id.clone());
        }

        if sample.deltas.len() != st.events.len() {
            return Err(ServeError::WidthMismatch {
                expected: st.events.len(),
                got: sample.deltas.len(),
            });
        }

        // ---- Quarantine gate: typed reasons, nothing poisoned ever
        // reaches the sufficient statistics or the score windows. ----
        let mut reasons: Vec<QuarantineReason> = triage_label(power_w, &cfg.quarantine);
        if !(sample.duration_s.is_finite() && sample.duration_s > 0.0) {
            reasons.push(QuarantineReason::BadDuration);
        }
        if sample.freq_mhz == 0 {
            // Mirrors the ingest path's rejection (engine.rs): zero
            // frequency means zero available cycles, and 0/0 rates
            // would smear NaN through predictions and score windows.
            reasons.push(QuarantineReason::BadFrequency);
        }
        if !(sample.voltage.is_finite()
            && sample.voltage >= cfg.quarantine.min_voltage_v
            && sample.voltage <= cfg.quarantine.max_voltage_v)
        {
            reasons.push(QuarantineReason::BadVoltage);
        }
        if !sample.missing.is_empty() {
            // A training label must be explained by a complete counter
            // vector; substitution heuristics are for serving, not
            // fitting.
            reasons.push(QuarantineReason::MissingCounters {
                missing: sample
                    .missing
                    .iter()
                    .filter_map(|&i| st.events.get(i).copied())
                    .collect(),
            });
        }

        let mut rates = Vec::with_capacity(st.events.len());
        if reasons.is_empty() {
            let available_cycles =
                total_cores as f64 * sample.freq_mhz as f64 * 1e6 * sample.duration_s;
            for (&delta, &event) in sample.deltas.iter().zip(st.events.iter()) {
                if !delta.is_finite() || delta < 0.0 {
                    reasons.push(QuarantineReason::NonFiniteCounter { event });
                    continue;
                }
                let rate = delta / available_cycles;
                if rate > cfg.quarantine.max_rate_per_cycle {
                    reasons.push(QuarantineReason::ImplausibleCounter { event });
                }
                rates.push(rate);
            }
        }

        let mut row = Vec::new();
        if reasons.is_empty() {
            if let Some(env) = &active.model.envelope {
                if !env.contains(sample.voltage, sample.freq_mhz) {
                    reasons.push(QuarantineReason::OutOfEnvelopeLabel);
                }
            }
            let v2f = sample.voltage * sample.voltage * (sample.freq_mhz as f64 / 1000.0);
            row = Vec::with_capacity(st.events.len() + 3);
            for &r in &rates {
                row.push(r * v2f);
            }
            row.push(v2f);
            row.push(sample.voltage);
            row.push(1.0);
            // Leverage check: h = rᵀ(XᵀX)⁻¹r against the p/n average.
            // A single far-out design row could otherwise steer the
            // whole incremental fit (the leverage poisoning vector).
            // Engages only once n ≥ 2p: a just-determined fit's
            // near-singular XᵀX makes every new row look extreme.
            if reasons.is_empty() && st.fit.is_warm() && st.fit.n() >= 2 * st.fit.width() as u64 {
                if let Some(h) = st.fit.leverage(&row) {
                    let avg = st.fit.width() as f64 / st.fit.n().max(1) as f64;
                    if h > cfg.leverage_factor * avg {
                        reasons.push(QuarantineReason::LeverageOutlier);
                    }
                }
            }
        }

        if !reasons.is_empty() {
            ServerStats::bump(&stats.train_samples_quarantined);
            return Ok(self.response(&st, false, &reasons, None, false));
        }

        // ---- Shadow scoring: the label is a holdout for both models
        // *before* it feeds the fit. ----
        let label_ape = |pred: f64| ((pred - power_w) / power_w).abs();
        let active_pred = active
            .model
            .predict_raw(&rates, sample.voltage, sample.freq_mhz)?;
        let ape_active = label_ape(active_pred);
        push_window(&mut st.active_apes, ape_active, cfg.score_window);
        if let Some(candidate) = &st.candidate {
            let shadow_pred = candidate.predict_raw(&rates, sample.voltage, sample.freq_mhz)?;
            push_window(
                &mut st.shadow_apes,
                label_ape(shadow_pred),
                cfg.score_window,
            );
        }
        stats.shadow_mape_bits.store(
            window_mape(&st.shadow_apes).unwrap_or(0.0).to_bits(),
            Ordering::Relaxed,
        );

        // ---- Activation guard: the newly active model must hold the
        // MAPE its activation promised. ----
        if let Some(guard) = &mut st.guard {
            if ape_active.is_finite() {
                guard.apes.push_back(ape_active);
            }
            if guard.apes.len() >= cfg.guard_window {
                let observed = window_mape(&guard.apes).unwrap_or(f64::INFINITY);
                let bound = guard.baseline * (1.0 + cfg.guard_threshold) + cfg.mape_slack;
                if observed > bound {
                    match registry.rollback() {
                        Ok(id) => {
                            ServerStats::bump(&stats.auto_rollbacks);
                            stats.shadow_regressed.store(1, Ordering::Relaxed);
                            // The fit that produced (or tolerated) the
                            // regressed model restarts cold — keeping
                            // it would re-promote the same candidate.
                            let events = st.events.clone();
                            self.reset_training(&mut st, &events);
                            st.base = Some(id);
                            // `accepted` means "entered the fit" — this
                            // label triggered the rollback and the fit
                            // was reset before it could be pushed, so
                            // it was not accepted (and the accepted
                            // counters agree).
                            return Ok(self.response(&st, false, &[], None, true));
                        }
                        // No pinned previous version: nothing to roll
                        // back to; disarm and keep serving.
                        Err(_) => st.guard = None,
                    }
                } else {
                    st.guard = None;
                    stats.shadow_regressed.store(0, Ordering::Relaxed);
                }
            }
        }

        // ---- Incremental refit (accumulate, refactor XᵀX) and
        // candidate rebuild. ----
        st.fit
            .push(&row, power_w)
            .map_err(|e| ServeError::BadSample {
                reason: format!("training push failed: {e}"),
            })?;
        st.accepted += 1;
        ServerStats::bump(&stats.train_samples_accepted);
        if st.accepted >= cfg.min_train_samples {
            if let Some(model) = self.build_candidate(&st, &active.model) {
                st.candidate = Some(model);
            }
        }

        // ---- Auto-activation: shadow must win by the margin over a
        // minimum number of scored labels in both windows. ----
        let mut activated = None;
        if st.guard.is_none()
            && st.active_apes.len() >= cfg.min_score_samples
            && st.shadow_apes.len() >= cfg.min_score_samples
        {
            if let (Some(candidate), Some(active_mape), Some(shadow_mape)) = (
                st.candidate.clone(),
                window_mape(&st.active_apes),
                window_mape(&st.shadow_apes),
            ) {
                if shadow_mape < active_mape * (1.0 - cfg.activate_margin)
                    && active_mape - shadow_mape > cfg.mape_slack
                {
                    let artifact = ModelArtifact::new(active.name.clone(), candidate);
                    if let Ok(id) = registry.load_and_activate(artifact) {
                        ServerStats::bump(&stats.auto_activations);
                        stats.shadow_regressed.store(0, Ordering::Relaxed);
                        st.active_apes.clear();
                        st.shadow_apes.clear();
                        st.candidate = None;
                        st.guard = Some(GuardState {
                            baseline: shadow_mape,
                            apes: VecDeque::new(),
                        });
                        st.base = Some(id.clone());
                        activated = Some(id);
                    }
                }
            }
        }

        Ok(self.response(&st, true, &[], activated.as_ref(), false))
    }

    /// Builds the shadow candidate from the current fit (coefficients
    /// solved through its Cholesky factor). `None` while cold.
    fn build_candidate(&self, st: &TrainerState, active: &PowerModel) -> Option<PowerModel> {
        if !st.fit.is_warm() {
            return None;
        }
        let coefs = st.fit.coefficients().ok()?;
        let k = st.events.len();
        let p = st.fit.width() as f64;
        let n = st.fit.n() as f64;
        let r2 = st.fit.r_squared().unwrap_or(0.0);
        let adj = if n > p + 1.0 {
            1.0 - (1.0 - r2) * (n - 1.0) / (n - p)
        } else {
            r2
        };
        Some(PowerModel {
            events: st.events.clone(),
            alpha: coefs[..k].to_vec(),
            beta: coefs[k],
            gamma: coefs[k + 1],
            delta: coefs[k + 2],
            fit_r_squared: r2,
            fit_adj_r_squared: adj,
            // Incremental fits carry no covariance sandwich; zeros keep
            // the one-per-column shape invariant.
            std_errors: vec![0.0; st.fit.width()],
            n_observations: st.fit.n() as usize,
            // The candidate saw the same operating region the active
            // model guards; it inherits that envelope.
            envelope: active.envelope.clone(),
        })
    }

    fn reset_training(&self, st: &mut TrainerState, events: &[PapiEvent]) {
        st.fit = OnlineOls::new(events.len() + 3, 0);
        st.events = events.to_vec();
        st.candidate = None;
        st.active_apes.clear();
        st.shadow_apes.clear();
        st.guard = None;
        st.accepted = 0;
    }

    fn response(
        &self,
        st: &TrainerState,
        accepted: bool,
        reasons: &[QuarantineReason],
        activated: Option<&(String, u32)>,
        rolled_back: bool,
    ) -> Json {
        let opt_num = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let coef_bits = match st.fit.coefficients() {
            Ok(coefs) => Json::Arr(
                coefs
                    .iter()
                    .map(|c| Json::from(format!("{:016x}", c.to_bits()).as_str()))
                    .collect(),
            ),
            Err(_) => Json::Null,
        };
        Json::obj(vec![
            ("accepted", Json::Bool(accepted)),
            (
                "reasons",
                Json::Arr(
                    reasons
                        .iter()
                        .map(|r| Json::from(r.to_string().as_str()))
                        .collect(),
                ),
            ),
            ("n", Json::from(st.fit.n())),
            ("accepted_total", Json::from(st.accepted)),
            ("scored_active", Json::from(st.active_apes.len())),
            ("scored_shadow", Json::from(st.shadow_apes.len())),
            ("active_mape", opt_num(window_mape(&st.active_apes))),
            ("shadow_mape", opt_num(window_mape(&st.shadow_apes))),
            ("candidate", Json::Bool(st.candidate.is_some())),
            ("activated", activated.map(id_json).unwrap_or(Json::Null)),
            ("rolled_back", Json::Bool(rolled_back)),
            ("coef_bits", coef_bits),
        ])
    }

    /// Serializes the fit and score windows for the checkpoint.
    /// `None` when nothing has been trained yet (keeps pre-training
    /// checkpoints byte-identical to the previous format).
    pub fn snapshot(&self) -> Option<TrainingSnapshot> {
        let st = self.lock();
        if st.fit.n() == 0 && st.active_apes.is_empty() && st.guard.is_none() {
            return None;
        }
        let (words, floats) = st.fit.state();
        Some(TrainingSnapshot {
            words,
            floats,
            events: st.events.iter().map(|e| e.mnemonic().to_string()).collect(),
            base: st.base.clone(),
            accepted: st.accepted,
            active_apes: st.active_apes.iter().copied().collect(),
            shadow_apes: st.shadow_apes.iter().copied().collect(),
            guard: st.guard.as_ref().map(|g| GuardSnapshot {
                baseline: g.baseline,
                apes: g.apes.iter().copied().collect(),
            }),
        })
    }

    /// Restores training state from a checkpoint. The fit resumes
    /// bitwise; the shadow candidate is rebuilt from the restored
    /// coefficients against `active` so post-restore scoring continues
    /// exactly as the uninterrupted run would.
    pub fn restore(
        &self,
        snap: &TrainingSnapshot,
        active: Option<&PowerModel>,
    ) -> Result<(), ServeError> {
        let fit =
            OnlineOls::from_state(&snap.words, &snap.floats).map_err(|e| ServeError::Protocol {
                reason: format!("training state: {e}"),
            })?;
        let events = snap
            .events
            .iter()
            .map(|m| m.parse::<PapiEvent>())
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ServeError::Protocol {
                reason: format!("training state: {e}"),
            })?;
        if events.len() + 3 != fit.width() {
            return Err(ServeError::Protocol {
                reason: format!(
                    "training state: {} events cannot span a width-{} fit",
                    events.len(),
                    fit.width()
                ),
            });
        }
        let mut st = self.lock();
        st.fit = fit;
        st.events = events;
        st.base = snap.base.clone();
        st.accepted = snap.accepted;
        st.active_apes = snap.active_apes.iter().copied().collect();
        st.shadow_apes = snap.shadow_apes.iter().copied().collect();
        // The regression watch survives the restart: an activation made
        // just before a crash stays under guard, so a bad model cannot
        // outlive its rollback window by getting the server killed.
        st.guard = snap.guard.as_ref().map(|g| GuardState {
            baseline: g.baseline,
            apes: g.apes.iter().copied().collect(),
        });
        st.candidate = None;
        if st.accepted >= self.config.min_train_samples {
            if let Some(model) = active.and_then(|a| self.build_candidate(&st, a)) {
                st.candidate = Some(model);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::tiny_model;
    use std::sync::atomic::Ordering;

    /// Matches `tiny_dataset`'s thread count, so wire deltas divide
    /// back into exactly the rates the fixture model was fitted on.
    const CORES: u32 = 24;

    fn fast_config() -> TrainerConfig {
        TrainerConfig {
            score_window: 12,
            min_score_samples: 6,
            min_train_samples: 8,
            guard_window: 3,
            ..TrainerConfig::default()
        }
    }

    fn registry_with_tiny() -> ModelRegistry {
        let registry = ModelRegistry::default();
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        registry
    }

    /// A labeled sample following `tiny_dataset`'s exact linear law,
    /// with `drift_w` watts added to the label (a workload/platform
    /// drift the active model does not know about).
    fn labeled(i: usize, drift_w: f64) -> (CounterSample, f64) {
        let freq_mhz = [1200u32, 1600, 2000, 2400, 2600][i % 5];
        let f = freq_mhz as f64 / 1000.0;
        let v = 0.492857 + 0.214286 * f;
        let r_prf = 0.001 + 0.00002 * (i as f64);
        let r_cyc = 0.2 + 0.01 * ((i * 7 % 13) as f64);
        let r_tlb = 0.0005 + 0.00001 * ((i * 5 % 11) as f64);
        let v2f = v * v * f;
        let power = 5000.0 * r_prf * v2f
            + 120.0 * r_cyc * v2f
            + 900.0 * r_tlb * v2f
            + 20.0 * v2f
            + 40.0 * v
            + 70.0
            + drift_w;
        let avail = CORES as f64 * freq_mhz as f64 * 1e6;
        let sample = CounterSample {
            time_ns: i as u64,
            duration_s: 1.0,
            freq_mhz,
            voltage: v,
            deltas: vec![r_prf * avail, r_cyc * avail, r_tlb * avail],
            missing: Vec::new(),
        };
        (sample, power)
    }

    fn reasons_of(resp: &Json) -> Vec<String> {
        resp.arr_field("reasons")
            .unwrap()
            .iter()
            .map(|r| r.as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn quarantine_gate_rejects_each_poison_class_with_typed_reason() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        let train = |sample: &CounterSample, power: f64| {
            trainer
                .train(&registry, &stats, CORES, sample, power)
                .unwrap()
        };

        let (good, power) = labeled(0, 0.0);
        let cases: Vec<(CounterSample, f64, &str)> = vec![
            (good.clone(), f64::NAN, "non_finite_label"),
            (good.clone(), -4.0, "implausible_label"),
            (good.clone(), 9000.0, "implausible_label"),
            (
                {
                    let mut s = good.clone();
                    s.duration_s = 0.0;
                    s
                },
                power,
                "bad_duration",
            ),
            (
                {
                    let mut s = good.clone();
                    s.voltage = 2.5;
                    s
                },
                power,
                "bad_voltage",
            ),
            (
                {
                    let mut s = good.clone();
                    s.missing = vec![1];
                    s
                },
                power,
                "missing_counters:1",
            ),
            (
                {
                    let mut s = good.clone();
                    s.deltas[0] = f64::NAN;
                    s
                },
                power,
                "non_finite_counter:PRF_DM",
            ),
            (
                {
                    let mut s = good.clone();
                    s.deltas[2] = 1e30;
                    s
                },
                power,
                "implausible_counter:TLB_IM",
            ),
            (
                {
                    // Within the plausibility box but outside the
                    // fitted envelope: voltage the campaign never saw.
                    let mut s = good.clone();
                    s.voltage = 1.4;
                    s
                },
                power,
                "out_of_envelope_label",
            ),
        ];
        for (sample, label, want) in &cases {
            let resp = train(sample, *label);
            assert!(!resp.field("accepted").unwrap().as_bool().unwrap());
            assert!(
                reasons_of(&resp).iter().any(|r| r == want),
                "expected reason {want}, got {:?}",
                reasons_of(&resp)
            );
        }
        assert_eq!(
            stats.train_samples_quarantined.load(Ordering::Relaxed),
            cases.len() as u64
        );
        // Nothing poisoned reached the fit.
        assert_eq!(stats.train_samples_accepted.load(Ordering::Relaxed), 0);
        let resp = train(&good, power);
        assert!(resp.field("accepted").unwrap().as_bool().unwrap());
        assert_eq!(resp.u64_field("n").unwrap(), 1);
    }

    /// Review regression: a zero-frequency sample once sailed past the
    /// gate — with zero deltas, `rate = 0 / 0 = NaN` passed every
    /// plausibility comparison, the NaN APE entered the score windows,
    /// and every later `train` call panicked in the median sort until
    /// the NaN rolled out (and it rode the checkpoint across
    /// restarts). The gate must reject it with a typed reason.
    #[test]
    fn zero_frequency_sample_is_quarantined_and_never_poisons_windows() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        let (mut sample, power) = labeled(0, 0.0);
        sample.freq_mhz = 0;
        sample.deltas = vec![0.0; 3];
        let resp = trainer
            .train(&registry, &stats, CORES, &sample, power)
            .unwrap();
        assert!(!resp.field("accepted").unwrap().as_bool().unwrap());
        assert!(
            reasons_of(&resp).iter().any(|r| r == "bad_frequency"),
            "expected bad_frequency, got {:?}",
            reasons_of(&resp)
        );
        assert_eq!(stats.train_samples_accepted.load(Ordering::Relaxed), 0);
        // Later labels keep training and computing medians normally —
        // no NaN reached the windows, nothing panics.
        for i in 0..8 {
            let (sample, power) = labeled(i, 0.0);
            let resp = trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            assert!(resp.field("accepted").unwrap().as_bool().unwrap());
            assert!(resp.f64_field("active_mape").unwrap().is_finite());
        }
    }

    #[test]
    fn leverage_outlier_is_quarantined_once_fit_is_warm() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        for i in 0..12 {
            let (sample, power) = labeled(i, 0.0);
            let resp = trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            assert!(resp.field("accepted").unwrap().as_bool().unwrap());
        }
        // A design row dozens of sigma outside the training cloud.
        let (mut sample, power) = labeled(12, 0.0);
        sample.deltas[0] *= 400.0;
        let resp = trainer
            .train(&registry, &stats, CORES, &sample, power)
            .unwrap();
        assert!(!resp.field("accepted").unwrap().as_bool().unwrap());
        assert_eq!(reasons_of(&resp), vec!["leverage_outlier".to_string()]);
    }

    #[test]
    fn drifted_labels_shadow_win_auto_activates_and_guard_passes() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        let mut activated_at = None;
        for i in 0..30 {
            let (sample, power) = labeled(i, 25.0);
            let resp = trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            assert!(
                resp.field("accepted").unwrap().as_bool().unwrap(),
                "sample {i} rejected: {resp}"
            );
            assert!(!resp.field("rolled_back").unwrap().as_bool().unwrap());
            if !matches!(resp.field("activated").unwrap(), Json::Null) && activated_at.is_none() {
                activated_at = Some(i);
                assert_eq!(
                    resp.field("activated")
                        .unwrap()
                        .u32_field("version")
                        .unwrap(),
                    2
                );
            }
        }
        assert!(activated_at.is_some(), "shadow never won against drift");
        assert_eq!(stats.auto_activations.load(Ordering::Relaxed), 1);
        // The guard watched the fresh model and cleared it — no
        // rollback, readiness latch stays clean.
        assert_eq!(stats.auto_rollbacks.load(Ordering::Relaxed), 0);
        assert_eq!(stats.shadow_regressed.load(Ordering::Relaxed), 0);
        let active = registry.active().unwrap();
        assert_eq!((active.name.as_str(), active.version), ("hsw", 2));
        // The refit model explains the drifted labels where v1 missed
        // by ~25 W.
        let (sample, power) = labeled(31, 25.0);
        let rates: Vec<f64> = sample
            .deltas
            .iter()
            .map(|d| d / (CORES as f64 * sample.freq_mhz as f64 * 1e6))
            .collect();
        let pred = active
            .model
            .predict_raw(&rates, sample.voltage, sample.freq_mhz)
            .unwrap();
        assert!(
            (pred - power).abs() < 1.0,
            "refit missed by {}",
            pred - power
        );
    }

    #[test]
    fn manual_activation_mid_shadow_retires_score_windows() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        // Huge win requirement: auto-activation can never preempt the
        // manual one this test stages.
        let trainer = Trainer::new(TrainerConfig {
            min_score_samples: 1000,
            ..fast_config()
        });
        for i in 0..10 {
            let (sample, power) = labeled(i, 0.0);
            let resp = trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            assert_eq!(resp.usize_field("scored_active").unwrap(), i + 1);
        }
        // An operator activates a new version while the shadow race is
        // in flight: both rolling windows describe the retired pairing
        // and must not leak into the new one's comparison.
        registry
            .load_and_activate(ModelArtifact::new("hsw", tiny_model()))
            .unwrap();
        let (sample, power) = labeled(10, 0.0);
        let resp = trainer
            .train(&registry, &stats, CORES, &sample, power)
            .unwrap();
        assert_eq!(resp.usize_field("scored_active").unwrap(), 1);
        // The candidate keeps racing — against the *new* active — so
        // its window restarts at this sample's score rather than
        // keeping the pre-activation history.
        assert_eq!(resp.usize_field("scored_shadow").unwrap(), 1);
    }

    #[test]
    fn regressed_manual_activation_rolls_back_within_guard_window() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        for i in 0..8 {
            let (sample, power) = labeled(i, 0.0);
            trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
        }
        // Force a bad activation: same design, intercept off by 50 W.
        let mut bad = tiny_model();
        bad.delta += 50.0;
        registry
            .load_and_activate(ModelArtifact::new("hsw", bad))
            .unwrap();
        assert_eq!(registry.active().unwrap().version, 2);
        let mut rolled_back = false;
        for i in 8..8 + fast_config().guard_window {
            let (sample, power) = labeled(i, 0.0);
            let resp = trainer
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            rolled_back |= resp.field("rolled_back").unwrap().as_bool().unwrap();
        }
        assert!(rolled_back, "guard never fired on a 50 W regression");
        assert_eq!(stats.auto_rollbacks.load(Ordering::Relaxed), 1);
        assert_eq!(stats.shadow_regressed.load(Ordering::Relaxed), 1);
        // Serving is back on the pinned previous version.
        assert_eq!(registry.active().unwrap().version, 1);
    }

    /// Review regression: the guard did not ride the snapshot, so a
    /// crash right after a bad activation silently disarmed the
    /// regression watch — the bad model kept serving with no automatic
    /// rollback. The restored trainer must finish the watch and roll
    /// back within the remaining guard window.
    #[test]
    fn guard_rides_snapshot_and_rolls_back_after_restore() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let snap = armed_guard_snapshot(&registry, &stats);
        assert_guard_rolls_back_after_restore(&snap, &registry, &stats);
    }

    /// Checkpoints written while the fit cached `(XᵀX)⁻¹` carry the
    /// six-word state layout with the inverse after the accumulators.
    /// Restoring one keeps the training section — and so the armed
    /// guard — instead of dropping it.
    #[test]
    fn legacy_fit_layout_restores_armed_guard() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        let mut snap = armed_guard_snapshot(&registry, &stats);
        let (p, n) = (snap.words[0], snap.words[1]);
        snap.words = vec![p, n, 256, 0, 1, 1];
        // The inverse words are shape-checked and otherwise ignored.
        snap.floats
            .extend(std::iter::repeat(0.5).take((p * p) as usize));
        assert_guard_rolls_back_after_restore(&snap, &registry, &stats);
    }

    /// Trains a few labels, then activates a bad model and scores one
    /// label against it — short of the guard window — and snapshots.
    fn armed_guard_snapshot(registry: &ModelRegistry, stats: &ServerStats) -> TrainingSnapshot {
        let trainer = Trainer::new(fast_config());
        for i in 0..8 {
            let (sample, power) = labeled(i, 0.0);
            trainer
                .train(registry, stats, CORES, &sample, power)
                .unwrap();
        }
        // A bad activation arms the guard, which scores one label —
        // short of the guard window — before the "SIGKILL".
        let mut bad = tiny_model();
        bad.delta += 50.0;
        registry
            .load_and_activate(ModelArtifact::new("hsw", bad))
            .unwrap();
        let (sample, power) = labeled(8, 0.0);
        trainer
            .train(registry, stats, CORES, &sample, power)
            .unwrap();
        let snap = trainer.snapshot().unwrap();
        assert!(snap.guard.is_some(), "armed guard must ride the snapshot");
        snap
    }

    /// The restored trainer finishes the guard's watch and rolls back
    /// within the remaining guard window.
    fn assert_guard_rolls_back_after_restore(
        snap: &TrainingSnapshot,
        registry: &ModelRegistry,
        stats: &ServerStats,
    ) {
        let resumed = Trainer::new(fast_config());
        resumed
            .restore(snap, registry.active().as_ref().map(|a| &a.model))
            .unwrap();
        assert_eq!(resumed.snapshot().unwrap().guard, snap.guard);
        let mut rolled_back = false;
        for i in 9..9 + fast_config().guard_window {
            let (sample, power) = labeled(i, 0.0);
            let resp = resumed
                .train(registry, stats, CORES, &sample, power)
                .unwrap();
            if resp.field("rolled_back").unwrap().as_bool().unwrap() {
                // The rollback-triggering label never entered the
                // (reset) fit; the response must not claim it did.
                assert!(!resp.field("accepted").unwrap().as_bool().unwrap());
                rolled_back = true;
            }
        }
        assert!(
            rolled_back,
            "restored guard never fired on a 50 W regression"
        );
        assert_eq!(stats.auto_rollbacks.load(Ordering::Relaxed), 1);
        assert_eq!(registry.active().unwrap().version, 1);
    }

    #[test]
    fn snapshot_restore_resumes_fit_bitwise() {
        let registry = registry_with_tiny();
        let stats = ServerStats::default();
        // No auto-activation: pure fit-resume comparison.
        let config = TrainerConfig {
            min_score_samples: 1000,
            ..fast_config()
        };
        let uninterrupted = Trainer::new(config.clone());
        let killed = Trainer::new(config.clone());
        for i in 0..10 {
            let (sample, power) = labeled(i, 7.5);
            uninterrupted
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            killed
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
        }
        // "SIGKILL": all that survives of `killed` is its snapshot.
        let snap = killed.snapshot().unwrap();
        let resumed = Trainer::new(config);
        resumed
            .restore(&snap, registry.active().as_ref().map(|a| &a.model))
            .unwrap();
        let mut last = (Json::Null, Json::Null);
        for i in 10..18 {
            let (sample, power) = labeled(i, 7.5);
            let a = uninterrupted
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            let b = resumed
                .train(&registry, &stats, CORES, &sample, power)
                .unwrap();
            last = (a, b);
        }
        let (a, b) = last;
        // Bitwise: the restored stream produced the exact coefficient
        // bits of the uninterrupted one.
        assert_ne!(a.field("coef_bits").unwrap(), &Json::Null);
        assert_eq!(a.field("coef_bits").unwrap(), b.field("coef_bits").unwrap());
        assert_eq!(
            uninterrupted.snapshot().unwrap(),
            resumed.snapshot().unwrap()
        );
    }

    #[test]
    fn train_without_active_model_is_a_typed_error() {
        let registry = ModelRegistry::default();
        let stats = ServerStats::default();
        let trainer = Trainer::new(fast_config());
        let (sample, power) = labeled(0, 0.0);
        let err = trainer
            .train(&registry, &stats, CORES, &sample, power)
            .unwrap_err();
        assert!(matches!(err, ServeError::Registry { .. }));
    }
}
