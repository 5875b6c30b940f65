//! The paper model the program serves and the seeded request streams
//! the generator replays.
//!
//! Every agent replays rows of a simulated acquisition campaign as
//! counter deltas with strictly increasing `time_ns`, so the server's
//! sliding windows slide; every 8th request is an `estimate`. The
//! train-mix label stream replays a campaign on a drifted machine (a
//! constant 40 W more system power), so the online shadow model wins
//! and auto-activation runs, with about 5 % of labels poisoned.

use pmc_cpusim::rng::SplitMix64;
use pmc_cpusim::{Machine, MachineConfig};
use pmc_events::scheduler::CounterScheduler;
use pmc_events::PapiEvent;
use pmc_faults::{LabelPoisoner, PoisonRates};
use pmc_json::Json;
use pmc_model::acquisition::{Campaign, ExperimentPlan};
use pmc_model::dataset::Dataset;
use pmc_model::model::PowerModel;
use pmc_model::selection::select_events;
use pmc_serve::protocol::{encode_frame_as, Request};
use pmc_serve::{CounterSample, Encoding, ModelArtifact};
use std::time::{Duration, Instant};

/// Cores of the simulated machine; `pmc-serve --cores` defaults to it.
pub const TOTAL_CORES: u32 = 24;
/// Counters the paper selects before the VIF blow-up.
const SELECTED_EVENTS: usize = 6;
/// The frequency the paper fixes for counter selection, MHz.
const SELECTION_FREQ_MHZ: u32 = 2400;
/// Spacing of agent timestamps: a 20 Hz telemetry agent.
const SAMPLE_PERIOD_NS: u64 = 50_000_000;
/// System-power drift of the machine the training labels come from.
const LABEL_DRIFT_W: f64 = 40.0;
/// Per-class label poisoning rate; five classes make about 5 %.
const POISON_RATE: f64 = 0.01;

/// Wall time of each stage of the model fit.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitTimes {
    pub acquire: Duration,
    pub select: Duration,
    pub fit: Duration,
}

/// Runs the seeded campaign on the simulated machine.
fn acquire(machine: &Machine) -> Result<Dataset, String> {
    let profiles = Campaign::new(machine, ExperimentPlan::paper_plan())
        .run()
        .map_err(|e| format!("campaign failed: {e}"))?;
    Dataset::from_profiles(&profiles, machine.config().total_cores())
        .map_err(|e| format!("dataset assembly failed: {e}"))
}

/// Acquisition, counter selection, the OLS/HC3 fit and the artifact
/// JSON, timed per stage: the model half of the program's cold start.
/// The selected events are truncated to the largest prefix that fits
/// one counter group, as online serving requires.
pub fn fit_paper_model(seed: u64) -> Result<(String, Dataset, FitTimes), String> {
    let t = Instant::now();
    let data = acquire(&Machine::new(MachineConfig::haswell_ep(seed)))?;
    let acquire_t = t.elapsed();

    let t = Instant::now();
    let report = select_events(
        &data.at_frequency(SELECTION_FREQ_MHZ),
        PapiEvent::ALL,
        SELECTED_EVENTS,
    )
    .map_err(|e| format!("counter selection failed: {e}"))?;
    let mut events = report.selected_events();
    let scheduler = CounterScheduler::haswell_default();
    while !events.is_empty() && scheduler.validate_single_run(&events).is_err() {
        events.pop();
    }
    let select_t = t.elapsed();

    let t = Instant::now();
    let model = PowerModel::fit(&data, &events).map_err(|e| format!("model fit failed: {e}"))?;
    let artifact = ModelArtifact::new("paper", model)
        .to_json()
        .map_err(|e| format!("artifact encoding failed: {e}"))?;
    let times = FitTimes {
        acquire: acquire_t,
        select: select_t,
        fit: t.elapsed(),
    };
    Ok((artifact, data, times))
}

/// The campaign the training labels come from: another machine seed
/// with a constant system-power drift.
pub fn drifted_dataset(seed: u64) -> Result<Dataset, String> {
    let mut cfg = MachineConfig::haswell_ep(seed ^ 0xd41f_7000);
    cfg.power_weights.system += LABEL_DRIFT_W;
    acquire(&Machine::new(cfg))
}

/// One generated request, kept beside its encoded frame so replies
/// can be replayed against the in-process reference.
#[derive(Debug, Clone, PartialEq)]
pub enum Req {
    Ingest(CounterSample),
    Estimate(u64),
    Train(CounterSample, f64),
}

impl Req {
    /// The wire request.
    pub fn request(&self) -> Request {
        match self {
            Req::Ingest(s) => Request::Ingest(s.clone()),
            Req::Estimate(now_ns) => Request::Estimate { now_ns: *now_ns },
            Req::Train(s, power_w) => Request::Train {
                sample: s.clone(),
                power_w: *power_w,
            },
        }
    }

    /// The request as one length-prefixed frame.
    pub fn frame(&self, enc: Encoding) -> Vec<u8> {
        encode_frame_as(&self.request().to_json_value(), enc)
            .expect("generated requests are far below the frame cap")
    }
}

/// A campaign row as a wire sample (without its timestamp) plus its
/// measured power.
#[derive(Debug, Clone)]
struct Row {
    sample: CounterSample,
    power_w: f64,
}

fn rows_of(data: &Dataset, events: &[PapiEvent]) -> Vec<Row> {
    data.rows()
        .iter()
        .map(|r| {
            let avail = TOTAL_CORES as f64 * r.freq_mhz as f64 * 1e6 * r.duration_s;
            Row {
                sample: CounterSample {
                    time_ns: 0,
                    duration_s: r.duration_s,
                    freq_mhz: r.freq_mhz,
                    voltage: r.voltage,
                    deltas: events.iter().map(|&e| r.rate(e) * avail).collect(),
                    missing: Vec::new(),
                },
                power_w: r.power,
            }
        })
        .collect()
}

/// What a connection streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// `ingest` samples with an `estimate` every 8th request.
    Agent,
    /// Labeled `train` samples, some poisoned.
    Labels,
}

/// An endless seeded request stream for one connection.
pub struct Stream {
    kind: StreamKind,
    rows: Vec<Row>,
    rng: SplitMix64,
    poisoner: LabelPoisoner,
    index: u64,
    last_time_ns: u64,
}

impl Stream {
    /// A stream over `data`'s rows, with samples shaped for `events`.
    pub fn new(kind: StreamKind, data: &Dataset, events: &[PapiEvent], seed: u64) -> Self {
        Stream {
            kind,
            rows: rows_of(data, events),
            rng: SplitMix64::derive(seed, &[kind as u64]),
            poisoner: LabelPoisoner::new(seed, PoisonRates::uniform(POISON_RATE)),
            index: 0,
            last_time_ns: 0,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        self.index += 1;
        if self.kind == StreamKind::Agent && self.index.is_multiple_of(8) {
            return Req::Estimate(self.last_time_ns);
        }
        let row = &self.rows[self.rng.below(self.rows.len())];
        let mut sample = row.sample.clone();
        sample.time_ns = self.index * SAMPLE_PERIOD_NS;
        self.last_time_ns = sample.time_ns;
        match self.kind {
            StreamKind::Agent => Req::Ingest(sample),
            StreamKind::Labels => {
                let mut power_w = row.power_w;
                self.poisoner.corrupt_labeled(
                    &mut sample.deltas,
                    &mut sample.voltage,
                    &mut power_w,
                    &[self.index],
                );
                Req::Train(sample, power_w)
            }
        }
    }
}

/// The events of a served artifact.
pub fn artifact_events(artifact_json: &str) -> Result<Vec<PapiEvent>, String> {
    let artifact = ModelArtifact::from_json_value(
        &Json::parse(artifact_json).map_err(|e| format!("artifact JSON: {e}"))?,
    )
    .map_err(|e| format!("artifact: {e}"))?;
    Ok(artifact.model.events.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        let machine = Machine::new(MachineConfig::haswell_ep(3));
        acquire(&machine).unwrap()
    }

    #[test]
    fn agent_stream_is_seeded_and_time_ordered() {
        let data = tiny();
        let events = [PapiEvent::TOT_CYC, PapiEvent::PRF_DM];
        let mut a = Stream::new(StreamKind::Agent, &data, &events, 9);
        let mut b = Stream::new(StreamKind::Agent, &data, &events, 9);
        let mut last = 0;
        for i in 1..=64u64 {
            let (x, y) = (a.next_req(), b.next_req());
            assert_eq!(x, y, "same seed, same inputs");
            match x {
                Req::Estimate(now) => {
                    assert_eq!(i % 8, 0);
                    assert_eq!(now, last);
                }
                Req::Ingest(s) => {
                    assert!(s.time_ns > last);
                    assert_eq!(s.deltas.len(), 2);
                    last = s.time_ns;
                }
                Req::Train(..) => panic!("agents do not train"),
            }
        }
        let mut c = Stream::new(StreamKind::Agent, &data, &events, 10);
        let differs = (0..16).any(|_| a.next_req() != c.next_req());
        assert!(differs, "another seed, other inputs");
    }

    #[test]
    fn label_stream_poisons_a_few_labels() {
        let data = tiny();
        let events = [PapiEvent::TOT_CYC];
        let mut s = Stream::new(StreamKind::Labels, &data, &events, 4);
        let poisoned = (0..2000)
            .filter(|_| match s.next_req() {
                Req::Train(_, p) => !(p.is_finite() && p > 0.0 && p < 2000.0),
                _ => panic!("label streams only train"),
            })
            .count();
        assert!(poisoned > 0 && poisoned < 100, "{poisoned} of 2000");
    }
}
