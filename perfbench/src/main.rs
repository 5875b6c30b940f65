//! Process-level benchmark of `pmc-serve` and `pmc-router`.
//!
//! ```text
//! perfbench --workload agent-stream|fleet-routed|train-mix --seed N
//!           --seconds S --trace 0|1
//! ```
//!
//! One run cold-starts the program several times (campaign, counter
//! selection, fit, artifact, processes up and `readyz`, `hello` and
//! `resume` on both connections), then drives the last start from one
//! generator process through three rounds of three phases: `lo` (open
//! loop, 2 × 20 req/s, jittered), `hi` (open loop, 2 × 1000 req/s) and
//! `burst` (backlogs of 8 pipelined requests per connection). Every
//! reply is checked byte for byte against an in-process replay; program
//! CPU comes from `/proc` (`schedstat` of each thread, or `stat`). With
//! `--trace 1` the run also scrapes the program's counters between
//! phases and times each layer on the run's inputs in-process.
//! `NOTES.md` explains the choices.
//!
//! Idle-class spinners keep the CPUs awake during the phases (see
//! `sched`). The last line of stdout is the result as one JSON object. The
//! program binaries are expected beside this executable.

mod inputs;
mod layers;
mod loadgen;
mod procfs;
mod procs;
mod sched;
mod stats;
mod verify;

use inputs::{
    artifact_events, drifted_dataset, fit_paper_model, FitTimes, Req, Stream, StreamKind,
};
use loadgen::{run_phase, Frames, Load, PhaseRecord};
use pmc_json::Json;
use pmc_router::HashRing;
use pmc_serve::protocol::Request;
use pmc_serve::tokenhash::resume_key;
use pmc_serve::Encoding;
use procs::{call, ok_result, prom_value, Bins, Topology};
use stats::{beyond, median, Summary};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use verify::{Mismatch, Reference};

/// Cold starts per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Per-connection period of the `hi` phase. The 500 µs the design
/// started from put the routed path near saturation on a 2-CPU host,
/// where its p90 moved by 11–110 % (IQR over median, 5 runs) between
/// sets of runs of the same code.
const HI_PERIOD_US: u64 = 1000;
/// Requests in each burst backlog.
const BURST_DEPTH: usize = 8;
/// Burst frames encoded at a time, between backlogs.
const BURST_REFILL: usize = 64;
/// Rounds of the three phases in one run. Each phase runs once per
/// round, so its windows are spread over the whole run and a change in
/// the host's load that lasts some seconds lands in one window of a
/// phase, not in all of it.
const ROUNDS: usize = 3;
/// Slices each `lo` and `hi` window is cut into. Slice metrics are
/// quantiles over the slices of all rounds, so a stall of the host
/// moves a few slices, not the run.
const SLICES: u32 = 6;
/// Slices of a `burst` window: a burst slice must hold enough backlog
/// rounds (about 25) that one round more or less moves its rate by a
/// few percent only.
const BURST_SLICES: u32 = 3;
/// Replies later than this after the window count as lost.
const GRACE: Duration = Duration::from_secs(3);
/// Connection encodings: one JSON, one PMCB1.
const ENCODINGS: [Encoding; 2] = [Encoding::Json, Encoding::Binary];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Two agents directly on one server: the hot path.
    AgentStream,
    /// The same agents through the router and two checkpointing
    /// backends.
    FleetRouted,
    /// Direct; connection A trains with drifted, partly poisoned
    /// labels while connection B streams agent reads.
    TrainMix,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "agent-stream" => Some(Workload::AgentStream),
            "fleet-routed" => Some(Workload::FleetRouted),
            "train-mix" => Some(Workload::TrainMix),
            _ => None,
        }
    }

    fn routed(self) -> bool {
        self == Workload::FleetRouted
    }

    fn streams(self) -> [StreamKind; 2] {
        match self {
            Workload::TrainMix => [StreamKind::Labels, StreamKind::Agent],
            _ => [StreamKind::Agent, StreamKind::Agent],
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let workload = value("--workload")?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds < 4 {
        return Err("--seconds must be at least 4".into());
    }
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// One window of a phase: a phase runs once per round.
#[derive(Debug, Clone, Copy)]
struct PhaseSpec {
    name: &'static str,
    load: Load,
    window: Duration,
    slices: u32,
    /// Leading slices left out of the slice metrics while the program
    /// settles from the previous phase's load; their replies are still
    /// verified. After `lo`, a socket can take more than a second to
    /// fall into the Nagle lock-in of `NOTES.md`.
    warmup: usize,
}

/// The phases of round `round`; a phase's windows over all rounds take
/// its share of the run. `burst` comes before `hi`: a connection that
/// has carried backlogs falls into the Nagle lock-in at the start of
/// `hi`, while a fresh one, straight from `lo` in the first round,
/// stayed out of it for whole windows in 3 of 5 runs.
fn phases(seconds: u64, seed: u64, round: usize) -> [PhaseSpec; 3] {
    let share = |f: f64| Duration::from_secs_f64(seconds as f64 * f / ROUNDS as f64);
    [
        // Jittered: a strictly periodic agent would meet the program's
        // nap cycles at one phase for a whole run, so a run would
        // sample one point of the wake-up distribution, not all of it.
        PhaseSpec {
            name: "lo",
            load: Load::Open {
                period: Duration::from_millis(50),
                jitter: Some(seed.wrapping_add((round as u64) << 32)),
                opening_pair: false,
            },
            window: share(0.4),
            slices: SLICES,
            warmup: 0,
        },
        PhaseSpec {
            name: "burst",
            load: Load::Burst { depth: BURST_DEPTH },
            window: share(0.3),
            slices: BURST_SLICES,
            warmup: 1,
        },
        // Each window opens with a pair of requests per connection, so
        // that a socket of the seed code reaches its steady state under
        // this load, the Nagle lock-in of `NOTES.md`, at once. Left to a
        // chance slow reply, a window could stay out of it throughout.
        PhaseSpec {
            name: "hi",
            load: Load::Open {
                period: Duration::from_micros(HI_PERIOD_US),
                jitter: None,
                opening_pair: true,
            },
            window: share(0.3),
            slices: SLICES,
            warmup: 2,
        },
    ]
}

/// Resume tokens, one per connection, chosen so that behind the router
/// connection `c` is owned by shard `c`: every seed then spreads its
/// agents over the fleet the same way.
fn tokens(seed: u64) -> [String; 2] {
    let ring = HashRing::build([("shard-1", 1), ("shard-2", 1)].into_iter(), |_| true);
    std::array::from_fn(|c| {
        (0..)
            .map(|j| format!("agent-{seed}-{c}-{j}"))
            .find(|t| ring.owner(resume_key(t)) == Some(c))
            .expect("both shards own part of the ring")
    })
}

/// Opens the generator's connections: `hello` for the encoding, then
/// `resume` to bind a durable window.
fn bind(addr: &str, tokens: &[String; 2]) -> Result<Vec<TcpStream>, String> {
    ENCODINGS
        .iter()
        .zip(tokens)
        .map(|(&enc, token)| {
            // Default socket options, as the repository's own client
            // uses: no TCP_NODELAY or TCP_QUICKACK that would hide
            // how the program's sockets behave.
            let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let hello = Request::Hello {
                encoding: enc.as_str().into(),
            };
            ok_result(call(&mut s, &hello, enc)?)?;
            ok_result(call(
                &mut s,
                &Request::Resume {
                    token: token.clone(),
                },
                enc,
            )?)?;
            Ok(s)
        })
        .collect()
}

/// One cold start's stage times.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    total: f64,
    fit: FitTimes,
    ready: f64,
    bind: f64,
}

/// CPU seconds used so far by each of `pids`.
fn cpu_of(pids: &[u32]) -> Vec<f64> {
    pids.iter()
        .map(|&p| procfs::cpu_seconds(p).unwrap_or(0.0))
        .collect()
}

/// Generates `n` more requests of a stream and encodes them.
fn produce(stream: &mut Stream, reqs: &mut Vec<Req>, frames: &mut Frames, n: usize, enc: Encoding) {
    for _ in 0..n {
        let r = stream.next_req();
        frames.push(&r.frame(enc));
        reqs.push(r);
    }
}

/// What one window of a phase measured. `record.marks` samples the
/// CPU seconds of every program process.
struct PhaseRun {
    spec: PhaseSpec,
    round: usize,
    record: PhaseRecord,
    /// Sent requests per connection.
    reqs: Vec<Vec<Req>>,
    /// Counter scrapes (`--trace 1`) before and after, per process.
    scrapes: Option<(Vec<String>, Vec<String>)>,
    /// Verified replies.
    ok: usize,
}

impl PhaseRun {
    /// Percent of one core all program processes used in slice `i`.
    fn slice_cpu_pct(&self, i: usize) -> f64 {
        let (from, to) = (self.record.marks[i].0, self.record.marks[i + 1].0);
        100.0 * self.slice_cpu_s(i) / ((to - from) as f64 / 1e9)
    }

    /// CPU seconds of all program processes during slice `i`.
    fn slice_cpu_s(&self, i: usize) -> f64 {
        let (a, b) = (&self.record.marks[i].1, &self.record.marks[i + 1].1);
        b.iter().zip(a).map(|(x, y)| x - y).sum()
    }

    /// CPU seconds of the processes at `which` (indices into the
    /// sampled pids) over the window, and the window's seconds.
    fn cpu_s(&self, which: &[usize]) -> (f64, f64) {
        let marks = &self.record.marks;
        let (first, last) = (&marks[0], &marks[marks.len() - 1]);
        let cpu: f64 = which.iter().map(|&k| last.1[k] - first.1[k]).sum();
        (cpu, (last.0 - first.0) as f64 / 1e9)
    }

    fn completed(&self) -> usize {
        self.record.conns.iter().map(|c| c.done_ns.len()).sum()
    }

    fn sent(&self) -> usize {
        self.record.conns.iter().map(|c| c.sent()).sum()
    }
}

/// A phase over all rounds: its windows, in round order.
struct Phase<'a> {
    name: &'static str,
    parts: Vec<&'a PhaseRun>,
}

impl<'a> Phase<'a> {
    /// Splits the run's windows by phase, in the order of `phases`.
    fn all(runs: &'a [PhaseRun]) -> [Phase<'a>; 3] {
        std::array::from_fn(|p| Phase {
            name: runs[p].spec.name,
            parts: runs.iter().skip(p).step_by(3).collect(),
        })
    }

    /// Every window with each of its slices after the warm-up.
    fn slices(&self) -> impl Iterator<Item = (&'a PhaseRun, usize)> + '_ {
        self.parts
            .iter()
            .flat_map(|&r| (r.spec.warmup..r.record.slices()).map(move |i| (r, i)))
    }

    /// Median of `f(window, slice)` over the slices of every window
    /// after its warm-up.
    fn slice_median(&self, f: impl Fn(&PhaseRun, usize) -> f64) -> f64 {
        let mut v: Vec<f64> = self.slices().map(|(r, i)| f(r, i)).collect();
        median(&mut v)
    }

    /// Median of `f(window, connection, slice)` over the connections and
    /// the slices after the warm-ups.
    fn cell_median(&self, f: impl Fn(&PhaseRun, usize, usize) -> f64) -> f64 {
        let mut v: Vec<f64> = self
            .slices()
            .flat_map(|(r, i)| (0..r.record.conns.len()).map(move |c| (r, c, i)))
            .map(|(r, c, i)| f(r, c, i))
            .collect();
        median(&mut v)
    }

    /// CPU of the processes at `which` over the phase's windows,
    /// percent of one core.
    fn cpu_pct(&self, which: &[usize]) -> f64 {
        let (cpu, secs) = self
            .parts
            .iter()
            .map(|r| r.cpu_s(which))
            .fold((0.0, 0.0), |(c, s), (dc, ds)| (c + dc, s + ds));
        100.0 * cpu / secs
    }

    /// Latency summary of every answered request.
    fn latency(&self) -> Summary {
        let mut v: Vec<f64> = self
            .parts
            .iter()
            .flat_map(|r| r.record.conns.iter())
            .flat_map(|c| c.latencies_us())
            .collect();
        Summary::of(&mut v)
    }

    /// How late the generator wrote the requests the slice metrics
    /// use: those due after each window's warm-up.
    fn lateness(&self) -> Summary {
        let mut v: Vec<f64> = self
            .slices()
            .flat_map(|(r, i)| r.record.slice_lateness_us(i))
            .collect();
        Summary::of(&mut v)
    }

    fn completed(&self) -> usize {
        self.parts.iter().map(|r| r.completed()).sum()
    }

    fn sent(&self) -> usize {
        self.parts.iter().map(|r| r.sent()).sum()
    }

    fn ok(&self) -> usize {
        self.parts.iter().map(|r| r.ok).sum()
    }
}

fn scrape(topo: &Topology) -> Result<Vec<String>, String> {
    topo.procs().map(|p| p.metrics()).collect()
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.into(),
        // `+ 0.0` turns the -0.0 of an empty float sum into 0.
        value: if value.is_finite() { value + 0.0 } else { 0.0 },
        unit,
        n,
    }
}

fn host_record(args: &Args) -> Json {
    let run = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let flags: Vec<&str> = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|l| {
            l.trim_start_matches([' ', '\t', ':'])
                .split_whitespace()
                .collect()
        })
        .unwrap_or_default();
    let simd: Vec<Json> = ["avx2", "avx512f", "fma"]
        .iter()
        .map(|f| Json::obj(vec![(*f, Json::Bool(flags.contains(f)))]))
        .collect();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_default();
    Json::obj(vec![
        (
            "nproc",
            Json::from(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
        ),
        ("cpu", Json::from(model.as_str())),
        ("simd", Json::Arr(simd)),
        ("rustc", Json::from(run("rustc", &["-V"]).as_str())),
        (
            "profile",
            Json::from(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "kernel",
            Json::from(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        (
            "commit",
            Json::from(run("git", &["--git-dir=.git", "rev-parse", "HEAD"]).as_str()),
        ),
        (
            "workload",
            Json::from(format!("{:?}", args.workload).as_str()),
        ),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
    ])
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--keep-awake") {
        sched::spin_until_stdin_closes();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a reply was wrong.
fn run(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    let bins = Bins {
        serve: bin_dir.join("pmc-serve"),
        router: bin_dir.join("pmc-router"),
    };
    for b in [&bins.serve, &bins.router] {
        if !b.is_file() {
            return Err(format!("{} not built", b.display()));
        }
    }
    let work = PathBuf::from(".bench_work").join(format!("{}-{}", std::process::id(), args.seed));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, &exe, &bins, &work);
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn run_in(args: &Args, exe: &Path, bins: &Bins, work: &Path) -> Result<bool, String> {
    let t_run = Instant::now();
    let progress =
        |what: &str| eprintln!("perfbench: {:7.2} s  {what}", t_run.elapsed().as_secs_f64());
    println!("# host {}", host_record(args));
    let tokens = tokens(args.seed);

    // ---- Cold starts; the last one stays up for the phases. ----
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut live = None;
    let artifact_path = work.join("artifact.json");
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let (artifact, data, fit) = fit_paper_model(args.seed)?;
        std::fs::write(&artifact_path, &artifact).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let topo = Topology::start(bins, args.workload.routed(), &artifact_path, work)?;
        let ready = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let conns = bind(&topo.front.addr, &tokens)?;
        let bind_s = t.elapsed().as_secs_f64();
        setups.push(SetupTimes {
            total: t0.elapsed().as_secs_f64(),
            fit,
            ready,
            bind: bind_s,
        });
        if i + 1 < SETUPS {
            drop(conns);
            topo.stop();
        } else {
            live = Some((topo, conns, artifact, data));
        }
    }
    let (topo, conns, artifact, data) = live.expect("at least one setup");
    progress("cold starts done");

    // ---- Inputs: seeded streams, pre-encoded per phase. ----
    let events = artifact_events(&artifact)?;
    let labels = match args.workload {
        Workload::TrainMix => Some(drifted_dataset(args.seed)?),
        _ => None,
    };
    let mut streams: Vec<Stream> = args
        .workload
        .streams()
        .iter()
        .enumerate()
        .map(|(c, &kind)| {
            let source = match kind {
                StreamKind::Labels => labels.as_ref().expect("train-mix has labels"),
                StreamKind::Agent => &data,
            };
            Stream::new(kind, source, &events, args.seed.wrapping_add(c as u64))
        })
        .collect();

    let pids: Vec<u32> = topo.procs().map(|p| p.pid()).collect();
    let mut runs: Vec<PhaseRun> = Vec::new();
    // The host's vCPU wake-up time would otherwise swamp the program's
    // own wake-up cost and the generator's schedule (see `sched`).
    let awake = sched::KeepAwake::start(exe)?;
    let windows = (0..ROUNDS)
        .flat_map(|round| phases(args.seconds, args.seed, round).map(|spec| (round, spec)));
    for (round, spec) in windows {
        let mut reqs: Vec<Vec<Req>> = vec![Vec::new(); conns.len()];
        let mut frames: Vec<Frames> = vec![Frames::default(); conns.len()];
        if let Load::Open {
            period,
            jitter,
            opening_pair,
        } = spec.load
        {
            let schedule = loadgen::Schedule {
                period_ns: period.as_nanos() as u64,
                conns: conns.len(),
                jitter,
                opening_pair,
            };
            for c in 0..conns.len() {
                let n = schedule.planned(c, spec.window.as_nanos() as u64);
                produce(
                    &mut streams[c],
                    &mut reqs[c],
                    &mut frames[c],
                    n,
                    ENCODINGS[c],
                );
            }
        }
        progress(&format!("phase {} of round {round} starts", spec.name));
        let before = if args.trace {
            Some(scrape(&topo)?)
        } else {
            None
        };
        let mut refill = |c: usize, f: &mut Frames| {
            produce(&mut streams[c], &mut reqs[c], f, BURST_REFILL, ENCODINGS[c]);
        };
        let record = sched::realtime(|| {
            run_phase(
                &conns,
                &mut frames,
                &mut refill,
                spec.load,
                spec.window,
                GRACE,
                spec.slices,
                &mut || cpu_of(&pids),
            )
        });
        let scrapes = match before {
            Some(b) => Some((b, scrape(&topo)?)),
            None => None,
        };
        for (c, rs) in reqs.iter_mut().enumerate() {
            rs.truncate(record.conns[c].sent());
        }
        runs.push(PhaseRun {
            spec,
            round,
            record,
            reqs,
            scrapes,
            ok: 0,
        });
    }
    drop(awake);
    let rss_kb: u64 = pids.iter().filter_map(|&p| procfs::peak_rss_kb(p)).sum();
    let final_scrape = if args.trace {
        Some(scrape(&topo)?)
    } else {
        None
    };
    // Indices into `pids` of the server processes and of the router.
    let index_of = |pid: u32| pids.iter().position(|&p| p == pid).expect("a program pid");
    let servers: Vec<usize> = topo.servers().iter().map(|p| index_of(p.pid())).collect();
    let router: Vec<usize> = topo
        .router()
        .map(|p| index_of(p.pid()))
        .into_iter()
        .collect();
    drop(conns);
    topo.stop();
    progress("program stopped");

    // ---- Verification against the in-process replay. ----
    let reference = Reference::new(&artifact)?;
    let mut ok = vec![0usize; runs.len()];
    let mut exchanges: Vec<(Req, Json)> = Vec::new();
    let mut mismatches: Vec<String> = Vec::new();
    // Labels first: the replayed trainer must have registered every
    // model version an agent reply can name.
    let mut order: Vec<usize> = (0..2).collect();
    order.sort_by_key(|&c| args.workload.streams()[c] != StreamKind::Labels);
    for c in order {
        let key = resume_key(&tokens[c]);
        for (p, run) in runs.iter().enumerate() {
            let rec = &run.record.conns[c];
            for (k, req) in run.reqs[c].iter().enumerate() {
                let reply = rec.replies.get(k).map(Vec::as_slice);
                let (expected, verdict) = reference.check(key, req, reply, ENCODINGS[c]);
                match verdict {
                    Ok(()) => ok[p] += 1,
                    Err(m) => {
                        if mismatches.len() < 5 {
                            mismatches.push(format!(
                                "{} conn {c} #{k}: {}",
                                run.spec.name,
                                describe(&m)
                            ));
                        }
                    }
                }
                if args.trace {
                    exchanges.push((req.clone(), expected));
                }
            }
            if let Some(e) = &rec.error {
                if mismatches.len() < 5 {
                    mismatches.push(format!("{} conn {c}: {e}", run.spec.name));
                }
            }
        }
    }
    for (run, k) in runs.iter_mut().zip(ok) {
        run.ok = k;
    }
    for m in &mismatches {
        println!("# MISMATCH {m}");
    }
    progress("replies verified");

    // ---- End-to-end metrics. ----
    let attempted: usize = runs.iter().map(PhaseRun::sent).sum();
    let verified: usize = runs.iter().map(|r| r.ok).sum();
    let phase_list = Phase::all(&runs);
    let [lo, burst, hi] = &phase_list;
    let all: Vec<usize> = (0..pids.len()).collect();
    // `lo` requests are jittered, so its samples are independent:
    // latency quantiles use all of them, and its CPU is the mean over its
    // windows. `hi` and `burst` can meet host stalls that last a slice:
    // they report medians over the slices of all rounds. `hi` latency
    // takes each connection's quantile in each slice apart: on direct
    // workloads one connection can leave the Nagle lock-in for a while
    // (its latency drops from the period to about 0.1 ms), and a
    // quantile over a slice where one connection is in and one out falls
    // anywhere between the two.
    let cell_pct = |phase: &Phase, q: f64| {
        phase.cell_median(|r, c, i| {
            stats::quantile_of(&mut r.record.conn_slice_latencies_us(c, i), q)
        })
    };
    let hi_cpu = |r: &PhaseRun, i: usize| {
        1e6 * r.slice_cpu_s(i) / r.record.slice_completions(i).0.max(1) as f64
    };
    let rps = |r: &PhaseRun, i: usize| {
        let (n, secs) = r.record.slice_completions(i);
        n as f64 / secs
    };
    let mut setup_total: Vec<f64> = setups.iter().map(|s| s.total).collect();
    let e2e = vec![
        metric("setup_s", median(&mut setup_total), "s", SETUPS),
        metric("lo_p50_us", lo.latency().p50, "us", lo.completed()),
        metric("lo_p90_us", lo.latency().p90, "us", lo.completed()),
        metric("lo_cpu_pct", lo.cpu_pct(&all), "%", lo.completed()),
        metric("hi_p50_us", cell_pct(hi, 0.5), "us", hi.completed()),
        metric("hi_p90_us", cell_pct(hi, 0.9), "us", hi.completed()),
        metric(
            "hi_cpu_us_per_req",
            hi.slice_median(hi_cpu),
            "us",
            hi.completed(),
        ),
        metric(
            "burst_rps",
            burst.slice_median(rps),
            "1/s",
            burst.completed(),
        ),
        metric("rss_mb", rss_kb as f64 * 1024.0 / 1e6, "MB", pids.len()),
        metric(
            "ok_ratio",
            verified as f64 / attempted.max(1) as f64,
            "ratio",
            attempted,
        ),
    ];

    // The generator's own record: a phase it could not keep on
    // schedule measured the generator, not the program.
    let mut valid = true;
    for phase in &phase_list {
        // Writing the p99 request more than a whole period late means
        // the generator fell a slot behind its own schedule.
        let l = phase.lateness();
        let behind = match phase.parts[0].spec.load {
            Load::Open { period, .. } => l.p99 > period.as_secs_f64() * 1e6,
            Load::Burst { .. } => false,
        };
        if behind {
            valid = false;
            println!(
                "# INVALID generator fell behind in {}: late p99 {:.0} us",
                phase.name, l.p99
            );
        }
    }
    for phase in &phase_list {
        let l = phase.latency();
        println!(
            "# phase {:<5} sent {:>6} ok {:>6} failed {:>4}  latency p50 {:.1} p90 {:.1} p99 {:.1} us (n={}, {} beyond p99)  gen late p99 {:.1} us",
            phase.name,
            phase.sent(),
            phase.ok(),
            phase.sent() - phase.ok(),
            l.p50,
            l.p90,
            l.p99,
            l.n,
            beyond(l.n, 0.99),
            phase.lateness().p99,
        );
    }
    for run in &runs {
        let per_slice = |q: f64| -> Vec<String> {
            (0..run.record.slices())
                .map(|i| {
                    format!(
                        "{:.0}",
                        stats::quantile_of(&mut run.record.slice_latencies_us(i), q)
                    )
                })
                .collect()
        };
        let cpu: Vec<String> = (0..run.record.slices())
            .map(|i| format!("{:.1}", run.slice_cpu_pct(i)))
            .collect();
        println!(
            "# slices {:<5} round {} (first {} warm-up) p50 [{}] p90 [{}] us, cpu [{}] %",
            run.spec.name,
            run.round,
            run.spec.warmup,
            per_slice(0.5).join(" "),
            per_slice(0.9).join(" "),
            cpu.join(" ")
        );
    }
    for m in &e2e {
        println!(
            "# metric {:<18} {:>14.3} {:<5} (n={})",
            m.name, m.value, m.unit, m.n
        );
    }
    if !valid {
        println!("# generator record: INVALID run (see above); the program is not charged");
    }

    let mut correct = verified == attempted && mismatches.is_empty();
    let metrics = if args.trace {
        let mut m = Vec::new();
        let setup_med = |f: &dyn Fn(&SetupTimes) -> f64| {
            let mut v: Vec<f64> = setups.iter().map(f).collect();
            median(&mut v)
        };
        m.push(metric(
            "setup.acquire_s",
            setup_med(&|s| s.fit.acquire.as_secs_f64()),
            "s",
            SETUPS,
        ));
        m.push(metric(
            "setup.select_s",
            setup_med(&|s| s.fit.select.as_secs_f64()),
            "s",
            SETUPS,
        ));
        m.push(metric(
            "setup.fit_s",
            setup_med(&|s| s.fit.fit.as_secs_f64()),
            "s",
            SETUPS,
        ));
        m.push(metric(
            "setup.ready_s",
            setup_med(&|s| s.ready),
            "s",
            SETUPS,
        ));
        m.push(metric("setup.bind_s", setup_med(&|s| s.bind), "s", SETUPS));
        for phase in &phase_list {
            let ph = phase.name;
            let (sent, ok) = (phase.sent(), phase.ok());
            m.push(metric(
                format!("gen.late_p99_us.{ph}"),
                phase.lateness().p99,
                "us",
                sent,
            ));
            m.push(metric(format!("gen.sent.{ph}"), sent as f64, "count", 1));
            m.push(metric(format!("gen.ok.{ph}"), ok as f64, "count", 1));
            m.push(metric(
                format!("gen.failed.{ph}"),
                (sent - ok) as f64,
                "count",
                1,
            ));
        }
        m.push(metric(
            "gen.valid",
            if valid { 1.0 } else { 0.0 },
            "bool",
            1,
        ));

        let layer = layers::replay(&layers::Replay {
            artifact_json: &artifact,
            exchanges: &exchanges,
            final_windows: reference.engine(),
            routed: args.workload.routed(),
        })?;
        progress("layer replay done");
        let req_bytes: usize = runs
            .iter()
            .flat_map(|r| r.reqs.iter().enumerate())
            .flat_map(|(c, rs)| rs.iter().map(move |q| q.frame(ENCODINGS[c]).len()))
            .sum();
        let (resp_n, resp_bytes) = runs
            .iter()
            .flat_map(|r| r.record.conns.iter())
            .flat_map(|c| c.replies.iter())
            .fold((0usize, 0usize), |(n, b), r| (n + 1, b + r.len() + 4));
        m.push(metric(
            "codec.encode_ns.json",
            layer.encode_json,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "codec.encode_ns.bin",
            layer.encode_bin,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "codec.decode_ns.json",
            layer.decode_json,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "codec.decode_ns.bin",
            layer.decode_bin,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "codec.req_bytes",
            req_bytes as f64 / attempted.max(1) as f64,
            "B",
            attempted,
        ));
        m.push(metric(
            "codec.resp_bytes",
            resp_bytes as f64 / resp_n.max(1) as f64,
            "B",
            resp_n,
        ));
        m.push(metric(
            "engine.ingest_ns",
            layer.ingest,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "engine.estimate_ns",
            layer.estimate,
            "ns",
            exchanges.len(),
        ));
        m.push(metric(
            "engine.batch2_ns",
            layer.batch2,
            "ns",
            exchanges.len() / 2,
        ));

        // Change of counter `name` over a phase's windows, summed over
        // the processes at `which`.
        let delta = |phase: &Phase, name: &str, which: &[usize]| -> f64 {
            phase
                .parts
                .iter()
                .map(|r| r.scrapes.as_ref().expect("traced runs scrape"))
                .flat_map(|(before, after)| {
                    which
                        .iter()
                        .map(move |&i| prom_value(&after[i], name) - prom_value(&before[i], name))
                })
                .sum()
        };
        for phase in &phase_list {
            let ph = phase.name;
            let dispatched = delta(phase, "pmc_serve_batches_dispatched", &servers);
            let batched = delta(phase, "pmc_serve_batched_requests", &servers);
            m.push(metric(
                format!("batch.fill_mean.{ph}"),
                batched / dispatched.max(1.0),
                "rows",
                dispatched as usize,
            ));
            m.push(metric(
                format!("server.cpu_pct.{ph}"),
                phase.cpu_pct(&servers),
                "%",
                1,
            ));
            let mut self_us: Vec<f64> = phase
                .parts
                .iter()
                .flat_map(|r| r.reqs.iter().enumerate())
                .flat_map(|(c, rs)| rs.iter().map(move |q| (c, q)))
                .map(|(c, q)| layer.self_ns(q, ENCODINGS[c]) / 1e3)
                .collect();
            let latency = phase.latency();
            m.push(metric(
                format!("server.residual_us.{ph}"),
                latency.p50 - median(&mut self_us),
                "us",
                latency.n,
            ));
            m.push(metric(
                format!("router.cpu_pct.{ph}"),
                phase.cpu_pct(&router),
                "%",
                1,
            ));
        }
        let final_scrape = final_scrape.expect("traced runs scrape");
        let total = |name: &str, which: &[usize]| -> f64 {
            which
                .iter()
                .map(|&i| prom_value(&final_scrape[i], name))
                .sum()
        };
        m.push(metric(
            "server.shed",
            total("pmc_serve_requests_shed", &servers),
            "count",
            1,
        ));
        m.push(metric(
            "trainer.train_ns",
            layer.train,
            "ns",
            exchanges.len(),
        ));
        m.push(metric("ols.push_ns", layer.ols_push, "ns", exchanges.len()));
        let counts = [
            ("trainer.accepted", "pmc_serve_train_samples_accepted"),
            ("trainer.quarantined", "pmc_serve_train_samples_quarantined"),
            ("trainer.activations", "pmc_serve_auto_activations"),
            ("trainer.rollbacks", "pmc_serve_auto_rollbacks"),
        ];
        let replayed = reference.train_counts();
        for ((name, series), want) in counts.iter().zip(replayed) {
            let got = total(series, &servers);
            if got != want as f64 {
                correct = false;
                println!("# MISMATCH {name}: program {got}, in-process replay {want}");
            }
            m.push(metric(*name, got, "count", 1));
        }
        let router_total = |name: &str| total(name, &router);
        m.push(metric("ring.owner_ns", layer.ring_owner, "ns", 1000));
        m.push(metric(
            "router.frames_routed",
            router_total("pmc_router_frames_routed"),
            "count",
            1,
        ));
        m.push(metric(
            "router.hedges_fired",
            router_total("pmc_router_hedges_fired"),
            "count",
            1,
        ));
        m.push(metric(
            "router.hedges_won",
            router_total("pmc_router_hedges_won"),
            "count",
            1,
        ));
        m.push(metric(
            "router.windows_replicated",
            router_total("pmc_router_windows_replicated"),
            "count",
            1,
        ));
        m.push(metric(
            "checkpoint.encode_us",
            layer.checkpoint_encode / 1e3,
            "us",
            200,
        ));
        // The traced run's own end-to-end figures; minus the untraced
        // run's, they are the cost of tracing.
        for name in ["lo_p50_us", "hi_p50_us", "burst_rps"] {
            let x = e2e
                .iter()
                .find(|x| x.name == name)
                .expect("an end-to-end metric");
            m.push(metric(format!("traced.{name}"), x.value, x.unit, x.n));
        }
        for x in &m {
            println!(
                "# layer {:<28} {:>14.3} {:<5} (n={})",
                x.name, x.value, x.unit, x.n
            );
        }
        m
    } else {
        e2e
    };

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        attempted - verified,
        body.join(", ")
    );
    Ok(correct)
}

fn describe(m: &Mismatch) -> String {
    match m {
        Mismatch::Missing => "no reply".into(),
        Mismatch::Bytes { expected, got } => format!("expected {expected}, got {got}"),
        Mismatch::Eq1 { engine, eq1 } => format!("engine power_w {engine:e} != Eq. 1 {eq1:e}"),
    }
}
