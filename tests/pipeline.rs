//! Cross-crate integration tests: the full acquisition → trace →
//! profile → dataset → model pipeline.

use pmc_cpusim::{Machine, MachineConfig, PhaseContext};
use pmc_events::scheduler::CounterScheduler;
use pmc_events::PapiEvent;
use pmc_model::acquisition::{Campaign, ExperimentPlan};
use pmc_model::dataset::Dataset;
use pmc_model::model::PowerModel;
use pmc_model::selection::select_events;
use pmc_trace::io::{read_trace, trace_to_string};
use pmc_trace::plugin::{PapiPlugin, PowerPlugin, VoltagePlugin};
use pmc_trace::record::TraceMeta;
use pmc_trace::{extract_profiles, merge_runs, Tracer};
use pmc_workloads::{roco2, WorkloadSet};

fn small_machine() -> Machine {
    Machine::new(MachineConfig::haswell_ep(6))
}

fn small_plan() -> ExperimentPlan {
    let set = WorkloadSet::from_workloads(
        roco2::kernels()
            .into_iter()
            .filter(|w| matches!(w.name, "sqrt" | "memory" | "compute"))
            .collect(),
    );
    ExperimentPlan::quick_plan(set, vec![1200, 2400])
}

#[test]
fn full_pipeline_produces_usable_model() {
    let machine = small_machine();
    let profiles = Campaign::new(&machine, small_plan()).run().unwrap();
    // 3 kernels × 5 thread counts × 2 freqs = 30 merged profiles.
    assert_eq!(profiles.len(), 30);
    let data = Dataset::from_profiles(&profiles, machine.config().total_cores()).unwrap();
    assert_eq!(data.len(), 30);

    // Selection finds a memory counter first on this memory-spread set.
    let report = select_events(&data.at_frequency(2400), PapiEvent::ALL, 3).unwrap();
    assert_eq!(report.steps.len(), 3);
    assert!(report.steps[0].r_squared > 0.5);

    // Equation 1 fits well and predicts in-distribution.
    let model = PowerModel::fit(&data, &report.selected_events()).unwrap();
    assert!(model.fit_r_squared > 0.95, "R² {}", model.fit_r_squared);
    let mape = pmc_stats::mape(&data.power(), &model.predict(&data)).unwrap();
    assert!(mape < 10.0, "in-sample MAPE {mape}");
}

#[test]
fn trace_files_roundtrip_through_serialization() {
    let machine = small_machine();
    let group = CounterScheduler::haswell_default()
        .schedule(&[PapiEvent::PRF_DM, PapiEvent::STL_ICY])
        .unwrap()
        .remove(0);
    let tracer = Tracer::new()
        .with_plugin(Box::new(PowerPlugin::default()))
        .with_plugin(Box::new(VoltagePlugin::default()))
        .with_plugin(Box::new(PapiPlugin::new(group)));

    let kernel = &roco2::kernels()[3]; // sqrt
    let phase = &kernel.phases(24)[0];
    let obs = machine.observe(
        &phase.activity,
        &PhaseContext {
            workload_id: kernel.id,
            phase_id: 0,
            run_id: 0,
            threads: 24,
            freq_mhz: 2400,
            duration_s: phase.duration_s,
        },
    );
    let meta = TraceMeta {
        workload_id: kernel.id,
        workload: kernel.name.into(),
        suite: "roco2".into(),
        threads: 24,
        freq_mhz: 2400,
        run_id: 0,
    };
    let mut rng = pmc_cpusim::rng::SplitMix64::new(9);
    let trace = tracer.record_run(meta, &[("main".into(), obs)], &mut rng);

    // Write → read → same profiles.
    let text = trace_to_string(&trace).unwrap();
    let back = read_trace(text.as_bytes()).unwrap();
    assert_eq!(trace, back);
    let p1 = extract_profiles(&trace).unwrap();
    let p2 = extract_profiles(&back).unwrap();
    assert_eq!(p1, p2);
}

#[test]
fn merged_profiles_recover_observation_averages() {
    // Run one experiment manually through all 13 groups and check the
    // merged power equals the mean of the per-run sensor readings.
    let machine = small_machine();
    let kernel = roco2::kernels().remove(5); // memory
    let groups = CounterScheduler::haswell_default()
        .schedule(PapiEvent::ALL)
        .unwrap();
    let phase = &kernel.phases(12)[0];

    let mut all_profiles = Vec::new();
    let mut power_sum = 0.0;
    for (run_id, group) in groups.iter().enumerate() {
        let obs = machine.observe(
            &phase.activity,
            &PhaseContext {
                workload_id: kernel.id,
                phase_id: 0,
                run_id: run_id as u32,
                threads: 12,
                freq_mhz: 2000,
                duration_s: phase.duration_s,
            },
        );
        power_sum += obs.power_measured;
        let tracer = Tracer::new()
            .with_plugin(Box::new(PowerPlugin::default()))
            .with_plugin(Box::new(VoltagePlugin::default()))
            .with_plugin(Box::new(PapiPlugin::new(group.clone())));
        let meta = TraceMeta {
            workload_id: kernel.id,
            workload: kernel.name.into(),
            suite: "roco2".into(),
            threads: 12,
            freq_mhz: 2000,
            run_id: run_id as u32,
        };
        let mut rng = pmc_cpusim::rng::SplitMix64::derive(7, &[run_id as u64]);
        let trace = tracer.record_run(meta, &[("main".into(), obs)], &mut rng);
        all_profiles.extend(extract_profiles(&trace).unwrap());
    }
    let merged = merge_runs(&all_profiles).unwrap();
    assert_eq!(merged.len(), 1);
    let m = &merged[0];
    assert!(m.has_full_coverage());
    assert_eq!(m.runs, 13);
    let mean_power = power_sum / 13.0;
    assert!(
        (m.power_avg - mean_power).abs() < 1e-6,
        "merged {} vs mean {}",
        m.power_avg,
        mean_power
    );
}

#[test]
fn campaign_is_deterministic_under_parallelism() {
    let machine = small_machine();
    let mut serial = small_plan();
    serial.campaign_threads = 1;
    let mut parallel = small_plan();
    parallel.campaign_threads = 8;
    let a = Campaign::new(&machine, serial).run().unwrap();
    let b = Campaign::new(&machine, parallel).run().unwrap();
    assert_eq!(a, b);
}

#[test]
fn model_roundtrips_as_deployable_json() {
    let machine = small_machine();
    let profiles = Campaign::new(&machine, small_plan()).run().unwrap();
    let data = Dataset::from_profiles(&profiles, machine.config().total_cores()).unwrap();
    let events = vec![PapiEvent::PRF_DM, PapiEvent::TOT_CYC];
    let model = PowerModel::fit(&data, &events).unwrap();
    let restored = PowerModel::from_json(&model.to_json().unwrap()).unwrap();
    for row in data.rows() {
        assert!((model.predict_row(row) - restored.predict_row(row)).abs() < 1e-9);
    }
}

#[test]
fn online_prediction_matches_batch_prediction() {
    let machine = small_machine();
    let profiles = Campaign::new(&machine, small_plan()).run().unwrap();
    let data = Dataset::from_profiles(&profiles, machine.config().total_cores()).unwrap();
    let events = vec![PapiEvent::PRF_DM, PapiEvent::REF_CYC, PapiEvent::STL_ICY];
    let model = PowerModel::fit(&data, &events).unwrap();
    for row in data.rows().iter().take(5) {
        let rates: Vec<f64> = model.events.iter().map(|&e| row.rate(e)).collect();
        let online = model
            .predict_raw(&rates, row.voltage, row.freq_mhz)
            .unwrap();
        assert_eq!(online.to_bits(), model.predict_row(row).to_bits());
    }
}
