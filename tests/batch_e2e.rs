//! End-to-end tests for how `pmc-serve` workers take queued requests,
//! one job per dequeue: pipelined requests on one connection must come
//! back in request order, requests that outlive the queue deadline
//! must be shed with a typed `overloaded` frame before they execute,
//! and one bad row queued among clean neighbours must degrade only its
//! own request.

use pmc_serve::protocol::{read_frame, unwrap_response, write_frame, Request};
use pmc_serve::registry::ModelRegistry;
use pmc_serve::server::{PowerServer, ServerConfig};
use pmc_serve::{CounterSample, Estimate, PowerClient, ServeError};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// A tiny servable model fit on a synthetic linear dataset, same
/// recipe as the overload e2e suite.
fn tiny_model() -> pmc_model::model::PowerModel {
    let events = vec![
        pmc_events::PapiEvent::PRF_DM,
        pmc_events::PapiEvent::TOT_CYC,
    ];
    let rows: Vec<_> = (0..24)
        .map(|i| pmc_model::dataset::SampleRow {
            workload_id: i as u32,
            workload: format!("w{i}"),
            suite: "syn".into(),
            phase: "main".into(),
            threads: 24,
            freq_mhz: [1200, 1600, 2000, 2400][i % 4],
            duration_s: 1.0,
            voltage: 0.8 + 0.05 * (i % 4) as f64,
            power: 70.0 + 3.0 * (i as f64),
            rates: (0..pmc_events::PapiEvent::COUNT)
                .map(|j| ((i * 13 + j * 7) % 41) as f64 / 4100.0)
                .collect(),
        })
        .collect();
    let data = pmc_model::dataset::Dataset::from_rows(rows);
    pmc_model::model::PowerModel::fit(&data, &events).unwrap()
}

/// A well-formed two-event sample; `k` varies the counter deltas so
/// successive samples are distinguishable.
fn sample(time_ns: u64, k: u64) -> CounterSample {
    let freq_mhz = 2000u32;
    let duration_s = 0.25;
    let avail = 24.0 * freq_mhz as f64 * 1e6 * duration_s;
    CounterSample {
        time_ns,
        duration_s,
        freq_mhz,
        voltage: 0.85,
        deltas: vec![
            (0.001 + 0.0001 * (k % 7) as f64) * avail,
            (0.4 + 0.01 * (k % 5) as f64) * avail,
        ],
        missing: vec![],
    }
}

#[test]
fn pipelined_requests_on_one_connection_answer_in_order() {
    const DEPTH: u64 = 12;
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let mut admin = PowerClient::connect(server.addr()).unwrap();
    admin.load_model("hsw", &tiny_model(), true).unwrap();

    // Write all frames before reading anything back: the echoed
    // `time_ns` values prove responses arrive in request order even
    // with two workers taking jobs.
    let mut c = TcpStream::connect(server.addr()).unwrap();
    for i in 1..=DEPTH {
        write_frame(&mut c, &Request::Ingest(sample(i, i)).to_json_value()).unwrap();
    }
    for i in 1..=DEPTH {
        let frame = read_frame(&mut c).unwrap().expect("server closed early");
        let est = Estimate::from_json_value(&unwrap_response(frame).unwrap()).unwrap();
        assert_eq!(est.time_ns, i, "response {i} out of order");
        assert_eq!(est.samples_in_window as u64, i.min(8));
    }
    server.shutdown();
}

#[test]
fn stale_requests_are_shed_with_typed_overload_not_batched() {
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 16,
        max_inflight: 16,
        queue_deadline: Some(Duration::from_millis(30)),
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let addr = server.addr();
    let mut admin = PowerClient::connect(addr).unwrap();
    admin.load_model("hsw", &tiny_model(), true).unwrap();

    // Hold the lone worker well past the queue deadline while ingests
    // pile up behind it.
    let mut holder = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut holder,
        &Request::Ping { delay_ms: 150 }.to_json_value(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(40));

    let handles: Vec<_> = (0..6u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = PowerClient::connect(addr).unwrap();
                c.ingest(&sample(i + 1, i))
            })
        })
        .collect();
    let mut shed = 0usize;
    for h in handles {
        match h.join().expect("client panicked") {
            Ok(est) => assert!(est.power_w.is_finite()),
            Err(ServeError::Overloaded { retry_after_ms }) => {
                assert!(retry_after_ms > 0, "shed must carry a backoff hint");
                shed += 1;
            }
            Err(other) => panic!("expected typed overload, got {other}"),
        }
    }
    let _ = read_frame(&mut holder);

    let stats = server.stats();
    assert!(shed >= 1, "deadline-expired requests must be shed");
    assert_eq!(stats.requests_shed.load(Ordering::Relaxed), shed as u64);
    server.shutdown();
}

#[test]
fn one_bad_row_in_a_coalesced_batch_degrades_only_itself() {
    const NEIGHBORS: usize = 4;
    let cfg = ServerConfig {
        workers: 1,
        queue_depth: 16,
        max_inflight: 16,
        ..ServerConfig::default()
    };
    let mut server = PowerServer::start(cfg, Arc::new(ModelRegistry::default())).unwrap();
    let addr = server.addr();
    let mut admin = PowerClient::connect(addr).unwrap();
    admin.load_model("hsw", &tiny_model(), true).unwrap();

    // Queue the whole group behind a held worker so they run back to
    // back: NEIGHBORS clean rows plus one with an unreadable counter
    // (declared missing, no history to substitute from).
    let mut holder = TcpStream::connect(addr).unwrap();
    write_frame(
        &mut holder,
        &Request::Ping { delay_ms: 120 }.to_json_value(),
    )
    .unwrap();
    std::thread::sleep(Duration::from_millis(30));

    let bad = std::thread::spawn(move || {
        let mut c = PowerClient::connect(addr).unwrap();
        let mut s = sample(99, 0);
        s.missing = vec![0];
        c.ingest(&s)
    });
    let neighbors: Vec<_> = (0..NEIGHBORS as u64)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = PowerClient::connect(addr).unwrap();
                c.ingest(&sample(i + 1, i))
            })
        })
        .collect();

    let bad_est = bad.join().unwrap().expect("bad row still gets an estimate");
    assert!(bad_est.degraded, "unreadable counter must flag degradation");
    assert!(
        bad_est
            .degraded_reasons
            .iter()
            .any(|r| r.starts_with("no_history:")),
        "degradation reason must be machine-readable, got {:?}",
        bad_est.degraded_reasons
    );
    for h in neighbors {
        let est = h.join().unwrap().unwrap();
        assert!(!est.degraded, "a neighbor inherited the bad row's fault");
        assert!(est.degraded_reasons.is_empty());
    }
    let _ = read_frame(&mut holder);

    let stats = server.stats();
    assert_eq!(stats.degraded_estimates.load(Ordering::Relaxed), 1);
    server.shutdown();
}
