//! Sustained load soak: the loadgen drives mixed-lane pipelined traffic
//! with the chaos thread attacking the connection layer the whole time.
//!
//! Ignored by default (it is a soak, not a unit test). CI runs it with a
//! small request count:
//!
//! ```text
//! COSTREAM_SOAK_REQUESTS=20000 cargo test -p costream-front -- --ignored
//! ```

use costream::prelude::*;
use costream::test_fixtures;
use costream_front::loadgen;
use costream_front::{FrontConfig, Frontend};
use costream_serve::ServeConfig;

#[test]
#[ignore = "soak test: run explicitly (COSTREAM_SOAK_REQUESTS to size it)"]
fn sustained_mixed_lane_load_with_faults_holds_up() {
    let requests: u64 = std::env::var("COSTREAM_SOAK_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000);

    let corpus = test_fixtures::corpus(24, 7);
    let cfg = TrainConfig {
        epochs: 2,
        batch_size: 16,
        ..Default::default()
    };
    let ensemble = Ensemble::train(&corpus, CostMetric::Throughput, &cfg, 1);
    let pool: Vec<JointGraph> = corpus.items.iter().map(|i| i.graph(ensemble.featurization())).collect();

    let mut serve = ServeConfig::default();
    serve.workers = serve.workers.max(1);
    let front = Frontend::start(
        ensemble,
        FrontConfig {
            shards: 2,
            serve,
            ..FrontConfig::default()
        },
    )
    .expect("bind");

    let report = loadgen::run(front.addr(), &pool, requests);

    // Every measured request got exactly one typed answer.
    for (name, lane) in [("interactive", &report.interactive), ("bulk", &report.bulk)] {
        let answered = lane.ok + lane.overloaded + lane.shed + lane.other_errors;
        assert_eq!(answered, lane.sent, "{name}: every request answered exactly once");
        assert_eq!(lane.other_errors, 0, "{name}: no untyped/internal errors under chaos");
        assert!(lane.ok > 0, "{name}: some requests must be scored");
    }
    // The chaos thread really ran — the numbers above held *while*
    // malformed frames, oversized headers and mid-frame disconnects
    // landed continuously.
    assert!(report.chaos_rounds > 0, "fault injection must have run");

    let stats = front.stats();
    assert!(stats.bad_requests > 0, "chaos malformed frames were seen");
    assert!(stats.oversized > 0, "chaos oversized headers were seen");
    assert!(stats.disconnects > 0, "chaos mid-frame disconnects were seen");
    for shard in &stats.shards {
        assert_eq!(shard.failed, 0, "no internal failures under soak");
    }

    let drain = front.shutdown(std::time::Duration::from_secs(30));
    assert!(drain.drained, "soak front-end must drain cleanly");

    eprintln!(
        "soak: {} requests in {:.2?}; interactive p50={}µs p99={}µs shed={}; bulk p50={}µs p99={}µs shed={}; chaos rounds={}",
        requests,
        report.elapsed,
        report.interactive.p50_ns / 1_000,
        report.interactive.p99_ns / 1_000,
        report.interactive.shed,
        report.bulk.p50_ns / 1_000,
        report.bulk.p99_ns / 1_000,
        report.bulk.shed,
        report.chaos_rounds,
    );
}
