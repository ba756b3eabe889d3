//! The determinism contract, end to end through the facade: a seeded
//! fleet on lossy links produces the same event trace whatever the
//! worker count, and whatever the process-wide caches already hold.
//!
//! The analysis and program caches are shared by every host in the
//! process, so which host warms them first depends on thread
//! interleaving. Nothing that depends on cache state may reach the
//! replayable trace; hits and misses belong in counters.

use tacoma::core::{AgentSpec, HostEvent, LinkSpec, SystemBuilder};
use tacoma::taxscript::analysis::AnalysisCache;

const PAIRS: usize = 4;
const SEED: u64 = 9;
const LOSS: f64 = 0.25;

/// The walker's source. The marker line keeps its content hash unique
/// to this file, so the first run below starts from a cold cache.
const WALKER: &str = r#"
fn main() {
    display("determinism walker at " + host_name());
    bc_append("SEEN", host_name());
    let next = bc_remove("HOSTS", 0);
    if (next == nil) {
        display("done " + str(bc_len("SEEN")));
        exit(0);
    }
    go(next);
}
"#;

/// Runs disjoint client/server pairs, each walked by one agent, and
/// returns the merged event trace.
fn trace(threads: usize) -> Vec<(String, HostEvent)> {
    let mut b = SystemBuilder::new()
        .seed(SEED)
        .threads(threads)
        .default_link(LinkSpec::lan_100mbit().with_loss(LOSS));
    for i in 0..PAIRS {
        b = b.host(&format!("client{i}")).unwrap();
        b = b.host(&format!("server{i}")).unwrap();
    }
    let mut system = b.trust_all().build();
    for i in 0..PAIRS {
        let spec = AgentSpec::script("walker", WALKER).itinerary([
            format!("tacoma://server{i}/vm_script"),
            format!("tacoma://client{i}/vm_script"),
            format!("tacoma://server{i}/vm_script"),
            format!("tacoma://client{i}/vm_script"),
        ]);
        system.launch(&format!("client{i}"), spec).unwrap();
    }
    assert!(system.run_until_quiet().quiesced());
    system.events()
}

#[test]
fn lossy_fleet_trace_ignores_worker_count_and_cache_warmth() {
    // Cold: the first agent to run compiles the walker, the rest hit.
    let cold_single = trace(1);
    assert!(!cold_single.is_empty());
    // Warm from the run above: every agent hits.
    let warm_multi = trace(4);
    assert_eq!(cold_single, warm_multi, "1 vs 4 workers");

    // Pre-warmed explicitly, as a long-running daemon's cache would be.
    let (verified, _) = AnalysisCache::shared().analyze_source(WALKER);
    assert!(verified.is_ok());
    let prewarmed = trace(4);
    assert_eq!(cold_single, prewarmed, "cold vs pre-warmed caches");
}
