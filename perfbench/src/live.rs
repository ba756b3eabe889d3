//! The closed loop: keep the workload's agents in flight through the
//! daemons for one timed window, checking every homecoming.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tacoma::briefcase::Bytes;

use crate::daemon::Cluster;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Agent, AgentGen, Checker, Failure, Workload, DEADLINE};

/// How often the loop checks that both daemons are still running.
const LIVENESS_EVERY: Duration = Duration::from_millis(100);

/// Agents of the window kept for the per-layer replay.
const KEEP_FOR_REPLAY: usize = 64;

/// Daemon CPU and progress at one instant of the window.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Both daemons' CPU time, in clock ticks.
    pub cpu_ticks: u64,
    /// Hops completed so far.
    pub hops: u64,
}

/// What one timed window measured.
#[derive(Debug)]
pub struct Window {
    /// Length of the timed window.
    pub seconds: f64,
    /// Hops of agents that came home correct within the window.
    pub hops: u64,
    /// Itinerary times of every correct agent launched in the window.
    pub itinerary_ms: Vec<f64>,
    /// Agents launched.
    pub attempted: u64,
    /// Agents that did not come home exactly once, correct and in time.
    pub failures: Vec<Failure>,
    /// Both daemons' `VmHWM`, summed, at the end of the window (KiB).
    pub peak_rss_kb: u64,
    /// Samples at the start, each quarter, and the end of the window.
    pub samples: Vec<Sample>,
    /// The first agents launched, for the replay.
    pub agents: Vec<Agent>,
}

/// Bookkeeping of one window: the checker plus what gets reported.
struct Run<'a> {
    workload: Workload,
    gen: &'a mut AgentGen,
    checker: Checker,
    tracer: Option<&'a mut Tracer>,
    spans: HashMap<String, SpanId>,
    agents: Vec<Agent>,
    itinerary_ms: Vec<f64>,
    hops: u64,
    /// End of the timed window.
    end: Instant,
}

impl Run<'_> {
    /// Makes the next agent and injects it. Making it first keeps the
    /// generator off the CPU while agents travel.
    fn launch(&mut self, cluster: &mut Cluster) -> Result<(), String> {
        let agent = self.gen.next_agent();
        let at = Instant::now();
        self.checker.launch(&agent, at);
        match self.tracer.as_deref_mut() {
            Some(t) => {
                let root = t.begin_at("itinerary", None, &agent.id, at);
                self.spans.insert(agent.id.clone(), root);
                let ack = t.begin_at("transport.send_payload", Some(root), &agent.id, at);
                cluster.send(&agent)?;
                t.end(ack);
            }
            None => cluster.send(&agent)?,
        }
        if self.agents.len() < KEEP_FOR_REPLAY {
            self.agents.push(agent);
        }
        Ok(())
    }

    /// Checks one homecoming. A correct agent adds an itinerary
    /// sample; its hops count if it came home within the timed window.
    fn arrive(&mut self, payload: &Bytes) {
        let at = Instant::now();
        if let Ok(took) = self.checker.arrive(payload, at) {
            self.itinerary_ms.push(took.as_secs_f64() * 1e3);
            if at <= self.end {
                self.hops += self.workload.hops_per_itinerary() as u64;
            }
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            if let Some(span) = homecoming_id(payload).and_then(|id| self.spans.remove(&id)) {
                t.end(span);
            }
        }
    }
}

/// Runs the closed loop for `seconds`, then waits for the agents still
/// out. With a tracer, each agent gets an `itinerary` span (inject to
/// homecoming) with a `transport.send_payload` child (inject to ack).
pub fn run_window(
    cluster: &mut Cluster,
    workload: Workload,
    gen: &mut AgentGen,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Window, String> {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut run = Run {
        workload,
        gen,
        checker: Checker::default(),
        tracer,
        spans: HashMap::new(),
        agents: Vec::new(),
        itinerary_ms: Vec::new(),
        hops: 0,
        end,
    };
    let mut samples = Vec::with_capacity(5);
    for _ in 0..workload.in_flight() {
        run.launch(cluster)?;
    }
    let quarter = Duration::from_secs_f64(seconds / 4.0);
    let mut next_sample = start;
    let mut next_liveness = start;
    loop {
        let now = Instant::now();
        if now >= next_sample && samples.len() < 4 {
            samples.push(sample(cluster, run.hops));
            next_sample += quarter;
        }
        if now >= next_liveness {
            cluster.check_alive()?;
            next_liveness = now + LIVENESS_EVERY;
        }
        if now >= end {
            break;
        }
        let wait = end
            .min(next_sample)
            .min(next_liveness)
            .saturating_duration_since(now);
        let Ok(inbound) = cluster.home.incoming().recv_timeout(wait) else {
            continue;
        };
        run.arrive(&inbound.payload);
        while run.checker.in_flight() < workload.in_flight() && Instant::now() < end {
            run.launch(cluster)?;
        }
    }
    samples.push(sample(cluster, run.hops));
    let peak_rss_kb = cluster.daemons().iter().map(|d| d.peak_rss_kb()).sum();

    // Drain: every launched agent must still come home, within its
    // deadline, and is checked like the rest.
    while let Some(oldest) = run.checker.oldest_launch() {
        let now = Instant::now();
        if now >= oldest + DEADLINE {
            run.checker.give_up();
            break;
        }
        cluster.check_alive()?;
        let wait = (oldest + DEADLINE - now).min(LIVENESS_EVERY);
        if let Ok(inbound) = cluster.home.incoming().recv_timeout(wait) {
            run.arrive(&inbound.payload);
        }
    }
    for failure in run.checker.failures.iter().take(5) {
        eprintln!("perfbench: {} agent failed: {failure:?}", workload.name());
    }
    Ok(Window {
        seconds,
        hops: run.hops,
        itinerary_ms: run.itinerary_ms,
        attempted: run.checker.launched,
        failures: run.checker.failures,
        peak_rss_kb,
        samples,
        agents: run.agents,
    })
}

fn sample(cluster: &Cluster, hops: u64) -> Sample {
    Sample {
        cpu_ticks: cluster.daemons().iter().map(|d| d.cpu_ticks()).sum(),
        hops,
    }
}

/// The `ID` of a homecoming, when it decodes.
fn homecoming_id(payload: &Bytes) -> Option<String> {
    let message = tacoma::firewall::Message::decode_bytes(payload).ok()?;
    crate::workload::folder_lines(&message.briefcase, "ID")
        .into_iter()
        .next()
}
