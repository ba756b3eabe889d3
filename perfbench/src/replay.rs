//! The per-layer replay: each recorded agent is walked through its
//! itinerary in-process, calling each layer's public functions on the
//! frames the daemons handled, with a span around every call.
//!
//! Every daemon stop is one `hop` span whose children are the calls a
//! daemon makes on that hop's blocking path: `firewall.route_inbound`
//! (frame decode, authentication, admission), `taxscript.analyze` (the
//! launch-time compile through a per-host analysis cache, as `vm_script`
//! does), `taxscript.run`, `briefcase.reencode`, and, when the workload
//! journals,
//! `security.hop_key` and the three `journal.*` records. Calls that
//! stand for a layer in isolation (`briefcase.decode`, the analysis
//! cache miss and hit, `core.hop_inproc`, and the journal calls on a
//! workload that does not journal) are root spans of their own.

use std::path::Path;
use std::time::{Duration, Instant};

use tacoma::briefcase::{Briefcase, Bytes};
use tacoma::core::{SimTime, SystemBuilder, TaxSystem};
use tacoma::firewall::{Decision, Firewall, Message};
use tacoma::journal::{Journal, JournalConfig};
use tacoma::security::{Policy, Principal, Rights, TrustStore};
use tacoma::taxscript::analysis::AnalysisCache;
use tacoma::taxscript::{compile_source, GoDecision, HostHooks, Outcome, Vm, DEFAULT_FUEL};
use tacoma::uri::AgentUri;

use crate::daemon::RunDir;
use crate::trace::Tracer;
use crate::workload::{check_briefcase, hop_key, Agent, Workload};

/// Replay stops starting new agents after this long (one agent always
/// runs).
const BUDGET: Duration = Duration::from_secs(2);

/// Filling the in-process event log stops after this long.
const FILL_BUDGET: Duration = Duration::from_secs(4);

/// Entries of each replay host's analysis cache: enough to hold every
/// replayed agent's code, as the daemons' shared cache does.
const ANALYSIS_CAPACITY: usize = 256;

/// Timed `TaxSystem::events()` calls once the log is full.
const SNAPSHOTS: usize = 5;

/// Totals of a replay; the timings are in the tracer.
#[derive(Debug, Default)]
pub struct Replayed {
    /// VM instructions executed per stop.
    pub fuel: Vec<f64>,
    /// Size of each replayed frame in bytes.
    pub wire_bytes: Vec<f64>,
    /// Launch-time analysis-cache lookups, and how many hit.
    pub analysis_lookups: u64,
    /// See [`Replayed::analysis_lookups`].
    pub analysis_hits: u64,
    /// Events the in-process log held when `events()` was timed.
    pub events_reached: u64,
    /// First mismatch between a replayed homecoming and its
    /// expectation, if any.
    pub mismatch: Option<String>,
}

/// Hooks for replaying a daemon stop: `go` always succeeds (the VM
/// stops with `Moved`), `host_name` is the stop.
struct StubHooks {
    host: &'static str,
}

impl HostHooks for StubHooks {
    fn display(&mut self, _text: &str) {}
    fn go(&mut self, _uri: &str, _briefcase: &Briefcase) -> GoDecision {
        GoDecision::Moved
    }
    fn spawn(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<String> {
        None
    }
    fn activate(&mut self, _uri: &str, _briefcase: &Briefcase) -> bool {
        false
    }
    fn meet(&mut self, _uri: &str, _briefcase: &Briefcase) -> Option<Briefcase> {
        None
    }
    fn await_bc(&mut self, _timeout_ms: i64) -> Option<Briefcase> {
        None
    }
    fn now_ms(&mut self) -> i64 {
        0
    }
    fn host_name(&mut self) -> String {
        self.host.to_owned()
    }
}

/// One daemon host's in-process stand-ins.
struct Stand {
    name: &'static str,
    firewall: Firewall,
    journal: Journal,
    system: TaxSystem,
    cache: AnalysisCache,
}

impl Stand {
    fn new(name: &'static str, dir: &Path) -> Result<Stand, String> {
        // As `HostBuilder` sets up a host: trusting policy, the local
        // system principal with every right, one script VM.
        let mut policy = Policy::trusting();
        policy.grant(Principal::local_system(name), Rights::ALL);
        let mut firewall = Firewall::new(name, 0, policy, TrustStore::new());
        firewall.add_vm("vm_script");
        let (journal, _) = Journal::open(
            dir.join(format!("journal-{name}")),
            JournalConfig::default(),
        )
        .map_err(|e| format!("replay journal: {e}"))?;
        let system = SystemBuilder::new()
            .host(name)
            .map_err(|e| e.to_string())?
            .build();
        Ok(Stand {
            name,
            firewall,
            journal,
            system,
            cache: AnalysisCache::new(ANALYSIS_CAPACITY),
        })
    }
}

/// Replays `agents` (in order, within [`BUDGET`]) and then times
/// `TaxSystem::events()` once the log holds `event_target` events.
pub fn replay(
    workload: Workload,
    agents: &[Agent],
    dir: &RunDir,
    event_target: u64,
    tracer: &mut Tracer,
) -> Result<Replayed, String> {
    let mut stands = [
        Stand::new("alpha", dir.path())?,
        Stand::new("beta", dir.path())?,
    ];
    let mut out = Replayed::default();
    let started = Instant::now();
    for (n, agent) in agents.iter().enumerate() {
        if n > 0 && started.elapsed() > BUDGET {
            break;
        }
        replay_agent(workload, agent, &mut stands, tracer, &mut out)?;
    }
    fill_and_snapshot(&mut stands[0], agents, event_target, tracer, &mut out)?;
    Ok(out)
}

fn replay_agent(
    workload: Workload,
    agent: &Agent,
    stands: &mut [Stand; 2],
    tracer: &mut Tracer,
    out: &mut Replayed,
) -> Result<(), String> {
    let program = compile_source(&agent.source).map_err(|e| e.to_string())?;
    let journaled = workload.journaled();
    let mut frame = agent.frame.clone();
    for (i, host) in workload.stops().into_iter().enumerate() {
        let stand = stands
            .iter_mut()
            .find(|s| s.name == host)
            .expect("stops are daemon hosts");
        let label = format!("{}/{i}", agent.id);
        let message = Message::decode_bytes(&frame).map_err(|e| e.to_string())?;
        // Frames between daemons that do not journal carry no hop key;
        // the journal calls then key the hop as a journaling daemon would.
        let key = message
            .hop
            .clone()
            .unwrap_or_else(|| hop_key(&message, None));
        let parent = message.hop_parent.clone();

        let hop = tracer.begin("hop", None, &label);
        let on_path = journaled.then_some(hop);
        let decision = tracer.time("firewall.route_inbound", Some(hop), &label, || {
            stand
                .firewall
                .route_inbound_wire_bytes(&frame, SimTime::ZERO)
        });
        if !matches!(decision, Ok(Decision::InstallAgent { .. })) {
            return Err(format!(
                "replay at {host}: firewall did not install: {decision:?}"
            ));
        }
        let cache = &stand.cache;
        let (_, hit) = tracer.time("taxscript.analyze", Some(hop), &label, || {
            cache.analyze_source(&agent.source)
        });
        out.analysis_lookups += 1;
        out.analysis_hits += u64::from(hit);
        let mut bc = message.briefcase.clone();
        let mut vm = Vm::new(&program, StubHooks { host });
        let outcome = tracer.time("taxscript.run", Some(hop), &label, || vm.run(&mut bc));
        let Ok(Outcome::Moved { to }) = outcome else {
            return Err(format!("replay at {host}: agent did not move: {outcome:?}"));
        };
        out.fuel.push((DEFAULT_FUEL - vm.fuel_remaining()) as f64);
        tracer.time("briefcase.reencode", Some(hop), &label, || bc.wire_bytes());

        let target: AgentUri = to.parse().map_err(|e| format!("{to}: {e}"))?;
        let next = Message::transfer(host, message.from_principal.clone(), target, bc, false);
        let next_key = tracer.time("security.hop_key", on_path, &label, || {
            hop_key(&next, Some(&key))
        });
        let next = if journaled {
            next.with_hop(next_key.clone(), Some(key.clone()))
        } else {
            next
        };
        let next_frame = Bytes::from(next.encode());
        let journal = &stand.journal;
        tracer
            .time("journal.door", on_path, &label, || {
                journal.begin_inbound_hop(&key, parent.as_deref(), &frame)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("journal.hop_begin", on_path, &label, || {
                journal.hop_begin(&next_key, Some(&key), false, &to, &next_frame)
            })
            .map_err(|e| e.to_string())?;
        tracer
            .time("journal.hop_commit", on_path, &label, || {
                journal.hop_committed(&key)
            })
            .map_err(|e| e.to_string())?;
        tracer.end(hop);

        // The layers in isolation.
        let wire = message.briefcase.wire_bytes();
        tracer
            .time("briefcase.decode", None, &label, || {
                Briefcase::decode_bytes(&wire)
            })
            .map_err(|e| e.to_string())?;
        let cold = AnalysisCache::new(4);
        let _ = tracer.time("taxscript.analyze_miss", None, &label, || {
            cold.analyze_source(&agent.source)
        });
        let _ = tracer.time("taxscript.analyze_hit", None, &label, || {
            stand.cache.analyze_source(&agent.source)
        });
        let system = &mut stand.system;
        tracer
            .time("core.hop_inproc", None, &label, || {
                system
                    .inject_wire_bytes(host, &frame)
                    .map(|()| system.run_until_quiet())
            })
            .map_err(|e| e.to_string())?;

        out.wire_bytes.push(frame.len() as f64);
        frame = next_frame;
    }
    // What is left is the trip home: it must match the expectation.
    let home = Message::decode_bytes(&frame).map_err(|e| e.to_string())?;
    if let Err(why) = check_briefcase(&home.briefcase, &agent.expected) {
        out.mismatch
            .get_or_insert(format!("replayed {}: {why}", agent.id));
    }
    Ok(())
}

/// Grows `stand`'s event log to `target` events by re-injecting the
/// agents' first frames (within [`FILL_BUDGET`]), then times
/// `TaxSystem::events()`.
fn fill_and_snapshot(
    stand: &mut Stand,
    agents: &[Agent],
    target: u64,
    tracer: &mut Tracer,
    out: &mut Replayed,
) -> Result<(), String> {
    let started = Instant::now();
    let mut len = stand.system.events().len() as u64;
    let mut round = 0usize;
    while len < target && started.elapsed() < FILL_BUDGET && !agents.is_empty() {
        // Check the length only now and then: each check is itself a
        // full snapshot.
        for _ in 0..64 {
            let frame = &agents[round % agents.len()].frame;
            round += 1;
            stand
                .system
                .inject_wire_bytes(stand.name, frame)
                .map_err(|e| e.to_string())?;
            stand.system.run_until_quiet();
        }
        len = stand.system.events().len() as u64;
    }
    out.events_reached = len;
    for _ in 0..SNAPSHOTS {
        let system = &stand.system;
        tracer.time("core.events_snapshot", None, "events", || {
            system.events().len()
        });
    }
    Ok(())
}
