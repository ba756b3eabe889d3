//! The three workloads, the seeded agents they launch, and the checker
//! every homecoming passes through.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use tacoma::briefcase::{folders, Briefcase, Bytes};
use tacoma::core::AgentSpec;
use tacoma::firewall::Message;
use tacoma::security::{Hasher, Principal};

/// Host name of the benchmark's own in-process listener.
pub const HOME: &str = "home";

/// An agent that has not come home this long after its inject is late,
/// and counts as failed.
pub const DEADLINE: Duration = Duration::from_secs(10);

/// Pages the webbot-tour agent carries, and each page's size in bytes.
pub const PAGES: usize = 1024;
pub const PAGE_BYTES: usize = 256;

/// The Figure-4 agent: record the stop, pop `HOSTS`, move on.
/// `TAG` is empty for `relay` and a seeded per-agent function for
/// `durable-door`, so each durable agent carries distinct code.
const RELAY_AGENT: &str = r#"
fn main() {
    bc_append("TRAIL", host_name()TAG);
    let e = bc_remove("HOSTS", 0);
    if (e == nil) { exit(0); }
    if (go(e)) { display("Unable to reach " + e); exit(1); }
}
"#;

/// The §5 Webbot: count this stop's dead links across the carried
/// pages, report them, move on.
const WEBBOT_AGENT: &str = r#"
fn main() {
    let me = host_name();
    let needle = "dead:" + me;
    let n = bc_len("PAGES");
    let dead = 0;
    let i = 0;
    while (i < n) {
        if (contains(bc_get("PAGES", i), needle)) { dead = dead + 1; }
        i = i + 1;
    }
    bc_append("REPORT", me + " " + str(dead));
    let e = bc_remove("HOSTS", 0);
    if (e == nil) { exit(0); }
    if (go(e)) { display("Unable to reach " + e); exit(1); }
}
"#;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small same-code agents, 8 in flight, 10 stops, no journal.
    Relay,
    /// Distinct-code agents, 4 in flight, 10 stops, both daemons journal.
    DurableDoor,
    /// 256 KB page-carrying agents, 1 in flight, 4 stops.
    WebbotTour,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "relay" => Some(Workload::Relay),
            "durable-door" => Some(Workload::DurableDoor),
            "webbot-tour" => Some(Workload::WebbotTour),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Relay => "relay",
            Workload::DurableDoor => "durable-door",
            Workload::WebbotTour => "webbot-tour",
        }
    }

    /// Agents the closed loop keeps in flight.
    pub fn in_flight(self) -> usize {
        match self {
            Workload::Relay => 8,
            Workload::DurableDoor => 4,
            Workload::WebbotTour => 1,
        }
    }

    /// Daemon stops of one itinerary, alternating from `alpha`.
    pub fn stops(self) -> Vec<&'static str> {
        let n = match self {
            Workload::Relay | Workload::DurableDoor => 10,
            Workload::WebbotTour => 4,
        };
        (0..n)
            .map(|i| if i % 2 == 0 { "alpha" } else { "beta" })
            .collect()
    }

    /// Hops of one itinerary: the inject, each daemon-to-daemon `go`,
    /// and the trip home.
    pub fn hops_per_itinerary(self) -> usize {
        self.stops().len() + 1
    }

    /// Whether both daemons run with `--journal-dir`.
    pub fn journaled(self) -> bool {
        self == Workload::DurableDoor
    }
}

/// SplitMix64: the seeded stream behind agent ids, code tags, pages and
/// dead-link placement.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// What a correct homecoming of one agent looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    /// The folder the agent fills at each stop (`TRAIL` or `REPORT`).
    pub folder: &'static str,
    /// That folder's elements, one per stop.
    pub lines: Vec<String>,
    /// How many `PAGES` the agent must still carry.
    pub pages: usize,
}

/// One generated agent, ready to inject into `alpha`.
#[derive(Debug, Clone)]
pub struct Agent {
    /// Seeded id, carried in the `ID` folder.
    pub id: String,
    /// The TaxScript source the agent runs.
    pub source: String,
    /// The encoded agent-transfer message for `alpha`.
    pub frame: Bytes,
    /// What the checker expects back.
    pub expected: Expected,
}

/// Page sets a webbot-tour generator draws its agents' pages from.
const PAGE_SETS: u64 = 8;

/// An agent's inject message minus its `ID`, and what it must bring
/// home.
#[derive(Debug, Clone)]
struct Template {
    source: String,
    message: Message,
    expected: Expected,
}

/// Makes the workload's agents from the seed, one at a time.
///
/// Agents that share code (relay, webbot-tour) are stamped from
/// templates built up front, so making an agent costs little more than
/// encoding its frame; durable-door builds each agent's distinct code
/// afresh.
#[derive(Debug)]
pub struct AgentGen {
    workload: Workload,
    seed: u64,
    next: u64,
    templates: Vec<Template>,
}

impl AgentGen {
    /// A generator for `workload` driven by `seed`; `stream` separates
    /// the agents of different windows within one run.
    pub fn new(workload: Workload, seed: u64, stream: u64) -> AgentGen {
        let seed = seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f);
        let stops = workload.stops();
        let templates = match workload {
            Workload::Relay => {
                let lines = stops.iter().map(|h| (*h).to_owned()).collect();
                vec![template(
                    workload,
                    RELAY_AGENT.replace("TAG", ""),
                    &[],
                    lines,
                )]
            }
            Workload::DurableDoor => Vec::new(),
            Workload::WebbotTour => (0..PAGE_SETS)
                .map(|k| {
                    let mut rng = Rng::new(seed ^ k.wrapping_mul(0x8ebc_6af0_9c88_c6e3));
                    let (pages, dead) = make_pages(&mut rng);
                    let lines = stops
                        .iter()
                        .map(|h| format!("{h} {}", dead.get(h).copied().unwrap_or(0)))
                        .collect();
                    template(workload, WEBBOT_AGENT.to_owned(), &pages, lines)
                })
                .collect(),
        };
        AgentGen {
            workload,
            seed,
            next: 0,
            templates,
        }
    }

    /// The next agent.
    pub fn next_agent(&mut self) -> Agent {
        let index = self.next;
        self.next += 1;
        let mut rng = Rng::new(self.seed ^ index.wrapping_mul(0xe703_7ed1_a0b4_28db));
        let id = format!("a{:016x}", rng.next_u64());
        let distinct;
        let template = if self.workload == Workload::DurableDoor {
            // A seeded tag function makes every agent's code distinct.
            let tag = format!("t{:012x}", rng.next_u64() >> 16);
            let source = format!(
                "fn tag() {{ return \"{tag}\"; }}\n{}",
                RELAY_AGENT.replace("TAG", " + \"#\" + tag()")
            );
            let lines = self
                .workload
                .stops()
                .iter()
                .map(|h| format!("{h}#{tag}"))
                .collect();
            distinct = template(self.workload, source, &[], lines);
            &distinct
        } else {
            &self.templates[rng.below(self.templates.len() as u64) as usize]
        };
        let mut message = template.message.clone();
        message.briefcase.set_single("ID", id.as_str());
        if self.workload.journaled() {
            // Keyed as a hop, so the journaling `alpha` records the
            // inject at its door before acking it.
            let key = hop_key(&message, None);
            message = message.with_hop(key, None);
        }
        Agent {
            id,
            source: template.source.clone(),
            frame: Bytes::from(message.encode()),
            expected: template.expected.clone(),
        }
    }
}

/// The message that injects an agent running `source` and carrying
/// `pages` into `alpha`, `ID` still to be set.
fn template(workload: Workload, source: String, pages: &[String], lines: Vec<String>) -> Template {
    let stops = workload.stops();
    let mut hosts: Vec<String> = stops[1..]
        .iter()
        .map(|h| format!("tacoma://{h}/vm_script"))
        .collect();
    hosts.push(format!("tacoma://{HOME}/vm_script"));
    let mut spec = AgentSpec::script("perfbench", source.clone()).itinerary(hosts);
    if !pages.is_empty() {
        spec = spec.folder("PAGES", pages.iter().map(String::as_str));
    }
    let principal = Principal::new(HOME).expect("static principal name is valid");
    let wire = spec
        .wire_transfer(HOME, &principal, "tacoma://alpha/vm_script")
        .expect("generated agent spec is consistent");
    Template {
        source,
        message: Message::decode(&wire).expect("freshly encoded message decodes"),
        expected: Expected {
            folder: if workload == Workload::WebbotTour {
                "REPORT"
            } else {
                "TRAIL"
            },
            lines,
            pages: pages.len(),
        },
    }
}

/// The kernel's content-derived hop key: parent, sender, target and
/// briefcase payload, each length-prefixed.
pub fn hop_key(message: &Message, parent: Option<&str>) -> String {
    let mut hasher = Hasher::new();
    let to = message.to.to_string();
    for field in [parent.unwrap_or(""), &message.from_host, &to] {
        hasher.update(&(field.len() as u64).to_le_bytes());
        hasher.update(field.as_bytes());
    }
    let payload = message.briefcase.wire_bytes();
    hasher.update(&(payload.len() as u64).to_le_bytes());
    hasher.update(&payload);
    hasher.finalize().short()
}

/// `PAGES` seeded 256-byte HTML pages. A page holds a dead link for a
/// daemon host with probability 1/8 per host, marked `dead:HOST`; the
/// second value counts, per host, the pages that hold one.
pub fn make_pages(rng: &mut Rng) -> (Vec<String>, HashMap<&'static str, usize>) {
    let mut dead: HashMap<&'static str, usize> = HashMap::new();
    let mut pages = Vec::with_capacity(PAGES);
    for p in 0..PAGES {
        let mut page = format!("<html><head><title>p{p:04}</title></head><body>");
        for host in ["alpha", "beta"] {
            if rng.below(8) == 0 {
                *dead.entry(host).or_default() += 1;
                page.push_str(&format!(
                    "<a href=\"http://{host}/gone/{:04}\" class=\"dead:{host}\">x</a>",
                    rng.below(10_000)
                ));
            }
        }
        while page.len() < PAGE_BYTES {
            let host = if rng.below(2) == 0 { "alpha" } else { "beta" };
            page.push_str(&format!(
                "<a href=\"http://{host}/p{:04}\">ok</a>",
                rng.below(10_000)
            ));
        }
        page.truncate(PAGE_BYTES - "</body></html>".len());
        page.push_str("</body></html>");
        pages.push(page);
    }
    (pages, dead)
}

/// Why one homecoming failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The briefcase came back different from the expectation.
    Wrong(String),
    /// The agent came home a second time.
    Duplicate,
    /// The agent came home after [`DEADLINE`].
    Late,
    /// The agent never came home.
    Lost,
    /// A homecoming no launched agent accounts for.
    Stray(String),
}

/// Tracks launched agents and checks each homecoming against its
/// expectation: home exactly once, `HOSTS` empty, `TRAIL`/`REPORT`
/// equal to the stops, pages intact, within [`DEADLINE`].
#[derive(Debug, Default)]
pub struct Checker {
    outstanding: HashMap<String, (Expected, Instant)>,
    done: HashSet<String>,
    /// Agents launched.
    pub launched: u64,
    /// Agents home exactly once and correct, so far.
    pub ok: u64,
    /// Every failure, in the order seen.
    pub failures: Vec<Failure>,
}

impl Checker {
    /// Records a launch.
    pub fn launch(&mut self, agent: &Agent, at: Instant) {
        self.launched += 1;
        self.outstanding
            .insert(agent.id.clone(), (agent.expected.clone(), at));
    }

    /// Agents launched and not yet home.
    pub fn in_flight(&self) -> usize {
        self.outstanding.len()
    }

    /// The oldest launch still in flight.
    pub fn oldest_launch(&self) -> Option<Instant> {
        self.outstanding.values().map(|(_, at)| *at).min()
    }

    /// Checks one homecoming; on success returns the itinerary time.
    pub fn arrive(&mut self, payload: &Bytes, at: Instant) -> Result<Duration, Failure> {
        let verdict = self.judge(payload, at);
        if let Err(failure) = &verdict {
            if *failure == Failure::Duplicate {
                // The first arrival was counted correct; it no longer is.
                self.ok = self.ok.saturating_sub(1);
            }
            self.failures.push(failure.clone());
        } else {
            self.ok += 1;
        }
        verdict
    }

    fn judge(&mut self, payload: &Bytes, at: Instant) -> Result<Duration, Failure> {
        let message = Message::decode_bytes(payload)
            .map_err(|e| Failure::Stray(format!("undecodable: {e}")))?;
        let bc = &message.briefcase;
        let id = folder_lines(bc, "ID")
            .into_iter()
            .next()
            .ok_or_else(|| Failure::Stray("no ID folder".to_owned()))?;
        let Some((expected, launched)) = self.outstanding.remove(&id) else {
            return Err(if self.done.contains(&id) {
                Failure::Duplicate
            } else {
                Failure::Stray(id)
            });
        };
        self.done.insert(id.clone());
        check_briefcase(bc, &expected).map_err(|why| Failure::Wrong(format!("{id}: {why}")))?;
        let took = at.duration_since(launched);
        if took > DEADLINE {
            return Err(Failure::Late);
        }
        Ok(took)
    }

    /// Fails every agent still out and forgets it.
    pub fn give_up(&mut self) {
        for (id, _) in self.outstanding.drain() {
            self.done.insert(id);
            self.failures.push(Failure::Lost);
        }
    }
}

/// Checks a homecoming briefcase against its expectation.
pub fn check_briefcase(bc: &Briefcase, expected: &Expected) -> Result<(), String> {
    let hosts = folder_lines(bc, folders::HOSTS);
    if !hosts.is_empty() {
        return Err(format!("HOSTS not empty: {hosts:?}"));
    }
    let lines = folder_lines(bc, expected.folder);
    if lines != expected.lines {
        return Err(format!(
            "{} is {lines:?}, expected {:?}",
            expected.folder, expected.lines
        ));
    }
    let pages = bc.folder("PAGES").map_or(0, tacoma::briefcase::Folder::len);
    if pages != expected.pages {
        return Err(format!(
            "carries {pages} pages, expected {}",
            expected.pages
        ));
    }
    Ok(())
}

/// A folder's elements as text (non-UTF-8 elements read as empty).
pub fn folder_lines(bc: &Briefcase, folder: &str) -> Vec<String> {
    bc.folder(folder).map_or_else(Vec::new, |f| {
        f.iter()
            .map(|e| e.as_str().unwrap_or_default().to_owned())
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The homecoming a correct agent produces: HOSTS drained, one
    /// line per stop appended.
    fn homecoming(agent: &Agent, lines: &[String]) -> Bytes {
        let mut message = Message::decode(&agent.frame).unwrap();
        let bc = &mut message.briefcase;
        bc.remove_folder(folders::HOSTS);
        for line in lines {
            bc.append(agent.expected.folder, line.as_str());
        }
        Bytes::from(message.encode())
    }

    #[test]
    fn same_seed_same_agents() {
        for workload in [Workload::Relay, Workload::DurableDoor, Workload::WebbotTour] {
            let a = AgentGen::new(workload, 7, 0).next_agent();
            let b = AgentGen::new(workload, 7, 0).next_agent();
            assert_eq!(a.frame, b.frame);
            let c = AgentGen::new(workload, 8, 0).next_agent();
            assert_ne!(a.id, c.id);
        }
    }

    #[test]
    fn durable_agents_carry_distinct_code() {
        let mut gen = AgentGen::new(Workload::DurableDoor, 1, 0);
        assert_ne!(gen.next_agent().source, gen.next_agent().source);
        let mut gen = AgentGen::new(Workload::Relay, 1, 0);
        assert_eq!(gen.next_agent().source, gen.next_agent().source);
    }

    #[test]
    fn pages_are_exactly_sized_and_dead_counts_match() {
        let (pages, dead) = make_pages(&mut Rng::new(3));
        assert_eq!(pages.len(), PAGES);
        assert!(pages.iter().all(|p| p.len() == PAGE_BYTES));
        for host in ["alpha", "beta"] {
            let needle = format!("dead:{host}");
            let counted = pages.iter().filter(|p| p.contains(&needle)).count();
            assert_eq!(counted, dead.get(host).copied().unwrap_or(0));
            assert!(counted > 0);
        }
    }

    #[test]
    fn correct_homecoming_passes_once_then_is_a_duplicate() {
        let agent = AgentGen::new(Workload::Relay, 5, 0).next_agent();
        let mut checker = Checker::default();
        let now = Instant::now();
        checker.launch(&agent, now);
        let home = homecoming(&agent, &agent.expected.lines);
        assert!(checker.arrive(&home, now).is_ok());
        assert_eq!(checker.ok, 1);
        assert_eq!(checker.arrive(&home, now), Err(Failure::Duplicate));
        assert_eq!(checker.ok, 0);
        assert_eq!(checker.failures.len(), 1);
    }

    #[test]
    fn wrong_report_counts_as_failed() {
        let agent = AgentGen::new(Workload::WebbotTour, 5, 0).next_agent();
        let mut checker = Checker::default();
        let now = Instant::now();
        checker.launch(&agent, now);
        let mut lines = agent.expected.lines.clone();
        lines[1] = format!("beta {}", PAGES + 1);
        let home = homecoming(&agent, &lines);
        assert!(matches!(checker.arrive(&home, now), Err(Failure::Wrong(_))));
        assert_eq!(checker.ok, 0);
        assert_eq!(checker.in_flight(), 0);
    }

    #[test]
    fn late_and_lost_agents_fail() {
        let mut gen = AgentGen::new(Workload::Relay, 9, 0);
        let (late, lost) = (gen.next_agent(), gen.next_agent());
        let mut checker = Checker::default();
        let then = Instant::now();
        checker.launch(&late, then);
        checker.launch(&lost, then);
        let home = homecoming(&late, &late.expected.lines);
        let after = then + DEADLINE + Duration::from_millis(1);
        assert_eq!(checker.arrive(&home, after), Err(Failure::Late));
        checker.give_up();
        assert_eq!(checker.failures, vec![Failure::Late, Failure::Lost]);
    }
}
