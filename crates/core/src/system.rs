//! [`TaxSystem`]: a whole simulated deployment, with a deterministic
//! scheduler.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::RwLock;
use tacoma_briefcase::{folders, Briefcase};
use tacoma_firewall::Message;
use tacoma_security::{Keyring, Principal};
use tacoma_simnet::{LinkSpec, MessageBus, Network, SimClock, SimTime, Topology};
use tacoma_uri::AgentAddress;

use crate::agent::AgentSpec;
use crate::event::{EventKind, HostEvent};
use crate::hooks::Kernel;
use crate::host::{AgentTask, HostBuilder, TaxHost};
use crate::sched::{
    batch_seed, DeferredSimTransport, RunOutcome, SystemLog, SystemLogHandle, TaskScope, WorkerPool,
};
use crate::TaxError;

/// Hard cap on scheduler steps per [`TaxSystem::run_until_quiet`] call —
/// a backstop against agent ping-pong loops.
const MAX_STEPS: usize = 1_000_000;

/// A callback run at the top of every scheduler step, before messages are
/// pumped, with the shared network and the current global virtual time.
///
/// This is the attachment point for scenario event tracks: a hook applies
/// every due topology mutation (churn, partitions, link degradation)
/// between ticks, so within a tick all hosts see one consistent topology
/// and the trace stays worker-count invariant.
pub type StepHook = Box<dyn FnMut(&Network, SimTime) + Send>;

/// Ticks with at most this many queued tasks run inline on the scheduler
/// thread even in multi-threaded mode. Fanning out a couple of tasks can
/// at best overlap one of them, which is less than the cost of boxing the
/// jobs and crossing the pool's channels twice — the typical shape of a
/// message ping-pong tick.
const TICK_INLINE_THRESHOLD: usize = 2;

/// Builds a [`TaxSystem`].
pub struct SystemBuilder {
    hosts: Vec<HostBuilder>,
    default_link: LinkSpec,
    links: Vec<(String, String, LinkSpec)>,
    seed: u64,
    trust_all: bool,
    transport: Option<Arc<dyn tacoma_transport::Transport>>,
    threads: usize,
    cores_override: Option<usize>,
}

impl std::fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("hosts", &self.hosts)
            .field("seed", &self.seed)
            .field("trust_all", &self.trust_all)
            .field("transport", &self.transport.as_ref().map(|t| t.kind()))
            .finish_non_exhaustive()
    }
}

impl SystemBuilder {
    /// An empty deployment with the paper's 100 Mbit LAN as the default
    /// link.
    pub fn new() -> Self {
        SystemBuilder {
            hosts: Vec::new(),
            default_link: LinkSpec::lan_100mbit(),
            links: Vec::new(),
            seed: 1,
            trust_all: false,
            transport: None,
            threads: 0,
            cores_override: None,
        }
    }

    /// Adds a host with default configuration.
    ///
    /// # Errors
    ///
    /// [`TaxError::Net`] on an invalid host name.
    pub fn host(mut self, name: &str) -> Result<Self, TaxError> {
        self.hosts.push(HostBuilder::new(name)?);
        Ok(self)
    }

    /// Adds a fully configured host.
    pub fn host_with(mut self, builder: HostBuilder) -> Self {
        self.hosts.push(builder);
        self
    }

    /// Sets the link used by host pairs without an explicit one.
    pub fn default_link(mut self, link: LinkSpec) -> Self {
        self.default_link = link;
        self
    }

    /// Sets a specific link between two hosts.
    pub fn link(mut self, a: &str, b: &str, link: LinkSpec) -> Self {
        self.links.push((a.to_owned(), b.to_owned(), link));
        self
    }

    /// Seeds the network's loss randomness (and the system keyrings).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates a system keyring per host and cross-installs all
    /// verification keys: every host trusts every other host's system
    /// principal (one administrative domain, the paper's deployment).
    pub fn trust_all(mut self) -> Self {
        self.trust_all = true;
        self
    }

    /// Overrides the outbound transport. Defaults to the in-process
    /// simnet bus; `taxd` installs a [`ReactorTransport`] here so the
    /// same kernel ships messages over real sockets.
    ///
    /// [`ReactorTransport`]: tacoma_transport::ReactorTransport
    pub fn transport(mut self, transport: Arc<dyn tacoma_transport::Transport>) -> Self {
        self.transport = Some(transport);
        self
    }

    /// Selects the scheduler. `0` (the default) is the classic
    /// one-task-per-step sequential scheduler; `n >= 1` enables the
    /// bulk-synchronous tick scheduler with `n` worker threads, which
    /// drains *every* ready host's task batch each step. A tick run is
    /// deterministic across worker counts: the same seed produces the
    /// same event trace with 1 or N threads (see `docs/scheduler.md`).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Overrides the detected core count used to clamp tick fan-out.
    ///
    /// By default the tick scheduler never runs more workers than
    /// `std::thread::available_parallelism()` reports — oversubscribing a
    /// small machine makes the tick barrier slower, never faster. Tests
    /// (and benchmarks characterizing fan-out overhead) use this to force
    /// the pooled path on machines with few cores. The event trace is
    /// identical either way.
    pub fn scheduler_cores(mut self, cores: usize) -> Self {
        self.cores_override = Some(cores.max(1));
        self
    }

    /// Builds the system.
    pub fn build(self) -> TaxSystem {
        let mut topology = Topology::new(self.default_link);
        for hb in &self.hosts {
            topology.add_host(hb.name().clone());
        }
        for (a, b, link) in &self.links {
            if let (Ok(a), Ok(b)) = (
                tacoma_simnet::HostId::new(a.clone()),
                tacoma_simnet::HostId::new(b.clone()),
            ) {
                topology.set_link(&a, &b, *link);
            }
        }
        let net = Arc::new(Network::new(topology, self.seed));
        let bus = MessageBus::new(Arc::clone(&net));

        let mut hosts = BTreeMap::new();
        let mut keyrings = BTreeMap::new();

        let built: Vec<TaxHost> = self.hosts.into_iter().map(HostBuilder::build).collect();

        if self.trust_all {
            for (i, host) in built.iter().enumerate() {
                let system = Principal::local_system(host.name());
                let keyring = Keyring::generate(&system, self.seed.wrapping_add(i as u64));
                keyrings.insert(host.name().to_owned(), keyring);
            }
            for host in &built {
                host.with_firewall(|fw| {
                    for keyring in keyrings.values() {
                        fw.trust_mut().trust(keyring.public());
                    }
                });
            }
        }

        let log = Arc::new(SystemLog::new());
        for host in built {
            let inbox = bus.register(host.host_id().clone());
            host.set_inbox(inbox);
            hosts.insert(host.name().to_owned(), host);
        }
        // Host indices follow directory (BTreeMap) order — the same
        // order every scheduler phase iterates in.
        for (idx, host) in hosts.values().enumerate() {
            let _ = host.core.log.set(SystemLogHandle {
                log: Arc::clone(&log),
                host_idx: idx as u32,
            });
        }

        let directory = Arc::new(RwLock::new(hosts));
        let transport = self
            .transport
            .unwrap_or_else(|| Arc::new(DeferredSimTransport::new(bus.clone(), Arc::clone(&net))));
        TaxSystem {
            kernel: Kernel {
                directory,
                net,
                transport,
            },
            keyrings,
            log,
            bus,
            seed: self.seed,
            threads: self.threads,
            cores_override: self.cores_override,
            tick: 0,
            pool: None,
            scope_cache: Vec::new(),
            step_hooks: Vec::new(),
        }
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::new()
    }
}

/// What a boot-time journal recovery restored (see
/// [`TaxSystem::recover_journal`] and `docs/journal.md`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoverySummary {
    /// Intact journal records scanned.
    pub records_scanned: u64,
    /// Whether a torn segment tail was truncated away.
    pub torn_tail: bool,
    /// Parked messages restored into the pending queue.
    pub reparked: usize,
    /// Inbound open hops whose agent was re-installed.
    pub resumed_inbound: usize,
    /// Outbound open hops whose frame was re-shipped.
    pub resumed_outbound: usize,
    /// Entries that could not be restored this boot (undecodable park,
    /// unreachable re-ship target, failed checkpoint); they remain in the
    /// journal for the next attempt.
    pub failed: usize,
}

/// A running deployment: hosts, network, and the deterministic scheduler.
pub struct TaxSystem {
    kernel: Kernel,
    keyrings: BTreeMap<String, Keyring>,
    log: Arc<SystemLog>,
    bus: MessageBus,
    seed: u64,
    threads: usize,
    cores_override: Option<usize>,
    tick: u64,
    pool: Option<WorkerPool>,
    /// Scopes recycled across ticks: resetting one is equivalent to
    /// allocating fresh, but keeps the send-buffer capacity warm.
    scope_cache: Vec<Arc<TaskScope>>,
    step_hooks: Vec<StepHook>,
}

impl TaxSystem {
    /// The host with the given name.
    pub fn host(&self, name: &str) -> Option<TaxHost> {
        self.kernel.host(name)
    }

    /// All host names, sorted.
    pub fn host_names(&self) -> Vec<String> {
        self.kernel.directory.read().keys().cloned().collect()
    }

    /// The simulated network (stats, fault injection, clock).
    pub fn network(&self) -> Arc<Network> {
        Arc::clone(&self.kernel.net)
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> SimClock {
        self.kernel.net.clock().clone()
    }

    /// The system keyring generated for a host by
    /// [`SystemBuilder::trust_all`], if any.
    pub fn keyring(&self, host: &str) -> Option<&Keyring> {
        self.keyrings.get(host)
    }

    /// The transport outbound messages ship over.
    pub fn transport(&self) -> Arc<dyn tacoma_transport::Transport> {
        Arc::clone(&self.kernel.transport)
    }

    /// Routes a wire-encoded message that arrived from outside the
    /// process (a frame a [`TransportListener`] accepted over TCP) into
    /// `host_name`'s firewall, exactly as a simnet envelope would be.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    ///
    /// [`TransportListener`]: tacoma_transport::TransportListener
    pub fn inject_wire(&mut self, host_name: &str, payload: &[u8]) -> Result<(), TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        self.kernel.process_wire(&host, payload);
        Ok(())
    }

    /// As [`TaxSystem::inject_wire`], but the payload is a shared buffer
    /// (e.g. a frame read once off a TCP socket) routed zero-copy: the
    /// firewall decodes briefcase contents straight out of it.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn inject_wire_bytes(
        &mut self,
        host_name: &str,
        payload: &bytes::Bytes,
    ) -> Result<(), TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        self.kernel.process_wire_bytes(&host, payload);
        Ok(())
    }

    /// Retries transport delivery of messages parked in `host_name`'s
    /// pending queue for remote hosts. Returns `(delivered, reparked)`.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn redeliver_remote_pending(
        &mut self,
        host_name: &str,
    ) -> Result<(usize, usize), TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let now = self.kernel.now();
        let transport = Arc::clone(&self.kernel.transport);
        Ok(host.with_firewall(|fw| fw.redeliver_remote_pending(now, &*transport)))
    }

    /// Settles completions from a nonblocking transport into `host_name`'s
    /// firewall: acked ships are counted and their hops committed, failed
    /// ships are parked for the redelivery sweep. Returns the number of
    /// completions settled. A no-op (returns 0) on blocking transports.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn pump_transport(&mut self, host_name: &str) -> Result<usize, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let now = self.kernel.now();
        let transport = Arc::clone(&self.kernel.transport);
        Ok(host.with_firewall(|fw| fw.pump_transport(now, &*transport)))
    }

    /// Frames `host_name` handed to a nonblocking transport whose
    /// completion has not been pumped yet. Daemons drain this to zero (or
    /// a deadline) before exiting so in-flight sends are settled.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    pub fn transport_inflight(&self, host_name: &str) -> Result<usize, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        Ok(host.with_firewall_read(tacoma_firewall::Firewall::transport_inflight))
    }

    /// Installs a user keyring's verification key on every host.
    pub fn trust_everywhere(&self, keyring: &Keyring) {
        for host in self.kernel.directory.read().values() {
            host.with_firewall(|fw| {
                fw.trust_mut().trust(keyring.public());
            });
        }
    }

    /// Launches an agent on a host; returns its address.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] or spec/install failures.
    #[allow(clippy::needless_pass_by_value)] // a spec describes exactly one launch; taking it keeps call sites builder-shaped
    pub fn launch(&mut self, host_name: &str, spec: AgentSpec) -> Result<AgentAddress, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let local_system = host.with_firewall_read(|fw| fw.local_system().clone());
        let principal = spec.resolve_principal(&local_system);
        let briefcase = spec.build_briefcase(&principal)?;
        let instance = host.with_firewall(tacoma_firewall::Firewall::allocate_instance);
        let address = AgentAddress::new(principal.as_str(), spec.name(), instance);
        self.kernel
            .install(&host, spec.target_vm(), address.clone(), briefcase, None)?;
        Ok(address)
    }

    /// Attaches a durable journal to `host_name` and replays its
    /// recovered state: parked mail re-enters the pending queue with
    /// deadlines recomputed against the current clock, inbound open hops
    /// re-install their agent, and outbound open hops re-ship their
    /// frame. Finishes with a checkpoint so the next boot replays only
    /// what this one could not finish.
    ///
    /// Call once at daemon boot, after services are installed and before
    /// the scheduler starts.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] when the host is not in this process.
    /// Individual hop/park failures are counted in the summary, not
    /// returned: an unreachable peer must not stop the boot.
    pub fn recover_journal(
        &mut self,
        host_name: &str,
        journal: &Arc<tacoma_journal::Journal>,
        replay: &tacoma_journal::Replay,
    ) -> Result<RecoverySummary, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        host.attach_journal(Arc::clone(journal));
        let now = self.kernel.now();
        let mut summary = RecoverySummary {
            records_scanned: replay.records_scanned,
            torn_tail: replay.torn_tail,
            ..RecoverySummary::default()
        };

        host.with_firewall(|fw| {
            fw.stats_mut().journal_replayed = replay.records_scanned;
            for parked in &replay.parked {
                match Message::decode_bytes(&parked.wire) {
                    Ok(message) => {
                        fw.replay_park(
                            message,
                            now,
                            std::time::Duration::from_nanos(parked.timeout_nanos),
                            parked.key,
                        );
                        summary.reparked += 1;
                    }
                    Err(_) => summary.failed += 1,
                }
            }
        });

        let transport = Arc::clone(&self.kernel.transport);
        for hop in &replay.open_hops {
            if hop.inbound {
                // The agent arrived and was acked but never finished its
                // work here: decode and route the preserved frame as if it
                // had just landed. `process_wire_bytes` records any
                // rejection as a host event rather than failing the boot.
                self.kernel.process_wire_bytes(&host, &hop.wire);
                summary.resumed_inbound += 1;
            } else {
                match host.with_firewall(|fw| fw.replay_ship_hop(hop, &*transport)) {
                    Ok(()) => summary.resumed_outbound += 1,
                    // The hop stays open in the journal; the next boot (or
                    // a redelivery pass) retries. Nothing is lost.
                    Err(_) => summary.failed += 1,
                }
            }
        }

        if journal.checkpoint().is_err() {
            // Replay next boot is merely longer, not incorrect.
            summary.failed += 1;
        }
        Ok(summary)
    }

    /// Sends an admin command (`list`, `runtime`, `stop`, `resume`,
    /// `kill`) to a host's firewall on behalf of `principal`, returning
    /// the reply.
    ///
    /// # Errors
    ///
    /// Firewall denials and admin errors.
    pub fn admin(
        &mut self,
        host_name: &str,
        principal: &Principal,
        command: &str,
        args: &[&str],
    ) -> Result<Briefcase, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let mut request = Briefcase::new();
        request.set_single(folders::COMMAND, command);
        for a in args {
            request.append(folders::ARGS, *a);
        }
        let message = Message::deliver(
            host.name(),
            principal.clone(),
            None,
            tacoma_firewall::FIREWALL_AGENT_NAME.parse()?,
            request,
        );
        let now = self.kernel.now();
        let decision = host.with_firewall(|fw| fw.route_outbound(message, now))?;
        match decision {
            tacoma_firewall::Decision::Admin { reply, control } => {
                self.kernel.apply_admin(&host, reply.clone(), control, 0);
                Ok(reply)
            }
            other => Err(TaxError::BadAgentSpec {
                detail: format!("admin produced unexpected decision {other:?}"),
            }),
        }
    }

    /// Calls a service agent on a host directly (tooling path — e.g. an
    /// operator fetching a parked report from `ag_cabinet`). The call is
    /// authorized as `principal` with its authenticated rights.
    ///
    /// # Errors
    ///
    /// [`TaxError::UnknownHost`] / [`TaxError::BadAgentSpec`] when the
    /// host or service does not exist.
    pub fn call_service(
        &mut self,
        host_name: &str,
        service_name: &str,
        principal: &Principal,
        mut request: Briefcase,
    ) -> Result<Briefcase, TaxError> {
        let host = self.host(host_name).ok_or_else(|| TaxError::UnknownHost {
            host: host_name.to_owned(),
        })?;
        let service = host
            .service(service_name)
            .ok_or_else(|| TaxError::BadAgentSpec {
                detail: format!("no service {service_name:?} on {host_name}"),
            })?;
        let rights = host.with_firewall_read(|fw| fw.rights_of(principal, true));
        Ok(self.kernel.run_service(
            &host,
            service.as_ref(),
            &mut request,
            principal.clone(),
            rights,
            0,
        ))
    }

    /// How many scheduler worker threads this system uses (`0` = the
    /// classic sequential scheduler).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Switches scheduler mode after build (e.g. `taxd --threads N`).
    /// See [`SystemBuilder::threads`].
    pub fn set_threads(&mut self, n: usize) {
        if n != self.threads {
            self.threads = n;
            self.pool = None; // Rebuilt at the right size on next use.
        }
    }

    /// Performs one unit of scheduler work. Returns whether anything
    /// happened.
    ///
    /// In the default sequential mode this drains arrived messages on
    /// every host, then executes at most one queued agent task. In tick
    /// mode ([`SystemBuilder::threads`]) it runs one bulk-synchronous
    /// tick: pump every inbox, execute *every* ready host's task batch
    /// (concurrently across hosts), then flush deferred sends and advance
    /// the global clock to the tick's makespan.
    pub fn step(&mut self) -> bool {
        self.run_step_hooks();
        if self.threads == 0 {
            self.step_sequential()
        } else {
            self.step_tick()
        }
    }

    /// Registers a [`StepHook`] run at the top of every subsequent step.
    ///
    /// Hooks fire on the scheduler thread before the message pump, in
    /// registration order, in both scheduler modes — mutations they make
    /// depend only on the global clock sequence, so determinism across
    /// worker counts is preserved.
    pub fn add_step_hook(&mut self, hook: StepHook) {
        self.step_hooks.push(hook);
    }

    fn run_step_hooks(&mut self) {
        if self.step_hooks.is_empty() {
            return;
        }
        let now = self.kernel.net.clock().now();
        for hook in &mut self.step_hooks {
            hook(&self.kernel.net, now);
        }
    }

    fn step_sequential(&mut self) -> bool {
        let mut worked = false;

        // Phase 1: message delivery, every host, deterministic order.
        let host_names = self.host_names();
        for name in &host_names {
            let Some(host) = self.host(name) else {
                continue;
            };
            if self.kernel.pump_inbox(&host) > 0 {
                worked = true;
            }
        }

        // Phase 2: run one agent task (first host in order with work).
        for name in &host_names {
            let Some(host) = self.host(name) else {
                continue;
            };
            if let Some(task) = host.pop_task() {
                self.kernel.run_task(&host, task);
                worked = true;
                break;
            }
        }
        worked
    }

    /// The worker count actually worth using this tick: the configured
    /// thread count clamped to the machine's parallelism. Running more
    /// workers than cores makes the tick barrier slower, never faster —
    /// every extra worker is pure handoff and contention.
    fn effective_threads(&self) -> usize {
        let cores = self.cores_override.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        self.threads.min(cores)
    }

    fn step_tick(&mut self) -> bool {
        let hosts: Vec<TaxHost> = self.kernel.directory.read().values().cloned().collect();

        // Phase 1: message delivery, every host, deterministic order, on
        // the global clock (exactly the sequential scheduler's pump).
        let mut worked = false;
        for host in &hosts {
            if self.kernel.pump_inbox(host) > 0 {
                worked = true;
            }
        }

        // Phase 2: snapshot one task batch per host. The host is the unit
        // of parallelism — its tasks run FIFO on its own forked clock.
        // Scopes are recycled from previous ticks; a reset scope is
        // indistinguishable from a fresh one, so recycling cannot affect
        // the trace.
        let now = self.kernel.net.clock().now();
        let tick = self.tick;
        self.tick += 1;
        let mut scope_pool = std::mem::take(&mut self.scope_cache);
        let mut total_tasks = 0;
        let mut batches: Vec<(TaxHost, Vec<AgentTask>, Arc<TaskScope>)> = Vec::new();
        for (idx, host) in hosts.iter().enumerate() {
            let tasks = host.drain_tasks();
            if tasks.is_empty() {
                continue;
            }
            total_tasks += tasks.len();
            let seed = batch_seed(self.seed, idx as u64, tick);
            let scope = loop {
                match scope_pool.pop() {
                    // A straggling worker may still hold a transient
                    // reference from last tick's closure; such a scope is
                    // discarded rather than raced on.
                    Some(s) if Arc::strong_count(&s) == 1 => {
                        s.reset(now, seed);
                        break s;
                    }
                    Some(_) => continue,
                    None => break TaskScope::new(now, seed),
                }
            };
            batches.push((host.clone(), tasks, scope));
        }
        if batches.is_empty() {
            self.scope_cache = scope_pool;
            return worked;
        }

        // Execute. Fan out only when it can actually help: several
        // batches, more than one usable core, and enough queued work to
        // amortize the handoffs; otherwise run inline on this thread —
        // identical semantics, no pool traffic.
        let effective = self.effective_threads();
        let fan_out = batches.len() > 1 && effective > 1 && total_tasks > TICK_INLINE_THRESHOLD;
        if !fan_out {
            for (host, tasks, scope) in &mut batches {
                run_batch(&self.kernel, host, std::mem::take(tasks), scope);
            }
        } else {
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(effective));
            let done = pool.done_sender();
            let mut submitted = 0;
            for (host, tasks, scope) in batches.iter_mut().skip(1) {
                let kernel = self.kernel.clone();
                let host = host.clone();
                let tasks = std::mem::take(tasks);
                let scope = Arc::clone(scope);
                let done = done.clone();
                pool.submit(Box::new(move || {
                    run_batch(&kernel, &host, tasks, &scope);
                    let _ = done.send(());
                }));
                submitted += 1;
            }
            // The scheduler thread runs the first batch itself instead of
            // blocking at the barrier: one fewer handoff, one more busy
            // core.
            {
                let (host, tasks, scope) = &mut batches[0];
                run_batch(&self.kernel, host, std::mem::take(tasks), scope);
            }
            pool.wait(submitted);
        }

        // Phase 3 (barrier): flush deferred envelopes in host order, then
        // advance the global clock to the slowest batch's finish time —
        // concurrent batches overlap in virtual time, so the tick costs
        // its makespan, not the sum of its batches.
        let mut makespan = now;
        for (_, _, scope) in &batches {
            makespan = makespan.max(scope.clock.now());
            for envelope in scope.sends.lock().drain(..) {
                let _ = self.bus.deliver(envelope);
            }
        }
        self.kernel.net.clock().advance_to(makespan);

        // Recycle scopes (and their send-buffer capacity) for next tick.
        scope_pool.extend(batches.into_iter().map(|(_, _, scope)| scope));
        self.scope_cache = scope_pool;
        true
    }

    /// Runs the scheduler until no work remains (or a million steps, as a
    /// livelock backstop). On exhaustion a warning event is recorded —
    /// check [`RunOutcome::quiesced`] rather than assuming silence means
    /// completion.
    pub fn run_until_quiet(&mut self) -> RunOutcome {
        self.run_for(MAX_STEPS)
    }

    /// Runs the scheduler until quiet or until `budget` steps have
    /// executed, whichever comes first.
    pub fn run_for(&mut self, budget: usize) -> RunOutcome {
        let mut steps = 0;
        while steps < budget {
            if !self.step() {
                return RunOutcome::Quiesced { steps };
            }
            steps += 1;
        }
        if self.is_quiet() {
            return RunOutcome::Quiesced { steps };
        }
        // Make the truncation visible in the event log: callers that
        // ignore the outcome still see the warning in traces.
        if let Some(host) = self.host_names().first().and_then(|name| self.host(name)) {
            host.record(
                self.kernel.now(),
                None,
                EventKind::Scheduler(format!(
                    "step budget exhausted after {steps} steps; system is not quiet"
                )),
            );
        }
        RunOutcome::StepBudgetExhausted { steps }
    }

    /// Whether no messages or tasks are outstanding.
    pub fn is_quiet(&self) -> bool {
        self.kernel
            .directory
            .read()
            .values()
            .all(|h| h.inbox_is_empty() && h.queued_tasks() == 0)
    }

    /// All events across hosts, ordered by virtual time — served from the
    /// incrementally maintained system log, so repeated calls do not
    /// re-clone and re-sort every host's history.
    pub fn events(&self) -> Vec<(String, HostEvent)> {
        self.log.snapshot()
    }

    /// Every `display` line across all hosts, in virtual-time order.
    pub fn agent_outputs(&self) -> Vec<String> {
        self.log.displays()
    }
}

/// Executes one host's task batch inside its scope. A panicking task
/// abandons the rest of its batch (and is recorded as a scheduler event)
/// but never takes down the worker or the tick.
fn run_batch(kernel: &Kernel, host: &TaxHost, tasks: Vec<AgentTask>, scope: &Arc<TaskScope>) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = TaskScope::enter(Arc::clone(scope));
        for task in tasks {
            kernel.run_task(host, task);
        }
    }));
    if result.is_err() {
        host.record(
            scope.clock.now(),
            None,
            EventKind::Scheduler(
                "host batch panicked; remaining tasks in the batch were abandoned".into(),
            ),
        );
    }
}

impl std::fmt::Debug for TaxSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TaxSystem({:?})", self.host_names())
    }
}
