//! The system under test: two `taxd` child processes, the in-process
//! home listener, and the one connection agents are injected over.
//! Every handle here cleans up on drop, so daemons are killed and
//! journal directories removed on every exit path, a panic included.

use std::fs;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use tacoma::transport::{ConnectConfig, Connection, ListenerConfig, TransportListener};

use crate::workload::{Agent, Checker, Workload, DEADLINE, HOME};

/// A directory removed, with everything in it, when dropped.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `path` afresh.
    pub fn create(path: PathBuf) -> Result<RunDir, String> {
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Checks that `taxd` is a release build at least as new as every
/// source file it is built from, so the benchmark never measures a
/// stale or debug binary.
pub fn check_taxd(taxd: &Path, repo: &Path) -> Result<(), String> {
    let profile = taxd
        .parent()
        .and_then(Path::file_name)
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    if profile != "release" {
        return Err(format!(
            "{} is not a release build (profile directory {profile:?})",
            taxd.display()
        ));
    }
    let built = modified(taxd).ok_or_else(|| format!("{}: no such binary", taxd.display()))?;
    let mut newest: Option<(SystemTime, PathBuf)> = None;
    for root in ["src", "crates", "vendor", "Cargo.toml", "Cargo.lock"] {
        newest_source(&repo.join(root), &mut newest);
    }
    match newest {
        Some((when, path)) if when > built => Err(format!(
            "{} is stale: {} changed after it was built",
            taxd.display(),
            path.display()
        )),
        Some(_) => Ok(()),
        None => Err(format!("no taxd sources under {}", repo.display())),
    }
}

fn modified(path: &Path) -> Option<SystemTime> {
    fs::metadata(path).and_then(|m| m.modified()).ok()
}

fn newest_source(path: &Path, newest: &mut Option<(SystemTime, PathBuf)>) {
    let Ok(meta) = fs::metadata(path) else { return };
    if meta.is_dir() {
        let Ok(entries) = fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            newest_source(&entry.path(), newest);
        }
        return;
    }
    let wanted = path
        .extension()
        .is_some_and(|e| e == "rs" || e == "toml" || e == "lock");
    if let (true, Ok(when)) = (wanted, meta.modified()) {
        if newest.as_ref().is_none_or(|(w, _)| when > *w) {
            *newest = Some((when, path.to_owned()));
        }
    }
}

/// One running `taxd`.
#[derive(Debug)]
pub struct Daemon {
    /// The daemon's host name.
    pub name: &'static str,
    /// The address it listens on.
    pub addr: String,
    child: Child,
    stderr: PathBuf,
    events: Arc<AtomicU64>,
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `taxd` and waits for its "listening on" line.
    pub fn spawn(
        taxd: &Path,
        name: &'static str,
        listen: &str,
        peers: &[(&str, &str)],
        journal: Option<&Path>,
        dir: &Path,
    ) -> Result<Daemon, String> {
        let stderr = dir.join(format!("{name}.stderr"));
        let err_file =
            fs::File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let mut cmd = Command::new(taxd);
        cmd.args(["--host", name, "--listen", listen]);
        for (peer, addr) in peers {
            cmd.args(["--peer", &format!("{peer}={addr}")]);
        }
        if let Some(journal) = journal {
            cmd.arg("--journal-dir").arg(journal);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(err_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", taxd.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            name,
            addr: String::new(),
            child,
            stderr,
            events: Arc::new(AtomicU64::new(0)),
            drain: None,
        };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        loop {
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                return Err(daemon.exit_message("exited before listening"));
            }
            if let Some(addr) = line.trim().split("listening on ").nth(1) {
                daemon.addr = addr.to_owned();
                break;
            }
        }
        // Keep the pipe drained; every non-`taxd:` line is one event
        // from the daemon's log.
        let events = Arc::clone(&daemon.events);
        daemon.drain = Some(std::thread::spawn(move || {
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if !line.starts_with("taxd:") {
                    events.fetch_add(1, Ordering::Relaxed);
                }
                line.clear();
            }
        }));
        Ok(daemon)
    }

    /// Fails with a clear message if the daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        match self.child.try_wait() {
            Ok(None) => Ok(()),
            _ => Err(self.exit_message("exited early")),
        }
    }

    fn exit_message(&mut self, what: &str) -> String {
        let status = self
            .child
            .try_wait()
            .ok()
            .flatten()
            .map_or_else(|| "still running".to_owned(), |s| s.to_string());
        let tail = fs::read_to_string(&self.stderr).unwrap_or_default();
        format!(
            "taxd {} {what} ({status}); stderr: {}",
            self.name,
            tail.trim()
        )
    }

    /// Events the daemon has logged so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }

    /// User plus system CPU time, in clock ticks.
    pub fn cpu_ticks(&self) -> u64 {
        let stat =
            fs::read_to_string(format!("/proc/{}/stat", self.child.id())).unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit(')').next().unwrap_or_default();
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .unwrap_or(0)
        };
        tick(11) + tick(12)
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        let status =
            fs::read_to_string(format!("/proc/{}/status", self.child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    }

    /// The daemon's stats reply (firewall counter line, plus a
    /// `journal:` line when it journals).
    pub fn query_stats(&self) -> Result<String, String> {
        let mut conn = connect(&self.addr)?;
        let text = conn
            .query_stats()
            .map_err(|e| format!("stats from {}: {e}", self.name))?;
        conn.goodbye();
        Ok(text)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// A handshaken client connection to `addr`.
pub fn connect(addr: &str) -> Result<Connection, String> {
    let config = ConnectConfig {
        local_host: HOME.to_owned(),
        ..ConnectConfig::default()
    };
    Connection::establish(addr, 1, &config).map_err(|e| format!("connect {addr}: {e}"))
}

/// Both daemons, the home listener, and the inject connection.
/// Field order is drop order: daemons die before their directory goes.
pub struct Cluster {
    /// The daemon agents are injected into.
    pub alpha: Daemon,
    /// The other daemon.
    pub beta: Daemon,
    /// Connection to `alpha` that injects agents.
    pub inject: Connection,
    /// Where agents come home.
    pub home: TransportListener,
    _dir: RunDir,
}

impl Cluster {
    /// Brings the system up: spawns both daemons (on fresh journal
    /// directories when the workload journals), handshakes with each,
    /// and runs one warm-up agent through the workload's itinerary.
    pub fn start(
        taxd: &Path,
        workload: Workload,
        dir: PathBuf,
        warmup: &Agent,
    ) -> Result<Cluster, String> {
        let dir = RunDir::create(dir)?;
        let mut home_config = ListenerConfig::trusting(HOME);
        home_config.shards = 1;
        let home = TransportListener::bind("127.0.0.1:0", home_config)
            .map_err(|e| format!("bind home listener: {e}"))?;
        let home_addr = home.local_addr().to_string();
        let journal = |name: &str| workload.journaled().then(|| dir.path().join(name));

        // beta binds :0 directly; alpha's port comes from a :0 binding
        // released just before alpha binds it, since beta must name it.
        let alpha_addr = {
            let probe =
                TcpListener::bind("127.0.0.1:0").map_err(|e| format!("reserve a port: {e}"))?;
            probe
                .local_addr()
                .map_err(|e| format!("reserve a port: {e}"))?
                .to_string()
        };
        let beta = Daemon::spawn(
            taxd,
            "beta",
            "127.0.0.1:0",
            &[("alpha", &alpha_addr), (HOME, &home_addr)],
            journal("beta").as_deref(),
            dir.path(),
        )?;
        let alpha = Daemon::spawn(
            taxd,
            "alpha",
            &alpha_addr,
            &[("beta", &beta.addr), (HOME, &home_addr)],
            journal("alpha").as_deref(),
            dir.path(),
        )?;
        let inject = connect(&alpha.addr)?;
        connect(&beta.addr)?.goodbye();
        let mut cluster = Cluster {
            alpha,
            beta,
            inject,
            home,
            _dir: dir,
        };

        let mut checker = Checker::default();
        checker.launch(warmup, Instant::now());
        cluster.send(warmup)?;
        let deadline = Instant::now() + DEADLINE;
        while checker.in_flight() > 0 {
            cluster.check_alive()?;
            if Instant::now() > deadline {
                return Err("warm-up agent did not come home".to_owned());
            }
            if let Ok(inbound) = cluster
                .home
                .incoming()
                .recv_timeout(Duration::from_millis(50))
            {
                checker
                    .arrive(&inbound.payload, Instant::now())
                    .map_err(|f| format!("warm-up agent failed: {f:?}"))?;
            }
        }
        Ok(cluster)
    }

    /// Injects `agent` into `alpha`; returns once `alpha` acked it.
    pub fn send(&mut self, agent: &Agent) -> Result<(), String> {
        self.inject
            .send_payload(&agent.frame)
            .map_err(|e| format!("inject into alpha: {e}"))
    }

    /// Fails if either daemon has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        self.alpha.check_alive()?;
        self.beta.check_alive()
    }

    /// Both daemons.
    pub fn daemons(&self) -> [&Daemon; 2] {
        [&self.alpha, &self.beta]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake checkout with one source file and a `taxd` under
    /// `build/<profile>/`, written a minute after (or before) the
    /// source.
    fn fake(tag: &str, profile: &str, binary_newer: bool) -> (RunDir, PathBuf) {
        let dir = RunDir::create(
            std::env::temp_dir().join(format!("perfbench-check-{tag}-{}", std::process::id())),
        )
        .unwrap();
        let src = dir.path().join("src");
        fs::create_dir_all(&src).unwrap();
        let source = src.join("lib.rs");
        fs::write(&source, "").unwrap();
        let bin_dir = dir.path().join("build").join(profile);
        fs::create_dir_all(&bin_dir).unwrap();
        let taxd = bin_dir.join("taxd");
        fs::write(&taxd, "").unwrap();
        let now = SystemTime::now();
        let (bin_time, src_time) = if binary_newer {
            (now, now - Duration::from_secs(60))
        } else {
            (now - Duration::from_secs(60), now)
        };
        fs::File::options()
            .write(true)
            .open(&taxd)
            .unwrap()
            .set_modified(bin_time)
            .unwrap();
        fs::File::options()
            .write(true)
            .open(&source)
            .unwrap()
            .set_modified(src_time)
            .unwrap();
        (dir, taxd)
    }

    #[test]
    fn fresh_release_binary_is_accepted() {
        let (dir, taxd) = fake("fresh", "release", true);
        assert_eq!(check_taxd(&taxd, dir.path()), Ok(()));
    }

    #[test]
    fn stale_or_debug_binary_is_refused() {
        let (dir, taxd) = fake("stale", "release", false);
        assert!(check_taxd(&taxd, dir.path()).unwrap_err().contains("stale"));
        let (dir, taxd) = fake("debug", "debug", true);
        assert!(check_taxd(&taxd, dir.path())
            .unwrap_err()
            .contains("not a release build"));
    }
}
