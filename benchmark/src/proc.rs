//! Child processes of the program under test: a `convmeter serve` that is
//! killed and reaped when dropped, and timed `convmeter` invocations whose
//! peak resident set is sampled from `/proc` while they run.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// `VmHWM` (peak resident set) of a live process, KiB.
pub fn peak_rss_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
}

/// A running `convmeter serve`.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    // Held open so the server never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Start `convmeter serve --port 0 --warm <extra>` with `results` as its
    /// results directory and wait for its `listening on` line. Returns the
    /// server and the time from spawn to that line.
    pub fn spawn(
        convmeter: &Path,
        results: &Path,
        extra: &[String],
    ) -> Result<(Server, Duration), String> {
        std::fs::create_dir_all(results).map_err(|e| format!("{}: {e}", results.display()))?;
        let started = Instant::now();
        let mut child = Command::new(convmeter)
            .args(["serve", "--port", "0", "--warm"])
            .args(extra)
            .env("CONVMETER_RESULTS", results)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", convmeter.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let status = child.wait();
                    return Err(format!("serve exited before listening: {status:?}"));
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                match addr.parse::<SocketAddr>() {
                    Ok(addr) => break addr,
                    Err(e) => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(format!("bad listen address '{addr}': {e}"));
                    }
                }
            }
        };
        let setup = started.elapsed();
        Ok((
            Server {
                child,
                addr,
                _stdout: stdout,
            },
            setup,
        ))
    }

    pub fn peak_rss_kib(&self) -> Option<u64> {
        peak_rss_kib(self.child.id())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // The server runs until killed; reap it so no process outlives us.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A finished, timed invocation.
#[derive(Debug)]
pub struct Invocation {
    pub status: ExitStatus,
    pub wall: Duration,
    /// Largest `VmHWM` sampled while the process ran, KiB.
    pub peak_rss_kib: u64,
    pub timed_out: bool,
}

/// Run `cmd` to completion, killing it after `limit`. Exit is noticed within
/// a millisecond; `VmHWM` is sampled every ten.
pub fn run_timed(cmd: &mut Command, limit: Duration) -> Result<Invocation, String> {
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let mut peak = 0;
    let mut timed_out = false;
    let mut tick = 0u64;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                return Ok(Invocation {
                    status,
                    wall: started.elapsed(),
                    peak_rss_kib: peak,
                    timed_out,
                })
            }
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("wait: {e}"));
            }
        }
        if tick.is_multiple_of(10) {
            peak = peak.max(peak_rss_kib(child.id()).unwrap_or(0));
        }
        tick += 1;
        if !timed_out && started.elapsed() > limit {
            timed_out = true;
            let _ = child.kill();
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
