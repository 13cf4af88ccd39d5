//! The `bench-full` and `bench-fits` workloads: back-to-back
//! `convmeter bench --no-cache --jobs 2` invocations, each in a fresh
//! results directory, each checked against pinned artefact digests.

use crate::proc::{run_timed, Invocation};
use crate::report::{Metric, Outcome};
use crate::stats::{self, median, percentile};
use crate::Opts;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Fewest invocations in a run, however long each takes.
const MIN_INVOCATIONS: usize = 3;
/// `convmeter bench --list` start-ups timed at each of three points of a
/// run: before the first invocation, once half the time is spent, and after
/// the last. `setup_s` is the median of all of them; spread out, they
/// sample more than one moment of a host whose speed drifts.
const SETUP_GROUP: usize = 5;
/// An invocation still running after this is killed and counted failed.
const INVOCATION_LIMIT: Duration = Duration::from_secs(120);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Every registered experiment.
    Full,
    /// Every experiment except `fig6`, whose surrogate MLP hides the rest.
    Fits,
}

impl Scope {
    fn digests(self) -> &'static str {
        match self {
            Scope::Full => include_str!("../expected/bench-full.digests"),
            Scope::Fits => include_str!("../expected/bench-fits.digests"),
        }
    }

    fn args(self) -> Vec<String> {
        let mut args: Vec<String> = ["bench", "--no-cache", "--jobs", "2"]
            .map(String::from)
            .to_vec();
        if self == Scope::Fits {
            let names: Vec<&str> = convmeter_bench::engine::registry()
                .iter()
                .map(|e| e.name())
                .filter(|&n| n != "fig6")
                .collect();
            args.push("--only".into());
            args.push(names.join(","));
        }
        args
    }
}

/// Parse a digest file: `name hash` per line; blank lines and `#` comments
/// are skipped. Names are artefact stems, hashes lowercase hex.
pub fn parse_digests(text: &str) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, hash] = fields[..] else {
            return Err(format!("line {}: expected `name hash`", i + 1));
        };
        if !name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_') {
            return Err(format!("line {}: bad artefact name '{name}'", i + 1));
        }
        if hash.is_empty() || !hash.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(format!("line {}: bad hash '{hash}'", i + 1));
        }
        if out.insert(name.to_string(), hash.to_string()).is_some() {
            return Err(format!("line {}: '{name}' listed twice", i + 1));
        }
    }
    if out.is_empty() {
        return Err("no digests".into());
    }
    Ok(out)
}

/// Artefact name -> hash, from a run's `manifest.json`.
fn manifest_digests(results: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = results.join("manifest.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let manifest = serde_json::parse(&text).map_err(|e| format!("manifest.json: {e}"))?;
    let mut out = BTreeMap::new();
    let experiments = manifest
        .get("experiments")
        .and_then(serde_json::Value::as_array)
        .ok_or("manifest.json has no experiments")?;
    for artefact in experiments
        .iter()
        .filter_map(|e| e.get("artifacts").and_then(serde_json::Value::as_array))
        .flatten()
    {
        let name = artefact.get("name").and_then(serde_json::Value::as_str);
        let hash = artefact.get("hash").and_then(serde_json::Value::as_str);
        let (Some(name), Some(hash)) = (name, hash) else {
            return Err("manifest.json artefact without name or hash".into());
        };
        out.insert(name.to_string(), hash.to_string());
    }
    Ok(out)
}

/// The differences between pinned and produced digests, one line each.
pub fn digest_diff(
    expected: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut diff = Vec::new();
    for (name, hash) in expected {
        match got.get(name) {
            None => diff.push(format!("{name}: missing")),
            Some(h) if h != hash => diff.push(format!("{name}: {h}, pinned {hash}")),
            Some(_) => {}
        }
    }
    for name in got.keys().filter(|n| !expected.contains_key(*n)) {
        diff.push(format!("{name}: not pinned"));
    }
    diff
}

fn command(
    convmeter: &Path,
    args: &[String],
    results: &Path,
    log: &Path,
) -> Result<Command, String> {
    let log = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut cmd = Command::new(convmeter);
    cmd.args(args)
        .env("CONVMETER_RESULTS", results)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(log);
    Ok(cmd)
}

/// Time [`SETUP_GROUP`] start-ups of `convmeter bench --list`, which loads
/// the experiment registry and exits.
fn probe_setups(opts: &Opts, log: &Path, setups: &mut Vec<f64>) -> Result<(), String> {
    let list = ["bench".to_string(), "--list".to_string()];
    for _ in 0..SETUP_GROUP {
        let inv = run_timed(
            &mut command(&opts.convmeter, &list, &opts.work, log)?,
            INVOCATION_LIMIT,
        )?;
        if !inv.status.success() {
            return Err(format!("`convmeter bench --list`: {}", failure(&inv, log)));
        }
        setups.push(inv.wall.as_secs_f64());
    }
    Ok(())
}

/// Why an invocation failed, with the last line it wrote to stderr.
fn failure(inv: &Invocation, log: &Path) -> String {
    let stderr = std::fs::read_to_string(log).unwrap_or_default();
    let last = stderr.lines().last().unwrap_or_default();
    if inv.timed_out {
        format!("killed after {INVOCATION_LIMIT:?}: {last}")
    } else {
        format!("exit {}: {last}", inv.status)
    }
}

pub fn run(opts: &Opts, scope: Scope) -> Result<Outcome, String> {
    let expected = parse_digests(scope.digests()).map_err(|e| format!("pinned digests: {e}"))?;
    let args = scope.args();
    let log = opts.work.join("bench.log");
    let mut setups = Vec::with_capacity(3 * SETUP_GROUP);
    probe_setups(opts, &log, &mut setups)?;

    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut peak_kib = 0;
    let mut good = 0usize;
    let started = Instant::now();
    let mut probe_time = Duration::ZERO;
    let budget = Duration::from_secs_f64(opts.seconds);
    loop {
        let k = walls.len();
        let enough = if opts.smoke {
            k >= 1
        } else {
            k >= MIN_INVOCATIONS && started.elapsed() >= budget
        };
        if enough {
            break;
        }
        if setups.len() < 2 * SETUP_GROUP && started.elapsed() >= budget / 2 {
            let probing = Instant::now();
            probe_setups(opts, &log, &mut setups)?;
            probe_time += probing.elapsed();
        }
        let results = opts.work.join(format!("bench-{k}"));
        std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
        let inv = run_timed(
            &mut command(&opts.convmeter, &args, &results, &log)?,
            INVOCATION_LIMIT,
        )?;
        walls.push(inv.wall.as_secs_f64() * 1e3);
        peak_kib = peak_kib.max(inv.peak_rss_kib);
        out.attempted += 1;
        let verdict = if inv.timed_out || !inv.status.success() {
            Err(failure(&inv, &log))
        } else {
            manifest_digests(&results).map(|got| digest_diff(&expected, &got).join("; "))
        };
        match verdict {
            Ok(diff) if diff.is_empty() => good += 1,
            Ok(diff) => out.fail(format!("invocation {k}: digests differ: {diff}")),
            Err(why) => out.fail(format!("invocation {k}: {why}")),
        }
        let _ = std::fs::remove_dir_all(&results);
    }
    let loop_wall = (started.elapsed() - probe_time).as_secs_f64();
    while setups.len() < 3 * SETUP_GROUP {
        probe_setups(opts, &log, &mut setups)?;
    }

    let p50 = percentile(&walls, 50.0).expect("at least one invocation");
    let tail = stats::tail(&walls).expect("at least one invocation");
    out.metrics = vec![
        Metric::over(
            "setup_s",
            median(&setups).expect("probed"),
            "s",
            setups.len(),
        ),
        Metric::percentile("latency_p50_ms", p50, "ms"),
        Metric::tail("latency_tail_ms", tail, "ms"),
        Metric::over("goodput_per_s", good as f64 / loop_wall, "1/s", walls.len()),
        Metric::new("peak_rss_mb", peak_kib as f64 * 1024.0 / 1e6, "MB"),
    ];
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_digest_files() {
        let text = "# pinned\n\ntable1 e8a25026c391f06034f8225ea8301f69\n  fig2   00ff  \n";
        let d = parse_digests(text).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d["table1"], "e8a25026c391f06034f8225ea8301f69");
        assert_eq!(d["fig2"], "00ff");
    }

    #[test]
    fn rejects_malformed_digest_files() {
        assert!(parse_digests("").is_err());
        assert!(parse_digests("# only a comment\n").is_err());
        assert!(parse_digests("table1\n").is_err());
        assert!(parse_digests("table1 abc extra\n").is_err());
        assert!(parse_digests("table1 ABC\n").is_err());
        assert!(parse_digests("table1 xyz\n").is_err());
        assert!(parse_digests("tab/le1 abc\n").is_err());
        assert!(parse_digests("t abc\nt abd\n").is_err());
    }

    #[test]
    fn committed_digest_files_parse_and_differ_only_by_fig6() {
        let full = parse_digests(Scope::Full.digests()).unwrap();
        let fits = parse_digests(Scope::Fits.digests()).unwrap();
        let mut without_fig6 = full.clone();
        without_fig6.remove("fig6");
        assert_eq!(fits, without_fig6);
        assert!(full.contains_key("fig6"));
    }

    #[test]
    fn digest_diff_names_every_difference() {
        let pinned = parse_digests("a 01\nb 02\nc 03\n").unwrap();
        let got = parse_digests("a 01\nb 0f\nd 04\n").unwrap();
        assert_eq!(
            digest_diff(&pinned, &got),
            vec!["b: 0f, pinned 02", "c: missing", "d: not pinned"]
        );
        assert!(digest_diff(&pinned, &pinned).is_empty());
    }

    #[test]
    fn fits_scope_runs_every_experiment_but_fig6() {
        let args = Scope::Fits.args();
        let only = args.last().unwrap();
        assert_eq!(
            only.split(',').count(),
            convmeter_bench::engine::registry().len() - 1
        );
        assert!(!only.split(',').any(|n| n == "fig6"));
        assert_eq!(Scope::Full.args(), ["bench", "--no-cache", "--jobs", "2"]);
    }
}
