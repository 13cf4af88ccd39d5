//! `convmeter-benchmark`: runs the repository benchmark's workloads against
//! a release-built `convmeter` binary and reports end-to-end metrics, or,
//! with `--trace 1`, per-layer metrics.
//!
//! ```text
//! convmeter-benchmark [--workload NAME]... [NAME]... [--seed N] [--seconds S]
//!                     [--trace [0|1]] [--smoke] [--convmeter PATH]
//!                     [--work DIR] [--json FILE]
//! ```
//!
//! Every metric prints as `workload metric value unit note`; the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. With several workloads, that line's
//! metric names carry a `<workload>.` prefix. The exit status is non-zero
//! when any operation failed or returned a wrong answer. `benchmark/run.sh`
//! builds both binaries and calls this one; see `benchmark/README.md`.

mod bench;
mod http;
mod proc;
mod report;
mod schedule;
mod serve;
mod stats;
mod trace;

use report::{Metric, Outcome};
use std::path::PathBuf;

/// Settings shared by every workload of one invocation.
pub struct Opts {
    pub seed: u64,
    /// Measured seconds per workload run.
    pub seconds: f64,
    /// One-second phases and a single `bench` invocation.
    pub smoke: bool,
    pub convmeter: PathBuf,
    /// Scratch space for results directories; removed on exit.
    pub work: PathBuf,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeHot,
    ServeMiss,
    BenchFull,
    BenchFits,
}

const WORKLOADS: [Workload; 4] = [
    Workload::ServeHot,
    Workload::ServeMiss,
    Workload::BenchFull,
    Workload::BenchFits,
];

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeMiss => "serve-miss",
            Workload::BenchFull => "bench-full",
            Workload::BenchFits => "bench-fits",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        WORKLOADS
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload '{name}' (expected one of {})",
                    known.join(", ")
                )
            })
    }

    fn run(self, opts: &Opts) -> Result<Outcome, String> {
        match self {
            Workload::ServeHot => serve::run(opts, serve::Traffic::Hot),
            Workload::ServeMiss => serve::run(opts, serve::Traffic::Miss),
            Workload::BenchFull => bench::run(opts, bench::Scope::Full),
            Workload::BenchFits => bench::run(opts, bench::Scope::Fits),
        }
    }
}

struct Args {
    workloads: Vec<Workload>,
    trace: bool,
    json: Option<PathBuf>,
    opts: Opts,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workloads = Vec::new();
    let mut seed = 7;
    let mut seconds = 25.0;
    let mut trace = false;
    let mut smoke = false;
    let mut convmeter = None;
    let mut work = PathBuf::from("target/convmeter-benchmark");
    let mut json = None;
    let mut pending: Option<String> = None;
    while let Some(arg) = pending.take().or_else(|| args.next()) {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => workloads.push(Workload::parse(&value("--workload")?)?),
            "--seed" => {
                let v = value("--seed")?;
                seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: expected an integer"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {v}: expected a positive number"))?;
            }
            // `--trace` alone, or `--trace 0|1`.
            "--trace" => match args.next() {
                Some(v) if v == "0" || v == "1" => trace = v == "1",
                other => {
                    trace = true;
                    pending = other;
                }
            },
            "--smoke" => smoke = true,
            "--convmeter" => convmeter = Some(PathBuf::from(value("--convmeter")?)),
            "--work" => work = PathBuf::from(value("--work")?),
            "--json" => json = Some(PathBuf::from(value("--json")?)),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name => workloads.push(Workload::parse(name)?),
        }
    }
    if workloads.is_empty() {
        workloads = WORKLOADS.to_vec();
    }
    // By default the program under test sits next to this binary: both are
    // built into the same target directory.
    let convmeter = match convmeter {
        Some(path) => path,
        None => std::env::current_exe()
            .map_err(|e| format!("locating this binary: {e}"))?
            .with_file_name("convmeter"),
    };
    if !convmeter.is_file() {
        return Err(format!("no convmeter binary at {}", convmeter.display()));
    }
    Ok(Args {
        workloads,
        trace,
        json,
        opts: Opts {
            seed,
            seconds,
            smoke,
            convmeter,
            work: work.join(format!("run-{}", std::process::id())),
        },
    })
}

/// One measured run in a fresh scratch directory, printed as it finishes.
fn measure(
    opts: &Opts,
    name: &'static str,
    f: impl FnOnce(&Opts) -> Result<Outcome, String>,
) -> Result<(&'static str, Outcome), String> {
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let outcome = f(opts).map_err(|e| format!("{name}: {e}"));
    let _ = std::fs::remove_dir_all(&opts.work);
    let outcome = outcome?;
    print!("{}", outcome.human_lines(name));
    Ok((name, outcome))
}

/// Run the workloads, or the trace pass, once: it is the same for every
/// workload. Returns each outcome under the name it reports as.
fn run(args: &Args) -> Result<Vec<(&'static str, Outcome)>, String> {
    if args.trace {
        return Ok(vec![measure(&args.opts, "trace", trace::run)?]);
    }
    args.workloads
        .iter()
        .map(|&w| {
            measure(&args.opts, w.name(), |opts| {
                let canary_start = trace::canary_ms();
                let mut o = w.run(opts)?;
                o.info
                    .push(Metric::new("host.canary_start_ms", canary_start, "ms"));
                o.info
                    .push(Metric::new("host.canary_end_ms", trace::canary_ms(), "ms"));
                Ok(o)
            })
        })
        .collect()
}

/// The judged result of the whole invocation: one workload's outcome, or
/// all of them with `<workload>.`-prefixed metric names.
fn combined(outcomes: &[(&str, Outcome)]) -> Outcome {
    if let [(_, only)] = outcomes {
        return only.clone();
    }
    let mut all = Outcome::default();
    for (w, o) in outcomes {
        all.attempted += o.attempted;
        all.failed += o.failed;
        all.metrics.extend(o.metrics.iter().map(|m| Metric {
            name: format!("{w}.{}", m.name),
            ..m.clone()
        }));
    }
    all
}

fn report_json(args: &Args, outcomes: &[(&str, Outcome)]) -> String {
    let host = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let mut out = format!(
        "{{\"seed\": {}, \"trace\": {}, \"cpu\": {}, \"nproc\": {nproc}, \"workloads\": {{",
        args.opts.seed,
        args.trace,
        serde_json::to_string(&host).unwrap_or_else(|_| "\"\"".into())
    );
    for (i, (w, o)) in outcomes.iter().enumerate() {
        let mut with_info = o.clone();
        with_info.metrics.extend(o.info.iter().cloned());
        let sep = if i == 0 { "" } else { ", " };
        out.push_str(&format!("{sep}\"{w}\": {}", with_info.to_json()));
    }
    out.push_str("}}\n");
    out
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("convmeter-benchmark: {e}");
            std::process::exit(2);
        }
    };
    let outcomes = match run(&args) {
        Ok(outcomes) => outcomes,
        Err(e) => {
            eprintln!("convmeter-benchmark: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report_json(&args, &outcomes)) {
            eprintln!("convmeter-benchmark: {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    let result = combined(&outcomes);
    println!("{}", result.to_json());
    std::process::exit(if result.correct() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        // Any existing file stands in for the convmeter binary.
        let mut all = vec!["--convmeter", "Cargo.toml"];
        all.extend_from_slice(args);
        parse_args(all.into_iter().map(String::from))
    }

    #[test]
    fn parses_the_single_workload_form() {
        let a = parse(&[
            "--workload",
            "serve-miss",
            "--seed",
            "3",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workloads, [Workload::ServeMiss]);
        assert_eq!((a.opts.seed, a.opts.seconds, a.trace), (3, 12.0, false));
        let a = parse(&["--trace", "1", "--workload", "bench-fits"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.workloads, [Workload::BenchFits]);
    }

    #[test]
    fn parses_the_human_form() {
        let a = parse(&["--trace", "serve-hot", "bench-full"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.workloads, [Workload::ServeHot, Workload::BenchFull]);
        let a = parse(&["--smoke"]).unwrap();
        assert_eq!(a.workloads, WORKLOADS);
        assert!(a.opts.smoke && !a.trace);
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse(&["--workload", "serve-warm"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse_args(
            ["--convmeter", "no/such/binary"]
                .into_iter()
                .map(String::from)
        )
        .is_err());
    }

    #[test]
    fn combined_prefixes_names_only_for_several_workloads() {
        let mut o = Outcome {
            attempted: 2,
            ..Outcome::default()
        };
        o.metrics.push(Metric::new("setup_s", 1.0, "s"));
        let one = combined(&[("serve-hot", o.clone())]);
        assert_eq!(one.metrics[0].name, "setup_s");
        let two = combined(&[("serve-hot", o.clone()), ("bench-fits", o)]);
        assert_eq!(two.attempted, 4);
        let names: Vec<&str> = two.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["serve-hot.setup_s", "bench-fits.setup_s"]);
    }
}
