//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload in this process against the workspace crates' public
//! APIs, checks the served outputs, and prints as its last stdout line one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. An
//! untraced run (`--trace 0`) reports the end-to-end metrics; the traced run
//! (`--trace 1`) replays the request path in-process with a span around
//! every layer call and reports the per-layer metrics, printing the
//! per-layer table above the result. Workloads and metrics are listed in
//! `BENCHMARK.json` and described in `perfbench/README.md`.

mod common;
mod http;
mod http_warm;
mod http_write;
mod load;
mod report;
mod scale_cold;
mod stats;
mod trace;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{mark_process_start, nproc, Opts, Outcome, LAG_BOUND_MS, SETUP_ONLY};
use report::{git_commit, json_str, result_line};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["scale-cold", "http-warm", "http-write", "train"];

/// Directory for the run's temporary files and span dumps.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let get = |flag: &str| -> Result<&str, String> {
        let i = args.iter().position(|a| a == flag).ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1).map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = get("--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let setup_only = args.iter().any(|a| a == SETUP_ONLY);
    Ok(Opts { workload, seed, seconds, trace, setup_only })
}

fn provenance(opts: &Opts, out: &Outcome) -> String {
    let mut fields = vec![
        (
            "git_commit".to_string(),
            json_str(&git_commit(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".."))),
        ),
        ("nproc".to_string(), nproc().to_string()),
        ("workload".to_string(), json_str(&opts.workload)),
        ("seed".to_string(), opts.seed.to_string()),
        ("traced".to_string(), opts.trace.to_string()),
        ("run_seconds".to_string(), opts.seconds.to_string()),
    ];
    for (k, v) in &out.program {
        fields.push((format!("program.{k}"), json_str(v)));
    }
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    mark_process_start();
    let args: Vec<String> = std::env::args().collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new(opts.trace);
    let out = match opts.workload.as_str() {
        "scale-cold" => scale_cold::run(&opts, &mut tracer),
        "http-warm" => http_warm::run(&opts, &mut tracer),
        "http-write" => http_write::run(&opts, &mut tracer),
        _ => train::run(&opts, &mut tracer),
    };

    println!("provenance {}", provenance(&opts, &out));
    for p in &out.phases {
        println!(
            "phase {:<8} sent {:>7} ok {:>7} failed {:>5}  {}",
            p.name, p.sent, p.ok, p.failed, p.detail
        );
    }
    for line in &out.table {
        println!("{line}");
    }
    if opts.trace {
        let path = out_dir().join(format!("spans-{}-{}.tsv", opts.workload, opts.seed));
        if let Err(e) = tracer.write_to(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    if out.gen_lag_p99_ms > LAG_BOUND_MS {
        eprintln!(
            "perfbench: invalid run: generator lag p99 {:.3} ms exceeds the {LAG_BOUND_MS} ms bound",
            out.gen_lag_p99_ms
        );
        return ExitCode::from(3);
    }
    let attempted: u64 = out.phases.iter().map(|p| p.sent).sum();
    let failed: u64 = out.phases.iter().map(|p| p.failed).sum();
    let metrics = if opts.trace { &out.layers } else { &out.e2e };
    match result_line(out.correct, attempted, failed, metrics) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("perfbench: a metric is not a finite number: {metrics:?}");
            ExitCode::from(4)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        std::iter::once("perfbench").chain(s.split_whitespace()).map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let o =
            parse_args(&args("--workload train --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace, o.setup_only),
            ("train", 7, 10.0, true, false)
        );
        let o = parse_args(&args("--workload train --seed 7 --seconds 10 --trace 0 --setup-only"))
            .expect("valid");
        assert!(o.setup_only);
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload train --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload train --seed 1 --trace 0")).is_err());
    }
}
