//! `perf` — the repository's benchmark. See `README.md` beside
//! `Cargo.toml`, and `BENCHMARK.json` at the repository root.
//!
//! ```text
//! perf --workload <name> --seed <u64> [--seconds <s>] [--trace 0|1]
//!      [--scale full|smoke] [--out <run.json>]
//! perf --collect <sets.json> <run.json>... [--set <run.json>...]
//! perf --compare <sets.json> [<other-sets.json>]
//! ```

mod compare;
mod deploy;
mod host;
mod inputs;
mod layers;
mod lifecycle;
mod oracle;
mod plan;
mod report;
mod runner;
mod spec;
mod stats;
mod trace;

use elsi_store::Json;
use host::Banner;
use plan::{Plan, Scale};
use spec::Spec;

/// One run's settings, from flags and `BENCHMARK.json` alone: no
/// environment variable is read.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    out: Option<String>,
}

fn parse_run_args(args: &[String], spec: &Spec) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: spec.run_seconds,
        trace: false,
        scale: Scale::Full,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => run.workload = value()?,
            "--seed" => {
                run.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                run.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--scale" => {
                run.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err("--scale takes full or smoke".to_string()),
                }
            }
            "--out" => run.out = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !spec.workloads.contains(&run.workload) {
        return Err(format!(
            "--workload must be one of {}",
            spec.workloads.join(", ")
        ));
    }
    Ok(run)
}

/// Rayon threads for batched reads and deployment builds: `min(nproc, 4)`.
fn pick_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn run_command(spec: &Spec, args: &[String]) -> Result<(), String> {
    let run = parse_run_args(args, spec)?;
    let base = Plan::named(&run.workload).ok_or("no plan for this workload")?;
    let plan = match run.scale {
        Scale::Full => base.scaled_to(run.seconds),
        Scale::Smoke => base.smoke(),
    };
    let threads = pick_threads();
    let banner = Banner::collect(threads);
    print!("{}", banner.render_lines());
    println!(
        "# workload {} | {} {} points | seed {} | seconds {} | scale {} | trace {}",
        run.workload,
        plan.n,
        plan.dataset.label(),
        run.seed,
        run.seconds,
        run.scale.label(),
        u8::from(run.trace)
    );
    let out = runner::run_workload(&plan, run.seed, run.trace, threads)?;
    print!("{}", out.ledger.render_lines());
    if let Some(path) = &run.out {
        let mut doc = vec![
            ("host", banner.to_json()),
            ("workload", Json::str(run.workload.clone())),
            ("dataset", Json::str(plan.dataset.label())),
            ("points", Json::int(plan.n)),
            // Beyond 2^53 a JSON number would round: seeds travel as text.
            ("seed", Json::str(run.seed.to_string())),
            ("seconds", Json::Num(run.seconds)),
            ("scale", Json::str(run.scale.label())),
            ("traced", Json::Bool(run.trace)),
            ("attempted", Json::Num(out.tally.attempted as f64)),
            ("failed", Json::Num(out.tally.failed as f64)),
            ("metrics", out.ledger.to_json()),
        ];
        if let Some(trace) = out.trace {
            doc.push(("trace", trace));
        }
        std::fs::write(path, Json::obj(doc).write_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }
    let wanted = if run.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    println!("{}", report::result_line(&out.ledger, out.tally, wanted)?);
    if out.tally.failed > 0 {
        return Err(format!(
            "{} of {} operations failed",
            out.tally.failed, out.tally.attempted
        ));
    }
    Ok(())
}

fn main() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("perf measures optimised builds only: build with --release".to_string());
    }
    let spec = Spec::committed()?;
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((flag, rest)) if flag == "--collect" => compare::collect_command(rest),
        Some((flag, rest)) if flag == "--compare" => compare::compare_command(&spec, rest),
        _ => run_command(&spec, &args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() -> Result<(), String> {
        let spec = Spec::committed()?;
        let run = parse_run_args(
            &args("--workload read-wide --seed 18446744073709551615 --seconds 3 --trace 1"),
            &spec,
        )?;
        assert_eq!(run.workload, "read-wide");
        assert_eq!(run.seed, u64::MAX);
        assert_eq!(run.seconds, 3.0);
        assert!(run.trace);
        assert_eq!(run.scale, Scale::Full);
        let defaults = parse_run_args(&args("--workload read-small"), &spec)?;
        assert_eq!(defaults.seconds, spec.run_seconds);
        assert!(!defaults.trace);
        for bad in [
            "",
            "--workload nope",
            "--workload read-small --seed -1",
            "--workload read-small --seconds 0",
            "--workload read-small --trace 2",
            "--workload read-small --scale big",
            "--workload read-small --frobnicate",
            "--workload",
        ] {
            assert!(parse_run_args(&args(bad), &spec).is_err(), "`{bad}`");
        }
        Ok(())
    }
}
