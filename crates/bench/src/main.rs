//! `elsi-bench <figure|all> [--json <path>]`: runs entries of the figure
//! table ([`elsi_bench::figures::FIGURES`]) in one process against one
//! shared session. Exits non-zero when an entry fails, on an unknown
//! figure name (listing the valid ones) and when the JSON cannot be
//! written.

use elsi_bench::figures::{self, Record};
use elsi_bench::session::Session;
use elsi_bench::{base_n, bench_epochs, configure_threads};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Writes the records as a JSON array, one record per line.
fn write_json(path: &Path, records: &[Record]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let lines: Vec<String> = records.iter().map(|r| r.to_json().write()).collect();
    std::fs::write(path, format!("[\n  {}\n]\n", lines.join(",\n  ")))
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}\nusage: elsi-bench <figure|all> [--json <path>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut name = None;
    let mut json_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => match args.next() {
                Some(path) => json_path = Some(PathBuf::from(path)),
                None => return usage("--json needs a path"),
            },
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(&format!("unexpected argument `{arg}`")),
        }
    }
    let selected = match figures::select(name.as_deref().unwrap_or_default()) {
        Ok(selected) => selected,
        Err(problem) => return usage(&problem),
    };

    let (n, epochs) = (base_n(), bench_epochs());
    eprintln!(
        "[elsi-bench] N={n}, epochs={epochs}, rayon threads: {} (ELSI_BENCH_N / ELSI_BENCH_EPOCHS / ELSI_THREADS)",
        configure_threads()
    );
    let (records, failed) = figures::run(&selected, &mut Session::new(n, epochs));

    if let Some(path) = &json_path {
        if let Err(e) = write_json(path, &records) {
            eprintln!("[elsi-bench] failed to write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "[elsi-bench] wrote {} records to {}",
            records.len(),
            path.display()
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("[elsi-bench] failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}
