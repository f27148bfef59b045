//! One run of one workload: identical passes of the serving lifecycle,
//! folded into the metrics; with `--trace 1` a single pass with the layer
//! suite and the traced ops beside it.

use crate::deploy::{dir_bytes_of, ScratchDir, SHARDS};
use crate::host::peak_rss_mb;
use crate::inputs::{UpdateStream, BATCH_UPDATES};
use crate::layers::layer_suite;
use crate::lifecycle::{
    best_of, disk_ratio, head_wall_s, ingest_beside_reads, monolith_builds,
    put_once_per_pass_readings, read_phases, reopen_timed, seconds_of, set_up_once, summarise,
    verify_recovered, warm_up, Kind, OncePerPass, ReadOps, Samples, INGEST_KINDS, READ_KINDS,
};
use crate::plan::Plan;
use crate::report::{Ledger, Tally};
use crate::stats::{median_of_sorted, sorted};
use crate::trace::{
    median_root_self_us, put_trace_shares, trace_document, traced_ingest, traced_reads,
    Attribution, OpKind, Tracer, UpdateModel,
};
use elsi_store::{Json, WalWriter, WAL_HEADER_LEN};
use std::time::Instant;

/// The traced ops are the first tenth of the pass's reads and a tenth as
/// many update batches again.
const TRACE_CUT: usize = 10;
/// Spans kept verbatim in the trace document.
const TRACE_SPANS_KEPT: usize = 400;

pub struct RunOutput {
    pub ledger: Ledger,
    pub tally: Tally,
    pub trace: Option<Json>,
}

/// The exact counts of a pass: the same in every pass of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ExactCounts {
    disk_bytes_per_user_byte: f64,
    wal_bytes_per_update: f64,
    rebuilds: usize,
}

/// What one pass measured.
struct Pass {
    samples: Samples,
    once: OncePerPass,
    exact: ExactCounts,
}

/// The traced ops of a traced run's pass.
struct Traced {
    tracer: Tracer,
    /// Wall seconds the traced ops took, and the same ops untraced.
    wall_s: f64,
    plain_s: f64,
}

/// What every pass of a run shares.
struct Run<'a> {
    plan: &'a Plan,
    seed: u64,
    threads: usize,
    /// The reads every pass replays, and its warm-up's.
    ops: ReadOps,
    warm_up_ops: ReadOps,
    scratch: ScratchDir,
}

/// One pass of the lifecycle: set up, (build the monoliths,) warm up, read,
/// ingest beside reads, crash, reopen. `deep` adds the brute-force checks
/// and the check of the recovered state; `traced` adds the layer suite
/// after set-up and the traced ops after the reads and after the ingest.
fn one_pass(
    run: &Run,
    deep: bool,
    mut traced: Option<&mut Traced>,
    ledger: &mut Ledger,
    tally: &mut Tally,
) -> Result<Pass, String> {
    let Run {
        plan,
        seed,
        threads,
        ops,
        warm_up_ops,
        scratch,
    } = run;
    let (seed, threads) = (*seed, *threads);
    let (site, mut dep, setup) = set_up_once(plan, scratch.subdir("deployment")?)?;
    let monoliths = match plan.monoliths {
        true => monolith_builds(&site.data, &site.elsi, tally),
        false => Vec::new(),
    };
    let suite = match traced {
        Some(_) => Some(layer_suite(&site, &dep, scratch, seed, ledger, tally)?),
        None => None,
    };

    warm_up(warm_up_ops, &dep);
    let mut samples = Samples::default();
    let live = deep.then_some(site.data.as_slice());
    read_phases(&dep, live, ops, &mut samples, tally);
    if let Some(t) = traced.as_deref_mut() {
        let tr = &mut t.tracer;
        t.wall_s += seconds_of(|| traced_reads(tr, &dep, ops, TRACE_CUT, threads, tally)).1;
        t.plain_s += head_wall_s(&samples, &READ_KINDS, TRACE_CUT);
    }

    let mut model = UpdateStream::over(&site.data, plan.writes, plan.update_batches, seed);
    ingest_beside_reads(&mut dep, &mut model, deep, &mut samples, tally);
    let journaled = dir_bytes_of(&site.dir, ".wal")?.saturating_sub(WAL_HEADER_LEN * SHARDS as u64);
    let exact = ExactCounts {
        disk_bytes_per_user_byte: disk_ratio(&site, model.live_len())?,
        wal_bytes_per_update: journaled as f64
            / (plan.update_batches * BATCH_UPDATES).max(1) as f64,
        rebuilds: samples.rebuilds,
    };
    if let (Some(t), Some(units)) = (traced, suite) {
        let side = scratch.subdir("side-journal")?;
        let mut update_model = UpdateModel {
            units,
            threads,
            // The median batch triggers no rebuild.
            plain_batch_s: median_of_sorted(&sorted(samples.of(Kind::UpdateBatch).to_vec())),
            side_wal: WalWriter::create(&side.join("side.wal")).map_err(|e| e.to_string())?,
        };
        let more = plan.update_batches.div_ceil(TRACE_CUT);
        let (tr, dep, model) = (&mut t.tracer, &mut dep, &mut model);
        t.wall_s +=
            seconds_of(|| traced_ingest(tr, dep, model, 0..more, &mut update_model, tally)).1;
        // As many update batches at the untraced ones' mean cost.
        t.plain_s += head_wall_s(&samples, &INGEST_KINDS, 1) * more as f64
            / plan.update_batches.max(1) as f64;
    }

    // The crash: the deployment goes away with no save since set-up; what
    // survives is the set-up snapshot and the journaled tail.
    drop(dep);
    let mut opens = Vec::new();
    for rep in 0..plan.recover_reps.max(1) {
        let (reopened, s) = reopen_timed(&site)?;
        opens.push(s);
        if deep && rep == 0 {
            verify_recovered(&reopened, &model, tally);
        }
    }
    Ok(Pass {
        samples,
        once: OncePerPass {
            setup,
            monoliths,
            opens,
        },
        exact,
    })
}

pub fn run_workload(
    plan: &Plan,
    seed: u64,
    trace: bool,
    threads: usize,
) -> Result<RunOutput, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .map_err(|e| e.to_string())?;
    let (mut ledger, mut tally) = (Ledger::default(), Tally::default());
    let started = Instant::now();
    let mut traced = trace.then(|| Traced {
        tracer: Tracer::start(),
        wall_s: 0.0,
        plain_s: 0.0,
    });

    // The traced run's end-to-end readings are not the benchmark's: one
    // pass is enough for the ledger beside its spans.
    let passes = if trace { 1 } else { plan.passes.max(1) };
    // Every pass replays the same reads. (Each set-up generates the data
    // again for itself: that is part of what `setup_s` times.)
    let data = plan.dataset.points(plan.n);
    let run = Run {
        plan,
        seed,
        threads,
        ops: ReadOps::draw(plan, &data, seed),
        warm_up_ops: ReadOps::draw(&plan.scaled_to(0.5), &data, seed ^ 0x3A23),
        scratch: ScratchDir::create(&format!("{}-{seed}", plan.name))?,
    };
    drop(data);
    let mut samples = Vec::with_capacity(passes);
    let mut once = Vec::with_capacity(passes);
    let mut exact: Option<ExactCounts> = None;
    for p in 0..passes {
        let pass = one_pass(&run, p == 0, traced.as_mut(), &mut ledger, &mut tally)?;
        // A pass that counted differently did different work: its times
        // would not be times of the same ops.
        tally.note(
            1,
            usize::from(*exact.get_or_insert(pass.exact) != pass.exact),
        );
        samples.push(pass.samples);
        once.push(pass.once);
    }

    summarise(&samples, plan.batched_reads, &mut ledger);
    put_once_per_pass_readings(&once, &mut ledger);
    if let Some(exact) = exact {
        let ratio = exact.disk_bytes_per_user_byte;
        ledger.put_reading("disk_bytes_per_user_byte", ratio, "ratio");
        let per_update = exact.wal_bytes_per_update;
        ledger.put_reading("store.wal_bytes_per_update", per_update, "B/upd");
    }
    // The median batch triggers no rebuild.
    let plain_batch_s = median_of_sorted(&sorted(best_of(&samples, Kind::UpdateBatch)));
    ledger.put_reading(
        "serve.par_apply_us_per_update",
        plain_batch_s * 1e6 / BATCH_UPDATES as f64,
        "us",
    );
    if let (Some(recover), Some(open)) = (
        ledger.reading_named("recover_s").map(|r| r.value),
        ledger
            .reading_named("serve.open_snapshot_s")
            .map(|r| r.value),
    ) {
        ledger.put_reading("serve.open_wal_replay_s", (recover - open).max(0.0), "s");
    }

    let trace_doc = traced.map(|t| {
        let spans = &t.tracer.spans;
        let att = Attribution::of(spans);
        let overhead = (1.0 - t.plain_s / t.wall_s.max(f64::MIN_POSITIVE)).max(0.0);
        put_trace_shares(&att, overhead, &mut ledger);
        for (name, kind) in [
            ("serve.window_gather_self_us", OpKind::Window),
            ("serve.knn_merge_self_us", OpKind::Knn),
        ] {
            ledger.put_reading(name, median_root_self_us(spans, kind), "us");
        }
        trace_document(&t.tracer, &att, overhead, TRACE_SPANS_KEPT)
    });

    ledger.put_reading("wall.total_s", started.elapsed().as_secs_f64(), "s");
    ledger.put_reading("failed_share", tally.failed_share(), "ratio");
    if let Some(mb) = peak_rss_mb() {
        ledger.put_reading("peak_rss_mb", mb, "MB");
    }
    Ok(RunOutput {
        ledger,
        tally,
        trace: trace_doc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PLANS;
    use crate::report::result_line;
    use crate::spec::Spec;

    /// All five workloads at smoke scale, untraced: no op may fail, and the
    /// result line must carry every end-to-end metric `BENCHMARK.json` names.
    #[test]
    fn smoke_pass_of_every_workload_is_correct_and_complete() -> Result<(), String> {
        let spec = Spec::committed()?;
        for plan in PLANS {
            let out = run_workload(&plan.smoke(), 5, false, 2)?;
            assert_eq!(out.tally.failed, 0, "{}: {:?}", plan.name, out.tally);
            assert!(out.tally.attempted > 1_000, "{}", plan.name);
            result_line(&out.ledger, out.tally, &spec.end_to_end)
                .map_err(|e| format!("{}: {e}", plan.name))?;
        }
        Ok(())
    }

    /// One traced smoke pass: every per-layer metric present, shares adding
    /// up to one.
    #[test]
    fn traced_smoke_pass_reports_every_layer_metric() -> Result<(), String> {
        let spec = Spec::committed()?;
        let plan = crate::plan::Plan::named("ingest-durable").ok_or("no plan")?;
        let out = run_workload(&plan.smoke(), 6, true, 2)?;
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally);
        result_line(&out.ledger, out.tally, &spec.per_layer)?;
        let shares: f64 = out
            .ledger
            .all_readings()
            .iter()
            .filter(|r| r.name.starts_with("trace.") && r.name != "trace.overhead_share")
            .map(|r| r.value)
            .sum();
        assert!((shares - 1.0).abs() < 0.01, "shares sum to {shares}");
        assert!(out.trace.is_some());
        Ok(())
    }
}
