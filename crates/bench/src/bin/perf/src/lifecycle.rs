//! The untraced pass: the serving lifecycle every workload runs, timed from
//! outside at the `ShardedIndex` boundary. End-to-end metrics come from
//! here and nowhere else.
//!
//! Every timed region holds product calls only. Inputs are generated before
//! it and answers are checked after it.
//!
//! The reference host is a shared one: neighbours slow its memory system in
//! bursts, and a burst only ever adds time. A run therefore makes several
//! identical *passes* of the whole lifecycle — same data, same ops, a fresh
//! deployment each — and keeps, for every timed sample, its best time over
//! the passes. Latencies and throughputs are computed from those best
//! times; what a pass does once (set-up, builds, reopens) is reported at
//! its best repetition.

use crate::deploy::{
    build_deployment, dir_bytes, elsi_system, reopen_deployment, save_deployment, Deployment,
};
use crate::inputs::{
    nudged_off, spread_sample, windows_around, z_ordered, SplitMix, UpdateStream, BATCH_UPDATES,
};
use crate::oracle::{brute_knn, brute_window, canonical, lookup_hit};
use crate::plan::{
    batch_shape, Plan, BATCH_KNN_K, BATCH_WINDOW_AREA, DIRTY_LOOKUPS, DIRTY_WINDOWS,
    DIRTY_WINDOW_AREA, LARGE_BATCH, LOOKUP_CHUNK, SMALL_BATCH,
};
use crate::report::{Ledger, Tally};
use crate::stats::{median_of_sorted, percentile_of_sorted, sorted, tail_percentile};
use elsi::{Elsi, Method};
use elsi_indices::{
    LisaConfig, LisaIndex, MlConfig, MlIndex, RsmiConfig, RsmiIndex, SpatialIndex, ZmConfig,
    ZmIndex,
};
use elsi_spatial::{Point, Rect, ScanScratch};
use std::path::PathBuf;
use std::time::Instant;

/// Seconds a closure took, with its result.
pub fn seconds_of<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// What a deployment was built from and where it is saved.
pub struct Site {
    pub data: Vec<Point>,
    pub elsi: Elsi,
    pub dir: PathBuf,
}

/// Seconds of the three steps of one set-up: generating the data and
/// preparing ELSI, `ShardedIndex::build`, and `save`.
#[derive(Debug, Clone, Copy)]
pub struct SetupSeconds {
    pub generate: f64,
    pub build: f64,
    pub save: f64,
}

/// Generates the data, builds the deployment and saves it (which attaches
/// the per-shard WALs).
pub fn set_up_once(plan: &Plan, dir: PathBuf) -> Result<(Site, Deployment, SetupSeconds), String> {
    let ((data, elsi), generate) =
        seconds_of(|| (plan.dataset.points(plan.n), elsi_system(plan.n)));
    let (mut dep, build) = seconds_of(|| build_deployment(data.clone(), &elsi));
    let (saved, save) = seconds_of(|| save_deployment(&mut dep, &dir));
    saved?;
    let seconds = SetupSeconds {
        generate,
        build,
        save,
    };
    Ok((Site { data, elsi, dir }, dep, seconds))
}

/// What every pass does once: its set-up, on `build-learned` its monolith
/// builds (seconds per kind, in [`MONOLITH_KINDS`] order), and its reopens
/// after the crash.
pub struct OncePerPass {
    pub setup: SetupSeconds,
    pub monoliths: Vec<f64>,
    pub opens: Vec<f64>,
}

/// The best (smallest) of the passes' repetitions of a once-per-pass timing.
fn best(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(f64::INFINITY, f64::min)
}

/// The three steps of set-up, each monolith kind's build and `recover_s`,
/// each at its best repetition. `setup_s` is the sum of its steps;
/// `build_s` is the sum over the monolith kinds where the workload builds
/// them, else the deployment build.
pub fn put_once_per_pass_readings(passes: &[OncePerPass], ledger: &mut Ledger) {
    let column = |pick: fn(&SetupSeconds) -> f64| best(passes.iter().map(|p| pick(&p.setup)));
    let n = passes.len();
    let generate_s = column(|s| s.generate);
    let deploy_build_s = column(|s| s.build);
    let save_s = column(|s| s.save);
    ledger.put_sampled("setup_s", generate_s + deploy_build_s + save_s, "s", n);
    ledger.put_sampled("generate_s", generate_s, "s", n);
    ledger.put_sampled("deploy_build_s", deploy_build_s, "s", n);
    ledger.put_sampled("serve.save_s", save_s, "s", n);
    let mut monolith_sum = 0.0;
    let mut monoliths = 0;
    for (k, kind) in MONOLITH_KINDS.iter().enumerate() {
        let times: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.monoliths.get(k).copied())
            .collect();
        if !times.is_empty() {
            let name = format!("monolith.{kind}_build_s");
            let t = best(times.iter().copied());
            ledger.put_sampled(&name, t, "s", times.len());
            monolith_sum += t;
            monoliths += 1;
        }
    }
    let build_s = if monoliths == 0 {
        deploy_build_s
    } else {
        monolith_sum
    };
    ledger.put_reading("build_s", build_s, "s");
    let opens = passes.iter().map(|p| p.opens.len()).sum();
    let recover_s = best(passes.iter().flat_map(|p| p.opens.iter().copied()));
    ledger.put_sampled("recover_s", recover_s, "s", opens);
}

/// The queries of one mixed batch size: `calls` batches, laid end to end.
pub struct MixedBatches {
    pub calls: usize,
    pub lookups: Vec<Point>,
    pub windows: Vec<Rect>,
    pub knn_qs: Vec<Point>,
    shape: (usize, usize, usize),
}

impl MixedBatches {
    fn draw(by_z: &[Point], size: usize, calls: usize, rng: &mut SplitMix) -> Self {
        let shape = batch_shape(size);
        let centres = spread_sample(by_z, shape.1 * calls, rng);
        let near = spread_sample(by_z, shape.2 * calls, rng);
        Self {
            calls,
            lookups: spread_sample(by_z, shape.0 * calls, rng),
            windows: windows_around(&centres, BATCH_WINDOW_AREA),
            knn_qs: nudged_off(&near, rng),
            shape,
        }
    }

    /// The three query slices of batch `call`.
    pub fn call(&self, call: usize) -> BatchQueries<'_> {
        let (p, w, k) = self.shape;
        (
            self.lookups.get(call * p..(call + 1) * p).unwrap_or(&[]),
            self.windows.get(call * w..(call + 1) * w).unwrap_or(&[]),
            self.knn_qs.get(call * k..(call + 1) * k).unwrap_or(&[]),
        )
    }

    pub fn queries_per_call(&self) -> usize {
        self.shape.0 + self.shape.1 + self.shape.2
    }
}

/// Every read a pass issues, generated up front from the seed: each phase's
/// queries are a sample spread evenly over the data, in shuffled order.
pub struct ReadOps {
    pub lookups: Vec<Point>,
    pub windows: Vec<Rect>,
    pub knn_qs: Vec<Point>,
    pub knn_k: usize,
    pub small: MixedBatches,
    pub large: MixedBatches,
}

impl ReadOps {
    pub fn draw(plan: &Plan, data: &[Point], seed: u64) -> Self {
        let mut rng = SplitMix::seeded(seed ^ 0x0EAD_0B50);
        let by_z = z_ordered(data);
        let centres = spread_sample(&by_z, plan.windows, &mut rng);
        let near = spread_sample(&by_z, plan.knns, &mut rng);
        Self {
            lookups: spread_sample(&by_z, plan.lookup_chunks * LOOKUP_CHUNK, &mut rng),
            windows: windows_around(&centres, plan.window_area),
            knn_qs: nudged_off(&near, &mut rng),
            knn_k: plan.knn_k,
            small: MixedBatches::draw(&by_z, SMALL_BATCH, plan.small_batches, &mut rng),
            large: MixedBatches::draw(&by_z, LARGE_BATCH, plan.large_batches, &mut rng),
        }
    }
}

/// The kinds of timed sample. One sample is one timed region: a chunk of
/// lookups, one query, one batch (its three `par_*` calls), one update batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    LookupChunk,
    Window,
    Knn,
    SmallBatch,
    LargeBatch,
    UpdateBatch,
    DirtyLookups,
    DirtyWindow,
}

const KINDS: usize = 8;

impl Kind {
    /// What a sample is divided by to give the latency reported: lookups
    /// are timed in chunks and reported per lookup; a batch is reported
    /// whole.
    pub fn latency_divisor(self) -> f64 {
        match self {
            Kind::LookupChunk => LOOKUP_CHUNK as f64,
            Kind::DirtyLookups => DIRTY_LOOKUPS as f64,
            _ => 1.0,
        }
    }

    /// Ops one sample of this kind covers.
    pub fn ops_per_sample(self) -> usize {
        match self {
            Kind::LookupChunk => LOOKUP_CHUNK,
            Kind::Window | Kind::Knn | Kind::DirtyWindow => 1,
            Kind::SmallBatch => SMALL_BATCH,
            Kind::LargeBatch => LARGE_BATCH,
            Kind::UpdateBatch => BATCH_UPDATES,
            Kind::DirtyLookups => DIRTY_LOOKUPS,
        }
    }
}

/// Seconds of every timed sample of one pass, by kind, in op order.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    secs: [Vec<f64>; KINDS],
    pub rebuilds: usize,
}

impl Samples {
    fn keep(&mut self, kind: Kind, secs: f64) {
        if let Some(xs) = self.secs.get_mut(kind as usize) {
            xs.push(secs);
        }
    }

    pub fn of(&self, kind: Kind) -> &[f64] {
        self.secs.get(kind as usize).map_or(&[], Vec::as_slice)
    }
}

/// Every `stride`-th op is checked against brute force: at least `want`
/// checks when the phase has that many ops.
fn check_stride(ops: usize, want: usize) -> usize {
    (ops / want.max(1)).max(1)
}

/// Sequential point lookups, timed in chunks. Every lookup must hit.
fn lookups_one_by_one(
    dep: &Deployment,
    qs: &[Point],
    kind: Kind,
    s: &mut Samples,
    tally: &mut Tally,
) {
    let chunk = kind.ops_per_sample();
    let mut answers: Vec<Option<Point>> = vec![None; chunk];
    for chunk in qs.chunks(chunk) {
        let t = Instant::now();
        for (slot, q) in answers.iter_mut().zip(chunk) {
            *slot = dep.point_query(*q);
        }
        s.keep(kind, t.elapsed().as_secs_f64());
        let misses = chunk
            .iter()
            .zip(&answers)
            .filter(|(q, a)| !lookup_hit(q, a))
            .count();
        tally.note(chunk.len(), misses);
    }
}

/// Sequential windows through the `_into` path with one reused scratch;
/// with a live set, at least 64 answers over the phase are compared with
/// the brute-force set.
fn windows_one_by_one(
    dep: &Deployment,
    live: Option<&[Point]>,
    ws: &[Rect],
    s: &mut Samples,
    tally: &mut Tally,
) {
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    let stride = check_stride(ws.len(), 64);
    for (i, w) in ws.iter().enumerate() {
        let t = Instant::now();
        dep.window_query_into(w, &mut scratch, &mut out);
        s.keep(Kind::Window, t.elapsed().as_secs_f64());
        let checked = live.filter(|_| i.is_multiple_of(stride));
        let wrong = checked.is_some_and(|live| out != brute_window(live, w));
        tally.note(1, usize::from(wrong));
    }
}

/// Sequential kNN through the `_into` path; with a live set, at least 32
/// answers over the phase are compared with the canonical brute-force top-k.
fn knns_one_by_one(
    dep: &Deployment,
    live: Option<&[Point]>,
    (qs, k): (&[Point], usize),
    s: &mut Samples,
    tally: &mut Tally,
) {
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    let stride = check_stride(qs.len(), 32);
    for (i, q) in qs.iter().enumerate() {
        let t = Instant::now();
        dep.knn_query_into(*q, k, &mut scratch, &mut out);
        s.keep(Kind::Knn, t.elapsed().as_secs_f64());
        let checked = live.filter(|_| i.is_multiple_of(stride));
        let wrong = checked.is_some_and(|live| out != brute_knn(live, *q, k));
        tally.note(1, usize::from(wrong));
    }
}

/// The lookups, windows and kNN centres of one mixed batch.
pub type BatchQueries<'a> = (&'a [Point], &'a [Rect], &'a [Point]);
/// Their answers, as the three `par_*` calls return them.
type BatchAnswers<'a> = (&'a [Option<Point>], &'a [Vec<Point>], &'a [Vec<Point>]);

/// Misses among the answers of one mixed batch: every lookup must hit,
/// and with a live set the first two windows and the first kNN query must
/// equal brute force.
fn mixed_batch_misses(
    live: Option<&[Point]>,
    (ps, ws, ks): BatchQueries,
    (pa, wa, ka): BatchAnswers,
) -> usize {
    let mut misses = ps.iter().zip(pa).filter(|(q, a)| !lookup_hit(q, a)).count()
        + ps.len().abs_diff(pa.len())
        + ws.len().abs_diff(wa.len())
        + ks.len().abs_diff(ka.len());
    if let Some(live) = live {
        for (w, a) in ws.iter().zip(wa).take(2) {
            misses += usize::from(*a != brute_window(live, w));
        }
        for (q, a) in ks.iter().zip(ka).take(1) {
            misses += usize::from(*a != brute_knn(live, *q, BATCH_KNN_K));
        }
    }
    misses
}

/// Mixed batches through `par_point_queries` / `par_window_queries` /
/// `par_knn_queries`; one sample is one batch (three calls).
fn mixed_batches(
    dep: &Deployment,
    live: Option<&[Point]>,
    (batches, kind): (&MixedBatches, Kind),
    s: &mut Samples,
    tally: &mut Tally,
) {
    // Two windows and one kNN answer of every `stride`-th batch go to brute
    // force: 64 and 32 over the phase.
    let stride = check_stride(batches.calls, 32);
    for call in 0..batches.calls {
        let (ps, ws, ks) = batches.call(call);
        let t = Instant::now();
        let pa = dep.par_point_queries(ps);
        let wa = dep.par_window_queries(ws);
        let ka = dep.par_knn_queries(ks, BATCH_KNN_K);
        s.keep(kind, t.elapsed().as_secs_f64());
        let checked = live.filter(|_| call.is_multiple_of(stride));
        let misses = mixed_batch_misses(checked, (ps, ws, ks), (&pa, &wa, &ka));
        tally.note(batches.queries_per_call(), misses);
    }
}

/// The five read phases, in lifecycle order. Every lookup is checked; the
/// brute-force comparisons are made where `live` gives the stored points.
pub fn read_phases(
    dep: &Deployment,
    live: Option<&[Point]>,
    ops: &ReadOps,
    s: &mut Samples,
    tally: &mut Tally,
) {
    lookups_one_by_one(dep, &ops.lookups, Kind::LookupChunk, s, tally);
    windows_one_by_one(dep, live, &ops.windows, s, tally);
    let knns = (ops.knn_qs.as_slice(), ops.knn_k);
    knns_one_by_one(dep, live, knns, s, tally);
    mixed_batches(dep, live, (&ops.small, Kind::SmallBatch), s, tally);
    mixed_batches(dep, live, (&ops.large, Kind::LargeBatch), s, tally);
}

/// A discarded warm-up — a twentieth as many reads of every phase again —
/// so that lazy allocation, first-touch page faults on the fresh index and
/// branch history are paid before a pass's first sample. Updates are not
/// warmed up: they would change the state the measured stream starts from.
/// Samples and verdicts are discarded.
pub fn warm_up(ops: &ReadOps, dep: &Deployment) {
    let (mut samples, mut tally) = (Samples::default(), Tally::default());
    read_phases(dep, None, ops, &mut samples, &mut tally);
}

/// The stream's planned update batches through `par_apply_updates`, each
/// followed by lookups of recent writes and small windows around them
/// (with `deep`, at least 64 of the windows compared with brute force over
/// the model's live set). Afterwards the stream's model is the state every
/// acknowledged update should have produced.
pub fn ingest_beside_reads(
    dep: &mut Deployment,
    stream: &mut UpdateStream,
    deep: bool,
    s: &mut Samples,
    tally: &mut Tally,
) {
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    let stride = check_stride(stream.total_batches() * DIRTY_WINDOWS, 64);
    for b in 0..stream.total_batches() {
        let batch = stream.next_batch();
        let t = Instant::now();
        let rebuilt = dep.par_apply_updates(&batch);
        s.keep(Kind::UpdateBatch, t.elapsed().as_secs_f64());
        s.rebuilds += rebuilt;
        tally.note(batch.len(), 0);

        let recent = stream.recent_writes(DIRTY_LOOKUPS);
        lookups_one_by_one(dep, &recent, Kind::DirtyLookups, s, tally);
        for (i, c) in recent.iter().take(DIRTY_WINDOWS).enumerate() {
            let w = Rect::window_around(*c, DIRTY_WINDOW_AREA);
            let t = Instant::now();
            dep.window_query_into(&w, &mut scratch, &mut out);
            s.keep(Kind::DirtyWindow, t.elapsed().as_secs_f64());
            let wrong = deep
                && (b * DIRTY_WINDOWS + i).is_multiple_of(stride)
                && out != brute_window(stream.live_iter(), &w);
            tally.note(1, usize::from(wrong));
        }
    }
    // A journal that failed or detached means updates were acknowledged
    // that a crash would lose: each such shard is a failed operation.
    let unjournaled = (0..dep.num_shards())
        .filter(|&sh| !dep.shard(sh).wal_attached() || dep.shard(sh).wal_error().is_some())
        .count();
    tally.note(dep.num_shards(), unjournaled);
}

/// Reopens the crashed deployment from its directory; with the seconds
/// `open` took.
pub fn reopen_timed(site: &Site) -> Result<(Deployment, f64), String> {
    let (dep, s) = seconds_of(|| reopen_deployment(&site.dir, &site.elsi));
    Ok((dep?, s))
}

/// Checks that a reopened deployment holds exactly the model's live set:
/// every acknowledged insert readable, every acknowledged delete gone.
pub fn verify_recovered(dep: &Deployment, model: &UpdateStream, tally: &mut Tally) {
    let want = canonical(model.live_iter().copied().collect());
    let got = dep.window_query(&Rect::unit());
    let wrong = if got == want {
        0
    } else {
        // Count what differs, so the failure share says how bad it is.
        let same = got.iter().zip(&want).filter(|(a, b)| a == b).count();
        got.len().max(want.len()) - same
    };
    tally.note(
        want.len().max(1),
        wrong + usize::from(dep.len() != want.len()),
    );
}

/// The learned index kinds `build-learned` builds as monoliths.
pub const MONOLITH_KINDS: [&str; 4] = ["zm", "ml", "rsmi", "lisa"];

/// Builds ZM, ML-Index, RSMI and LISA once each over `data` with the RS
/// method; returns the seconds per kind, in [`MONOLITH_KINDS`] order. Each
/// built index must find a sample of its points.
pub fn monolith_builds(data: &[Point], elsi: &Elsi, tally: &mut Tally) -> Vec<f64> {
    let rs = elsi.fixed_builder(Method::Rs);
    let rs_lisa = elsi.fixed_builder(Method::Rs).for_lisa();
    let probes: Vec<Point> = data
        .iter()
        .step_by((data.len() / 256).max(1))
        .copied()
        .collect();
    MONOLITH_KINDS
        .iter()
        .map(|kind| {
            let pts = data.to_vec();
            let t = Instant::now();
            let idx: Box<dyn SpatialIndex> = match *kind {
                "zm" => Box::new(ZmIndex::build(pts, &ZmConfig::default(), &rs)),
                "ml" => Box::new(MlIndex::build(pts, &MlConfig::default(), &rs)),
                "rsmi" => Box::new(RsmiIndex::build(pts, &RsmiConfig::default(), &rs)),
                _ => Box::new(LisaIndex::build(pts, &LisaConfig::default(), &rs_lisa)),
            };
            let secs = t.elapsed().as_secs_f64();
            let misses = probes
                .iter()
                .filter(|q| !lookup_hit(q, &idx.point_query(**q)))
                .count()
                + usize::from(idx.len() != data.len());
            tally.note(probes.len(), misses);
            secs
        })
        .collect()
}

/// Every sample of one kind at its best time over the passes, in op order.
/// The passes replay the same ops, so sample `i` of each is the same op.
pub fn best_of(passes: &[Samples], kind: Kind) -> Vec<f64> {
    let mut columns = passes.iter().map(|p| p.of(kind));
    let mut best = columns.next().unwrap_or(&[]).to_vec();
    for column in columns {
        best.truncate(column.len());
        for (b, x) in best.iter_mut().zip(column) {
            *b = b.min(*x);
        }
    }
    best
}

/// Turns the passes' samples into the named metrics, all from each
/// sample's best time over the passes: a latency is the median over a
/// kind's samples (and its tail), a throughput is ops over the sum of
/// their best times.
pub fn summarise(passes: &[Samples], batched_reads: bool, ledger: &mut Ledger) {
    let count = |kind: Kind| best_of(passes, kind).len();
    // A workload without a clean sequential phase of a kind reports its
    // read-your-writes reads — against a dirty overlay — under that name.
    let or_dirty = |clean: Kind, dirty: Kind| match count(clean) {
        0 => dirty,
        _ => clean,
    };
    for (p50, tail, kind, scale, unit) in [
        (
            "point_p50_us",
            "point_p99_us",
            or_dirty(Kind::LookupChunk, Kind::DirtyLookups),
            1e6,
            "us",
        ),
        (
            "window_p50_us",
            "window_p99_us",
            or_dirty(Kind::Window, Kind::DirtyWindow),
            1e6,
            "us",
        ),
        ("knn_p50_us", "knn_p99_us", Kind::Knn, 1e6, "us"),
        (
            "batch64_p50_us",
            "batch64_p99_us",
            Kind::SmallBatch,
            1e6,
            "us",
        ),
        (
            "update_batch_p50_ms",
            "update_batch_p99_ms",
            Kind::UpdateBatch,
            1e3,
            "ms",
        ),
        (
            "core.overlay_dirty_point_us",
            "",
            Kind::DirtyLookups,
            1e6,
            "us",
        ),
        (
            "core.overlay_dirty_window_us",
            "",
            Kind::DirtyWindow,
            1e6,
            "us",
        ),
    ] {
        let xs = sorted(best_of(passes, kind));
        if xs.is_empty() {
            continue;
        }
        let scale = scale / kind.latency_divisor();
        ledger.put_sampled(p50, median_of_sorted(&xs) * scale, unit, xs.len());
        if !tail.is_empty() {
            // The p99, or the highest of p95 and p90 with ten samples
            // beyond it, or a short phase's maximum; the reading says which.
            let p = tail_percentile(xs.len()).unwrap_or(100.0);
            let value = percentile_of_sorted(&xs, p) * scale;
            ledger.put_percentile(tail, value, unit, xs.len(), p);
        }
    }

    // `read_kqps` is the throughput of the reads the workload is about; the
    // other kind's phases are too short here to say anything about it.
    let own_reads = if batched_reads {
        &[Kind::LargeBatch][..]
    } else {
        &SEQUENTIAL_READ_KINDS[..]
    };
    for (name, unit, kinds) in [
        ("read_kqps", "kq/s", own_reads),
        ("serve.batch16k_kqps", "kq/s", &[Kind::LargeBatch][..]),
        ("update_kops_s", "kops/s", &[Kind::UpdateBatch][..]),
    ] {
        let ops: usize = kinds.iter().map(|k| count(*k) * k.ops_per_sample()).sum();
        let wall: f64 = kinds.iter().flat_map(|k| best_of(passes, *k)).sum();
        if wall > 0.0 {
            ledger.put_sampled(name, ops as f64 / wall / 1e3, unit, ops);
        }
    }

    // Every pass applies the same stream to the same deployment.
    let rebuilds = passes.first().map_or(0, |p| p.rebuilds);
    let batches = count(Kind::UpdateBatch);
    ledger.put_reading("core.rebuild_count", rebuilds as f64, "count");
    ledger.put_reading(
        "rebuild_batch_share",
        rebuilds as f64 / batches.max(1) as f64,
        "share",
    );
}

/// `len / cut`, rounded to the nearest: how many of a phase's `len` ops the
/// traced run replays (of five 16 384-query batches one, of one none).
pub fn head_len(len: usize, cut: usize) -> usize {
    (len + cut / 2) / cut.max(1)
}

/// Wall seconds of the first `1 / cut` of one pass's samples of `kinds`.
pub fn head_wall_s(pass: &Samples, kinds: &[Kind], cut: usize) -> f64 {
    kinds
        .iter()
        .map(|k| pass.of(*k))
        .flat_map(|xs| xs.iter().take(head_len(xs.len(), cut)))
        .sum()
}

/// Reads issued one at a time: the clean phases and the read-your-writes
/// reads beside the update batches.
pub const SEQUENTIAL_READ_KINDS: [Kind; 5] = [
    Kind::LookupChunk,
    Kind::Window,
    Kind::Knn,
    Kind::DirtyLookups,
    Kind::DirtyWindow,
];
pub const READ_KINDS: [Kind; 5] = [
    Kind::LookupChunk,
    Kind::Window,
    Kind::Knn,
    Kind::SmallBatch,
    Kind::LargeBatch,
];
pub const INGEST_KINDS: [Kind; 3] = [Kind::UpdateBatch, Kind::DirtyLookups, Kind::DirtyWindow];

/// Disk bytes per byte of user data: the serving directory against 24 B
/// (id, x, y) per live point.
pub fn disk_ratio(site: &Site, live_points: usize) -> Result<f64, String> {
    Ok(dir_bytes(&site.dir)? as f64 / (24.0 * live_points.max(1) as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass_of(windows: &[f64], batches: &[f64]) -> Samples {
        let mut s = Samples::default();
        windows.iter().for_each(|x| s.keep(Kind::Window, *x));
        batches.iter().for_each(|x| s.keep(Kind::LargeBatch, *x));
        s
    }

    #[test]
    fn every_sample_is_reported_at_its_best_pass() {
        // Seconds that are exact in binary, so the sums below are too.
        let passes = [
            pass_of(&[0.75, 2.0, 1.25], &[0.5]),
            pass_of(&[1.0, 0.5, 1.25], &[0.25]),
            pass_of(&[2.0, 1.75, 0.25], &[1.0]),
        ];
        assert_eq!(best_of(&passes, Kind::Window), [0.75, 0.5, 0.25]);
        assert_eq!(best_of(&passes, Kind::Knn), [0.0; 0]);
        assert_eq!(best_of(&[], Kind::Window), [0.0; 0]);
        assert_eq!(head_wall_s(&passes[0], &[Kind::Window], 3), 0.75);
        assert_eq!(
            [1, 4, 5, 40, 4096].map(|n| head_len(n, 10)),
            [0, 0, 1, 4, 410]
        );

        let reading = |batched: bool, name: &str| {
            let mut l = Ledger::default();
            summarise(&passes, batched, &mut l);
            l.reading_named(name).map(|r| r.value)
        };
        assert_eq!(reading(false, "window_p50_us"), Some(0.5e6));
        // Sequential reads: 3 windows in 1.5 s; batched: 16 384 in 0.25 s.
        assert_eq!(reading(false, "read_kqps"), Some(3.0 / 1.5 / 1e3));
        let batched = LARGE_BATCH as f64 / 0.25 / 1e3;
        assert_eq!(reading(true, "read_kqps"), Some(batched));
        assert_eq!(reading(true, "knn_p50_us"), None);
    }
}
