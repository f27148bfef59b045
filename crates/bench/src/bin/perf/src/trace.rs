//! The traced pass: the same kinds of op as the untraced pass, each taken
//! apart from the harness side.
//!
//! The product has no spans of its own yet, so an op is decomposed by
//! calling the nested public levels one after another on the same input —
//! `ShardedIndex` → `router()` → `shard(s)` (`UpdateProcessor`) →
//! `.index()` (`DeltaOverlay`) → `.base()` (`ZmIndex`) — and recording one
//! span per call, each naming the span that would have caused it. A layer's
//! self time is its span minus its children. Where a level cannot be
//! called from outside (a shard's update path needs `&mut`), the child is
//! *modelled*: a span whose duration is a count times a unit cost measured
//! on a stand-alone copy of that layer. What no child explains stays with
//! the parent; for ops with modelled children it is reported as
//! unattributed instead.

use crate::deploy::{Deployment, SHARDS};
use crate::inputs::UpdateStream;
use crate::layers::SuiteUnits;
use crate::lifecycle::{head_len, BatchQueries, ReadOps};
use crate::plan::{BATCH_KNN_K, DIRTY_LOOKUPS, DIRTY_WINDOWS, DIRTY_WINDOW_AREA};
use crate::report::{Ledger, Tally};
use crate::stats::{median_of_sorted, sorted};
use elsi::encode_updates;
use elsi_data::stream::Update;
use elsi_indices::SpatialIndex;
use elsi_serve::{canonical_knn_cmp, Router};
use elsi_spatial::{Point, Rect, ScanScratch};
use elsi_store::{Json, WalWriter};
use std::collections::BinaryHeap;
use std::ops::Range;
use std::time::Instant;

/// The layers time is attributed to. `Unattributed` only ever holds the
/// unexplained rest of an op whose children are modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    ServeRouter,
    ServeSharded,
    CoreProcessor,
    CoreOverlay,
    IndicesBase,
    StoreWal,
    CoreRebuild,
    Rayon,
    Unattributed,
}

pub const NAMED_LAYERS: [Layer; 8] = [
    Layer::ServeRouter,
    Layer::ServeSharded,
    Layer::CoreProcessor,
    Layer::CoreOverlay,
    Layer::IndicesBase,
    Layer::StoreWal,
    Layer::CoreRebuild,
    Layer::Rayon,
];

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::ServeRouter => "serve_router",
            Layer::ServeSharded => "serve_sharded",
            Layer::CoreProcessor => "core_processor",
            Layer::CoreOverlay => "core_overlay",
            Layer::IndicesBase => "indices_base",
            Layer::StoreWal => "store_wal",
            Layer::CoreRebuild => "core_rebuild",
            Layer::Rayon => "rayon",
            Layer::Unattributed => "unattributed",
        }
    }
}

/// What kind of op a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    Point,
    Window,
    Knn,
    Batch,
    Update,
}

impl OpKind {
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Point => "point",
            OpKind::Window => "window",
            OpKind::Knn => "knn",
            OpKind::Batch => "batch",
            OpKind::Update => "update",
        }
    }
}

/// One recorded interval. `parent` indexes the span that caused this one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub layer: Layer,
    pub kind: OpKind,
    pub op: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Duration assigned from a unit cost, not measured.
    pub modelled: bool,
}

/// Spans in memory, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    ops: u32,
    kind: OpKind,
}

impl Tracer {
    pub fn start() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            ops: 0,
            kind: OpKind::Point,
        }
    }

    /// Opens the next op: spans recorded from here on carry its id.
    pub fn begin_op(&mut self, kind: OpKind) {
        self.ops += 1;
        self.kind = kind;
    }

    fn push_span(
        &mut self,
        layer: Layer,
        parent: Option<u32>,
        start_ns: u64,
        dur_ns: u64,
        modelled: bool,
    ) -> u32 {
        self.spans.push(Span {
            layer,
            kind: self.kind,
            op: self.ops,
            parent,
            start_ns,
            dur_ns,
            modelled,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a span; the span is stored after `f` returns, so
    /// bookkeeping stays outside the interval.
    pub fn timed_span<T>(
        &mut self,
        layer: Layer,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let id = self.push_span(
            layer,
            parent,
            start.as_nanos() as u64,
            (end - start).as_nanos() as u64,
            false,
        );
        (out, id)
    }

    /// A span whose duration is assigned: `seconds` under `parent`.
    pub fn modelled_span(&mut self, layer: Layer, parent: u32, seconds: f64) -> u32 {
        let start = self.spans.get(parent as usize).map_or(0, |p| p.start_ns);
        self.push_span(
            layer,
            Some(parent),
            start,
            (seconds.max(0.0) * 1e9) as u64,
            true,
        )
    }

    /// Copies the spans of `sub` under `parent`, durations scaled: how one
    /// query's sequential decomposition is charged to the parallel batch
    /// that ran it on one of `1 / scale` threads.
    pub fn graft_scaled(&mut self, sub: &Tracer, parent: u32, scale: f64) {
        let offset = self.spans.len() as u32;
        for s in &sub.spans {
            self.spans.push(Span {
                kind: self.kind,
                op: self.ops,
                parent: Some(s.parent.map_or(parent, |p| p + offset)),
                dur_ns: (s.dur_ns as f64 * scale) as u64,
                modelled: true,
                ..*s
            });
        }
    }

    pub fn span_dur_s(&self, id: u32) -> f64 {
        self.spans
            .get(id as usize)
            .map_or(0.0, |s| s.dur_ns as f64 / 1e9)
    }
}

/// Self time of every span: its duration minus its children's, floored at
/// zero (nested calls are separate calls, so children can add up to a
/// little more than their parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = s.parent.and_then(|p| children.get_mut(p as usize)) {
            *slot += s.dur_ns;
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

/// Self time per (op kind, layer), and the total time of root spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Attribution {
    pub by_kind_layer: Vec<((OpKind, Layer), u64)>,
    pub root_ns: u64,
}

impl Attribution {
    pub fn of(spans: &[Span]) -> Attribution {
        let mut cells: std::collections::BTreeMap<(OpKind, Layer), u64> = Default::default();
        let mut root_ns = 0;
        for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
            *cells.entry((s.kind, s.layer)).or_default() += self_ns;
            if s.parent.is_none() {
                root_ns += s.dur_ns;
            }
        }
        Attribution {
            by_kind_layer: cells.into_iter().collect(),
            root_ns,
        }
    }

    pub fn layer_ns(&self, layer: Layer) -> u64 {
        self.by_kind_layer
            .iter()
            .filter(|((_, l), _)| *l == layer)
            .map(|(_, ns)| ns)
            .sum()
    }

    /// The share of each named layer and the unattributed rest; they add
    /// up to one. The base is the larger of the root spans' time and the
    /// sum of self times (floored children can push the sum a little over).
    pub fn shares(&self) -> (Vec<(Layer, f64)>, f64) {
        let named: u64 = NAMED_LAYERS.iter().map(|l| self.layer_ns(*l)).sum();
        let base = self
            .root_ns
            .max(named + self.layer_ns(Layer::Unattributed))
            .max(1) as f64;
        let shares: Vec<(Layer, f64)> = NAMED_LAYERS
            .iter()
            .map(|l| (*l, self.layer_ns(*l) as f64 / base))
            .collect();
        let rest = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
        (shares, rest.max(0.0))
    }
}

/// What the update model needs: unit costs measured on stand-alone layers
/// by the layer suite, the untraced pass's typical batch, and a journal
/// beside the deployment's to time the same appends on.
pub struct UpdateModel {
    pub units: SuiteUnits,
    pub threads: usize,
    /// Median seconds of a batch that triggered no rebuild.
    pub plain_batch_s: f64,
    pub side_wal: WalWriter,
}

/// Nested read levels of one shard, each a child of the one above.
fn shard_levels<T>(
    tr: &mut Tracer,
    parent: u32,
    dep: &Deployment,
    shard: usize,
    mut call: impl FnMut(&dyn SpatialIndex) -> T,
) -> T {
    let proc = dep.shard(shard);
    let (out, p) = tr.timed_span(Layer::CoreProcessor, Some(parent), || call(proc));
    let (_, o) = tr.timed_span(Layer::CoreOverlay, Some(p), || call(proc.index()));
    tr.timed_span(Layer::IndicesBase, Some(o), || call(proc.index().base()));
    out
}

pub fn traced_lookup(tr: &mut Tracer, dep: &Deployment, q: Point) -> Option<Point> {
    tr.begin_op(OpKind::Point);
    let (answer, root) = tr.timed_span(Layer::ServeSharded, None, || dep.point_query(q));
    let (shard, _) = tr.timed_span(Layer::ServeRouter, Some(root), || dep.router().shard_of(q));
    shard_levels(tr, root, dep, shard, |idx| idx.point_query(q));
    answer
}

pub fn traced_window(
    tr: &mut Tracer,
    dep: &Deployment,
    w: &Rect,
    scratch: &mut ScanScratch,
    out: &mut Vec<Point>,
) {
    tr.begin_op(OpKind::Window);
    let (_, root) = tr.timed_span(Layer::ServeSharded, None, || {
        dep.window_query_into(w, scratch, out)
    });
    let (shards, _) = tr.timed_span(Layer::ServeRouter, Some(root), || {
        dep.router().shards_for_window(w)
    });
    let mut buf = Vec::new();
    for s in shards {
        shard_levels(tr, root, dep, s, |idx| {
            idx.window_query_into(w, scratch, &mut buf)
        });
    }
}

/// kNN, with the fan-out of `ShardedIndex`'s cross-shard merge replayed
/// from outside: shards in MINDIST order until the k-th distance prunes
/// the rest, then the closed ball gathered from every shard it reaches.
/// Returns whether the replayed merge agrees with the product's answer.
pub fn traced_knn(
    tr: &mut Tracer,
    dep: &Deployment,
    q: Point,
    k: usize,
    scratch: &mut ScanScratch,
    out: &mut Vec<Point>,
) -> bool {
    tr.begin_op(OpKind::Knn);
    let (_, root) = tr.timed_span(Layer::ServeSharded, None, || {
        dep.knn_query_into(q, k, scratch, out)
    });
    let (order, _) = tr.timed_span(Layer::ServeRouter, Some(root), || {
        let mut order: Vec<(f64, usize)> = (0..dep.num_shards())
            .map(|s| (dep.router().shard_rect(s).min_dist2(&q), s))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    });
    // Squared distances are non-negative, so their bit patterns order as
    // the numbers do: a max-heap of bits is a max-heap of distances.
    let mut kth: BinaryHeap<u64> = BinaryHeap::new();
    let mut buf = Vec::new();
    for &(min_d2, s) in &order {
        if kth.len() == k
            && kth
                .peek()
                .is_some_and(|&worst| min_d2 > f64::from_bits(worst))
        {
            break;
        }
        shard_levels(tr, root, dep, s, |idx| {
            idx.knn_query_into(q, k, scratch, &mut buf)
        });
        for p in &buf {
            kth.push(q.dist2(p).to_bits());
            if kth.len() > k {
                kth.pop();
            }
        }
    }
    let r2 = match kth.peek() {
        Some(&worst) if kth.len() == k => f64::from_bits(worst),
        _ => f64::INFINITY,
    };
    let r = r2.sqrt();
    let ball = Rect::new(q.x - r, q.y - r, q.x + r, q.y + r);
    let mut merged = Vec::new();
    for &(min_d2, s) in &order {
        if min_d2 > r2 {
            break;
        }
        shard_levels(tr, root, dep, s, |idx| {
            idx.window_query_into(&ball, scratch, &mut buf)
        });
        merged.extend(buf.iter().filter(|p| q.dist2(p) <= r2));
    }
    merged.sort_by(|a, b| canonical_knn_cmp(q, a, b));
    merged.truncate(k);
    merged == *out
}

/// One mixed batch through the `par_*` entry points: the root span is the
/// three calls together, charged to `rayon`; each query is then run alone
/// and its decomposition grafted under the root at `1 / threads` of its
/// sequential time — what it would cost the batch if the split were even.
/// What is left with the root is spawn, join and imbalance.
pub fn traced_batch(tr: &mut Tracer, dep: &Deployment, (ps, ws, ks): BatchQueries, threads: usize) {
    tr.begin_op(OpKind::Batch);
    let (_, root) = tr.timed_span(Layer::Rayon, None, || {
        std::hint::black_box((
            dep.par_point_queries(ps),
            dep.par_window_queries(ws),
            dep.par_knn_queries(ks, BATCH_KNN_K),
        ));
    });
    let mut sub = Tracer::start();
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    for q in ps {
        traced_lookup(&mut sub, dep, *q);
    }
    for w in ws {
        traced_window(&mut sub, dep, w, &mut scratch, &mut out);
    }
    for q in ks {
        traced_knn(&mut sub, dep, *q, BATCH_KNN_K, &mut scratch, &mut out);
    }
    tr.graft_scaled(&sub, root, 1.0 / threads.max(1) as f64);
}

/// Updates on the longest of the contiguous shard chunks the vendored
/// rayon hands to its threads: the batch's critical path.
fn critical_path_updates(dep: &Deployment, batch: &[Update], threads: usize) -> usize {
    let mut per_shard = [0usize; SHARDS];
    for u in batch {
        if let Some(n) = per_shard.get_mut(dep.router().shard_of(u.point())) {
            *n += 1;
        }
    }
    let chunk = SHARDS.div_ceil(threads.clamp(1, SHARDS));
    per_shard
        .chunks(chunk)
        .map(|c| c.iter().sum::<usize>())
        .max()
        .unwrap_or(0)
}

/// One update batch. Only the whole call, the routing loop and the journal
/// writes can be measured from outside; the shard-side work is modelled
/// from unit costs along the critical path, a rebuild is the time a
/// rebuilding batch takes beyond a plain one, and what is left is
/// unattributed.
pub fn traced_update_batch(
    tr: &mut Tracer,
    dep: &mut Deployment,
    batch: &[Update],
    model: &mut UpdateModel,
) -> usize {
    tr.begin_op(OpKind::Update);
    let (rebuilt, root) = tr.timed_span(Layer::ServeSharded, None, || dep.par_apply_updates(batch));
    let dep = &*dep;
    let (mut per_shard, _) = tr.timed_span(Layer::ServeRouter, Some(root), || {
        let mut per: Vec<Vec<Update>> = vec![Vec::new(); dep.num_shards()];
        for u in batch {
            if let Some(sub) = per.get_mut(dep.router().shard_of(u.point())) {
                sub.push(*u);
            }
        }
        per
    });
    per_shard.retain(|sub| !sub.is_empty());
    // The same sub-batches, encoded and appended to a journal beside the
    // deployment's: the same bytes through the same writer.
    let path_share =
        critical_path_updates(dep, batch, model.threads) as f64 / batch.len().max(1) as f64;
    let (_, wal) = tr.timed_span(Layer::StoreWal, Some(root), || {
        for sub in &per_shard {
            let _ = model.side_wal.append(&encode_updates(sub));
        }
    });
    // Journals of different threads' shards are written side by side.
    let wal_s = tr.span_dur_s(wal) * path_share;
    if let Some(s) = tr.spans.get_mut(wal as usize) {
        s.dur_ns = (wal_s * 1e9) as u64;
        s.modelled = true;
    }
    let on_path = path_share * batch.len() as f64;
    tr.modelled_span(
        Layer::CoreOverlay,
        root,
        on_path * model.units.overlay_apply_s,
    );
    tr.modelled_span(
        Layer::CoreProcessor,
        root,
        on_path * (model.units.processor_apply_s - model.units.overlay_apply_s),
    );
    tr.modelled_span(Layer::Rayon, root, model.units.par_spawn_s);
    if rebuilt > 0 {
        tr.modelled_span(
            Layer::CoreRebuild,
            root,
            tr.span_dur_s(root) - model.plain_batch_s,
        );
    }
    // The rest of the root is not the sharded layer's own work but the
    // model's error: move it out from under `serve_sharded`.
    let explained: u64 = tr
        .spans
        .iter()
        .filter(|s| s.parent == Some(root))
        .map(|s| s.dur_ns)
        .sum();
    let rest = tr
        .spans
        .get(root as usize)
        .map_or(0, |r| r.dur_ns.saturating_sub(explained));
    tr.modelled_span(Layer::Unattributed, root, rest as f64 / 1e9);
    rebuilt
}

/// The traced reads: the first `1 / cut` of every phase's ops.
pub fn traced_reads(
    tr: &mut Tracer,
    dep: &Deployment,
    ops: &ReadOps,
    cut: usize,
    threads: usize,
    tally: &mut Tally,
) {
    let head = |len: usize| 0..head_len(len, cut);
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    for q in ops.lookups.get(head(ops.lookups.len())).unwrap_or(&[]) {
        let hit = crate::oracle::lookup_hit(q, &traced_lookup(tr, dep, *q));
        tally.note(1, usize::from(!hit));
    }
    for w in ops.windows.get(head(ops.windows.len())).unwrap_or(&[]) {
        traced_window(tr, dep, w, &mut scratch, &mut out);
        tally.note(1, 0);
    }
    for q in ops.knn_qs.get(head(ops.knn_qs.len())).unwrap_or(&[]) {
        let agrees = traced_knn(tr, dep, *q, ops.knn_k, &mut scratch, &mut out);
        tally.note(1, usize::from(!agrees));
    }
    for batches in [&ops.small, &ops.large] {
        for call in head(batches.calls) {
            traced_batch(tr, dep, batches.call(call), threads);
            tally.note(batches.queries_per_call(), 0);
        }
    }
}

/// The traced pass over the writes: `part` of the stream's batches, each
/// followed by traced read-your-writes reads.
pub fn traced_ingest(
    tr: &mut Tracer,
    dep: &mut Deployment,
    stream: &mut UpdateStream,
    part: Range<usize>,
    model: &mut UpdateModel,
    tally: &mut Tally,
) {
    let (mut scratch, mut out) = (ScanScratch::new(), Vec::new());
    for _ in part {
        let batch = stream.next_batch();
        traced_update_batch(tr, dep, &batch, model);
        tally.note(batch.len(), 0);
        let recent = stream.recent_writes(DIRTY_LOOKUPS);
        for q in &recent {
            let hit = crate::oracle::lookup_hit(q, &traced_lookup(tr, dep, *q));
            tally.note(1, usize::from(!hit));
        }
        for c in recent.iter().take(DIRTY_WINDOWS) {
            let w = Rect::window_around(*c, DIRTY_WINDOW_AREA);
            traced_window(tr, dep, &w, &mut scratch, &mut out);
            tally.note(1, 0);
        }
    }
}

/// Median self time of the `serve_sharded` root over ops of `kind`, in µs:
/// the sharded call minus the per-shard calls it fans out to.
pub fn median_root_self_us(spans: &[Span], kind: OpKind) -> f64 {
    let selfs: Vec<f64> = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.kind == kind && s.parent.is_none())
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    median_of_sorted(&sorted(selfs))
}

/// The `trace.*` metrics.
pub fn put_trace_shares(att: &Attribution, overhead_share: f64, ledger: &mut Ledger) {
    let (shares, rest) = att.shares();
    for (layer, share) in shares {
        ledger.put_reading(
            &format!("trace.{}_self_share", layer.label()),
            share,
            "share",
        );
    }
    ledger.put_reading("trace.unattributed_share", rest, "share");
    ledger.put_reading("trace.overhead_share", overhead_share, "share");
}

/// The `TRACE_<workload>.json` document: the shares, the self time of
/// every (op kind, layer) cell, and the first spans as recorded.
pub fn trace_document(
    tr: &Tracer,
    att: &Attribution,
    overhead_share: f64,
    keep_spans: usize,
) -> Json {
    let (shares, rest) = att.shares();
    let mut share_fields: Vec<(String, Json)> = shares
        .iter()
        .map(|(l, s)| (l.label().to_string(), Json::Num(*s)))
        .collect();
    share_fields.push(("unattributed".to_string(), Json::Num(rest)));
    let cells = att
        .by_kind_layer
        .iter()
        .map(|((kind, layer), ns)| {
            Json::obj(vec![
                ("op", Json::str(kind.label())),
                ("layer", Json::str(layer.label())),
                ("self_ms", Json::Num(*ns as f64 / 1e6)),
            ])
        })
        .collect();
    let spans = tr
        .spans
        .iter()
        .take(keep_spans)
        .enumerate()
        .map(|(i, s)| {
            Json::obj(vec![
                ("id", Json::int(i)),
                ("name", Json::str(s.layer.label())),
                ("op", Json::str(s.kind.label())),
                ("op_id", Json::int(s.op as usize)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::int(p as usize)),
                ),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num((s.start_ns + s.dur_ns) as f64)),
                ("modelled", Json::Bool(s.modelled)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("ops", Json::int(tr.ops as usize)),
        ("spans_recorded", Json::int(tr.spans.len())),
        ("root_ms", Json::Num(att.root_ns as f64 / 1e6)),
        ("self_share", Json::Obj(share_fields)),
        ("overhead_share", Json::Num(overhead_share)),
        ("self_ms_by_op_and_layer", Json::Arr(cells)),
        ("first_spans", Json::Arr(spans)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: Option<u32>, dur_ns: u64) -> Span {
        Span {
            layer,
            kind: OpKind::Point,
            op: 1,
            parent,
            start_ns: 0,
            dur_ns,
            modelled: false,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        // sharded 100 → router 10, processor 70 → overlay 60 → base 45.
        let spans = [
            span(Layer::ServeSharded, None, 100),
            span(Layer::ServeRouter, Some(0), 10),
            span(Layer::CoreProcessor, Some(0), 70),
            span(Layer::CoreOverlay, Some(2), 60),
            span(Layer::IndicesBase, Some(3), 45),
        ];
        assert_eq!(self_times_ns(&spans), [20, 10, 10, 15, 45]);
        let att = Attribution::of(&spans);
        assert_eq!(att.root_ns, 100);
        assert_eq!(att.layer_ns(Layer::IndicesBase), 45);
        let (shares, rest) = att.shares();
        let sum: f64 = shares.iter().map(|(_, s)| s).sum::<f64>() + rest;
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(rest, 0.0);
        assert_eq!(median_root_self_us(&spans, OpKind::Point), 0.02);
    }

    #[test]
    fn children_longer_than_their_parent_floor_at_zero_and_shares_still_sum_to_one() {
        let spans = [
            span(Layer::ServeSharded, None, 50),
            span(Layer::CoreProcessor, Some(0), 40),
            span(Layer::CoreOverlay, Some(1), 45),
            span(Layer::Unattributed, Some(0), 10),
        ];
        assert_eq!(self_times_ns(&spans), [0, 0, 45, 10]);
        let (shares, rest) = Attribution::of(&spans).shares();
        let named: f64 = shares.iter().map(|(_, s)| s).sum();
        assert!((named + rest - 1.0).abs() < 1e-12);
        assert!((rest - 10.0 / 55.0).abs() < 1e-12);
    }

    #[test]
    fn grafting_scales_durations_and_reparents() {
        let mut sub = Tracer::start();
        sub.begin_op(OpKind::Point);
        let (_, a) = sub.timed_span(Layer::ServeSharded, None, || ());
        sub.modelled_span(Layer::ServeRouter, a, 2e-6);
        if let Some(s) = sub.spans.get_mut(0) {
            s.dur_ns = 8_000;
        }
        let mut tr = Tracer::start();
        tr.begin_op(OpKind::Batch);
        let (_, root) = tr.timed_span(Layer::Rayon, None, || ());
        tr.graft_scaled(&sub, root, 0.5);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[1].parent, Some(root));
        assert_eq!(tr.spans[1].dur_ns, 4_000);
        assert_eq!(tr.spans[2].parent, Some(1));
        assert_eq!(tr.spans[2].dur_ns, 1_000);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.kind == OpKind::Batch && s.op == 1));
    }
}
