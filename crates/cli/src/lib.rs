//! # elsi-cli
//!
//! A small command-line front end over the ELSI stack, the artifact a
//! downstream user would actually run:
//!
//! ```text
//! elsi generate <dataset> <n> <out.csv> [--seed S]
//! elsi inspect <in.csv>
//! elsi build <in.csv> [--index zm|ml|rsmi|lisa|flood] [--method rs|sp|cl|mr|rl|og|pwl|elsi]
//! elsi query <in.csv> --point X,Y | --window LOX,LOY,HIX,HIY | --knn X,Y,K
//! elsi save <in.csv> <dir> [--shards RxC] [--router grid|learned] [--seed S]
//! elsi load <dir>
//! ```
//!
//! Sharded serving (`--shards RxC`) accepts `--router grid|learned` to
//! pick the shard-boundary policy: uniform grid cells, or equi-mass
//! quantile cuts learned from the data's empirical CDFs (`elsi-serve`).
//!
//! Durability (`DESIGN.md` §14): `save` persists a ZM sharded deployment
//! into a serving directory, `load` recovers one and reports what came
//! back, and `--persist <dir>` on `query`/`ingest` serves from the
//! directory when it exists (crash recovery: snapshots + journaled WAL
//! tails) or builds from the CSV and persists on first use. The persisted
//! paths are ZM-only — that is the index kind with an exact state codec,
//! so recovery decodes shard state instead of retraining models.
//!
//! Command logic lives here so it is unit-testable; `main.rs` only parses
//! `std::env::args` and prints.

#![warn(missing_docs)]
#![warn(clippy::all)]

use elsi::{DeltaOverlay, Elsi, ElsiConfig, Method, RebuildFn, RebuildPolicy, UpdateProcessor};
use elsi_data::{dist_from_uniform, io, stream, Dataset};
use elsi_indices::{
    FloodConfig, FloodIndex, LisaConfig, LisaIndex, MlConfig, MlIndex, ModelBuilder, PwlBuilder,
    RsmiConfig, RsmiIndex, SpatialIndex, ZmConfig, ZmIndex,
};
use elsi_serve::{
    read_manifest, zm_codec, GridRouter, LearnedRouter, PersistRouter, ShardedConfig, ShardedIndex,
    MANIFEST_NAME,
};
use elsi_spatial::{KeyMapper, MortonMapper, Point, Rect};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a named data set to CSV.
    Generate {
        /// Which catalog data set.
        dataset: Dataset,
        /// Number of points.
        n: usize,
        /// Output path.
        out: String,
        /// Generator seed.
        seed: u64,
    },
    /// Print statistics of a CSV point set.
    Inspect {
        /// Input path.
        input: String,
    },
    /// Build an index and report build/query costs.
    Build {
        /// Input path.
        input: String,
        /// Base index kind.
        index: IndexChoice,
        /// Building method.
        method: MethodChoice,
    },
    /// Ingest a churn update stream in batches and report throughput.
    Ingest {
        /// Input path (the base point set).
        input: String,
        /// Base index kind.
        index: IndexChoice,
        /// Number of stream updates to apply.
        updates: usize,
        /// Batch size (`0` = the whole stream in one batch).
        batch: usize,
        /// Route through an R×C sharded deployment (`--shards RxC`).
        shards: Option<(usize, usize)>,
        /// Shard-boundary policy for `--shards` (`--router grid|learned`).
        router: RouterChoice,
        /// Serve from (and checkpoint into) a durable serving directory
        /// (`--persist <dir>`; ZM only).
        persist: Option<String>,
        /// Stream seed.
        seed: u64,
    },
    /// Answer one query over a CSV point set.
    Query {
        /// Input path.
        input: String,
        /// Base index kind.
        index: IndexChoice,
        /// The query.
        query: QuerySpec,
        /// Serve through an R×C sharded deployment instead of a monolith
        /// (`--shards RxC`; see `elsi-serve`).
        shards: Option<(usize, usize)>,
        /// Shard-boundary policy for `--shards` (`--router grid|learned`).
        router: RouterChoice,
        /// Serve from a durable serving directory, building and saving it
        /// on first use (`--persist <dir>`; ZM only).
        persist: Option<String>,
    },
    /// Build a ZM sharded deployment and persist it into a directory.
    Save {
        /// Input path (the base point set).
        input: String,
        /// Serving directory to write.
        dir: String,
        /// Deployment shape (`--shards RxC`).
        shards: (usize, usize),
        /// Shard-boundary policy (`--router grid|learned`).
        router: RouterChoice,
        /// Deployment root seed.
        seed: u64,
    },
    /// Recover a persisted deployment and report what came back.
    Load {
        /// Serving directory to read.
        dir: String,
    },
}

/// Base index selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// ZM: the Z-order model index (the workhorse).
    Zm,
    /// ML-Index: iDistance keys over pivot distances.
    Ml,
    /// RSMI: the recursive spatial model index.
    Rsmi,
    /// LISA: learned mapped-cell shards.
    Lisa,
    /// Flood: a query-aware learned multi-dimensional index.
    Flood,
}

impl IndexChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "zm" => Ok(Self::Zm),
            "ml" => Ok(Self::Ml),
            "rsmi" => Ok(Self::Rsmi),
            "lisa" => Ok(Self::Lisa),
            "flood" => Ok(Self::Flood),
            other => Err(format!(
                "unknown index {other:?} (expected zm|ml|rsmi|lisa|flood)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Zm => "ZM",
            Self::Ml => "ML",
            Self::Rsmi => "RSMI",
            Self::Lisa => "LISA",
            Self::Flood => "Flood",
        }
    }
}

/// Shard-routing policy selection (`--router`, only with `--shards`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterChoice {
    /// Uniform R×C grid cells (`elsi_serve::GridRouter`).
    #[default]
    Grid,
    /// Equi-mass quantile cuts learned from the data's empirical CDFs
    /// (`elsi_serve::LearnedRouter`) — balances shard load under skew.
    Learned,
}

impl RouterChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "grid" => Ok(Self::Grid),
            "learned" => Ok(Self::Learned),
            other => Err(format!("unknown router {other:?} (expected grid|learned)")),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Self::Grid => "grid",
            Self::Learned => "learned",
        }
    }
}

/// Building-method selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodChoice {
    /// A fixed ELSI pool method (or OG / RSP).
    Fixed(Method),
    /// The ε-bounded piecewise-linear family.
    Pwl,
    /// The learned selector (requires a quick preparation pass).
    Selector,
}

impl MethodChoice {
    fn parse(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "sp" => Ok(Self::Fixed(Method::Sp)),
            "rsp" => Ok(Self::Fixed(Method::Rsp)),
            "cl" => Ok(Self::Fixed(Method::Cl)),
            "mr" => Ok(Self::Fixed(Method::Mr)),
            "rs" => Ok(Self::Fixed(Method::Rs)),
            "rl" => Ok(Self::Fixed(Method::Rl)),
            "og" => Ok(Self::Fixed(Method::Og)),
            "pwl" => Ok(Self::Pwl),
            "elsi" => Ok(Self::Selector),
            other => Err(format!(
                "unknown method {other:?} (expected sp|rsp|cl|mr|rs|rl|og|pwl|elsi)"
            )),
        }
    }
}

/// A single query.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySpec {
    /// Exact point lookup.
    Point(Point),
    /// Window query.
    Window(Rect),
    /// k-nearest-neighbour query.
    Knn(Point, usize),
}

fn parse_dataset(s: &str) -> Result<Dataset, String> {
    Dataset::all()
        .into_iter()
        .find(|d| d.name().eq_ignore_ascii_case(s))
        .ok_or_else(|| {
            let names: Vec<&str> = Dataset::all().iter().map(|d| d.name()).collect();
            format!("unknown dataset {s:?} (expected one of {names:?})")
        })
}

fn parse_floats(s: &str, want: usize) -> Result<Vec<f64>, String> {
    let vals: Result<Vec<f64>, _> = s.split(',').map(|v| v.trim().parse::<f64>()).collect();
    let vals = vals.map_err(|e| format!("bad number in {s:?}: {e}"))?;
    if vals.len() != want {
        return Err(format!(
            "expected {want} comma-separated numbers, got {}",
            vals.len()
        ));
    }
    Ok(vals)
}

fn parse_shards_spec(spec: &str) -> Result<(usize, usize), String> {
    let (r, c) = spec
        .split_once(['x', 'X'])
        .ok_or_else(|| format!("--shards: bad grid {spec:?} (want RxC)"))?;
    let parse = |v: &str, what: &str| {
        v.trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("--shards: bad {what} in {spec:?}"))
    };
    Ok((parse(r, "rows")?, parse(c, "cols")?))
}

/// Parses command-line arguments (without the program name).
// lint:serving_root
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or_else(usage)?;
    match cmd.as_str() {
        "generate" => {
            let dataset = parse_dataset(it.next().ok_or("generate: missing dataset")?)?;
            let n: usize = it
                .next()
                .ok_or("generate: missing n")?
                .parse()
                .map_err(|e| format!("bad n: {e}"))?;
            let out = it.next().ok_or("generate: missing output path")?.clone();
            let mut seed = 42u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    other => return Err(format!("generate: unknown flag {other:?}")),
                }
            }
            Ok(Command::Generate {
                dataset,
                n,
                out,
                seed,
            })
        }
        "inspect" => {
            let input = it.next().ok_or("inspect: missing input path")?.clone();
            Ok(Command::Inspect { input })
        }
        "build" => {
            let input = it.next().ok_or("build: missing input path")?.clone();
            let mut index = IndexChoice::Zm;
            let mut method = MethodChoice::Fixed(Method::Rs);
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--index" => {
                        index = IndexChoice::parse(it.next().ok_or("--index needs a value")?)?
                    }
                    "--method" => {
                        method = MethodChoice::parse(it.next().ok_or("--method needs a value")?)?
                    }
                    other => return Err(format!("build: unknown flag {other:?}")),
                }
            }
            Ok(Command::Build {
                input,
                index,
                method,
            })
        }
        "ingest" => {
            let input = it.next().ok_or("ingest: missing input path")?.clone();
            let mut index = IndexChoice::Zm;
            let mut updates = 1000usize;
            let mut batch = 0usize;
            let mut shards = None;
            let mut router = None;
            let mut persist = None;
            let mut seed = 7u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--index" => {
                        index = IndexChoice::parse(it.next().ok_or("--index needs a value")?)?
                    }
                    "--updates" => {
                        updates = it
                            .next()
                            .ok_or("--updates needs a count")?
                            .parse()
                            .ok()
                            .filter(|&n| n >= 1)
                            .ok_or("--updates: want a positive count")?;
                    }
                    "--batch" => {
                        batch = it
                            .next()
                            .ok_or("--batch needs a size (0 = one batch)")?
                            .parse()
                            .map_err(|e| format!("bad batch size: {e}"))?;
                    }
                    "--shards" => {
                        let spec = it.next().ok_or("--shards needs RxC (e.g. 2x2)")?;
                        shards = Some(parse_shards_spec(spec)?);
                    }
                    "--router" => {
                        router = Some(RouterChoice::parse(
                            it.next().ok_or("--router needs grid|learned")?,
                        )?);
                    }
                    "--persist" => {
                        persist = Some(it.next().ok_or("--persist needs a directory")?.clone());
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    other => return Err(format!("ingest: unknown flag {other:?}")),
                }
            }
            if router.is_some() && shards.is_none() && persist.is_none() {
                return Err("ingest: --router requires --shards or --persist".into());
            }
            Ok(Command::Ingest {
                input,
                index,
                updates,
                batch,
                shards,
                router: router.unwrap_or_default(),
                persist,
                seed,
            })
        }
        "query" => {
            let input = it.next().ok_or("query: missing input path")?.clone();
            let mut index = IndexChoice::Zm;
            let mut query = None;
            let mut shards = None;
            let mut router = None;
            let mut persist = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--index" => {
                        index = IndexChoice::parse(it.next().ok_or("--index needs a value")?)?
                    }
                    "--shards" => {
                        let spec = it.next().ok_or("--shards needs RxC (e.g. 2x2)")?;
                        shards = Some(parse_shards_spec(spec)?);
                    }
                    "--router" => {
                        router = Some(RouterChoice::parse(
                            it.next().ok_or("--router needs grid|learned")?,
                        )?);
                    }
                    "--point" => {
                        let v = parse_floats(it.next().ok_or("--point needs X,Y")?, 2)?;
                        query = Some(QuerySpec::Point(Point::at(v[0], v[1])));
                    }
                    "--window" => {
                        let v =
                            parse_floats(it.next().ok_or("--window needs LOX,LOY,HIX,HIY")?, 4)?;
                        query = Some(QuerySpec::Window(Rect::new(v[0], v[1], v[2], v[3])));
                    }
                    "--knn" => {
                        let v = parse_floats(it.next().ok_or("--knn needs X,Y,K")?, 3)?;
                        if v[2] < 1.0 || v[2].fract() != 0.0 {
                            return Err("--knn: K must be a positive integer".into());
                        }
                        query = Some(QuerySpec::Knn(Point::at(v[0], v[1]), v[2] as usize));
                    }
                    "--persist" => {
                        persist = Some(it.next().ok_or("--persist needs a directory")?.clone());
                    }
                    other => return Err(format!("query: unknown flag {other:?}")),
                }
            }
            let query = query.ok_or("query: one of --point/--window/--knn is required")?;
            if router.is_some() && shards.is_none() && persist.is_none() {
                return Err("query: --router requires --shards or --persist".into());
            }
            Ok(Command::Query {
                input,
                index,
                query,
                shards,
                router: router.unwrap_or_default(),
                persist,
            })
        }
        "save" => {
            let input = it.next().ok_or("save: missing input path")?.clone();
            let dir = it.next().ok_or("save: missing serving directory")?.clone();
            let mut shards = (2usize, 2usize);
            let mut router = RouterChoice::default();
            let mut seed = 42u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--shards" => {
                        let spec = it.next().ok_or("--shards needs RxC (e.g. 2x2)")?;
                        shards = parse_shards_spec(spec)?;
                    }
                    "--router" => {
                        router =
                            RouterChoice::parse(it.next().ok_or("--router needs grid|learned")?)?;
                    }
                    "--seed" => {
                        seed = it
                            .next()
                            .ok_or("--seed needs a value")?
                            .parse()
                            .map_err(|e| format!("bad seed: {e}"))?;
                    }
                    other => return Err(format!("save: unknown flag {other:?}")),
                }
            }
            Ok(Command::Save {
                input,
                dir,
                shards,
                router,
                seed,
            })
        }
        "load" => {
            let dir = it.next().ok_or("load: missing serving directory")?.clone();
            Ok(Command::Load { dir })
        }
        "help" | "--help" | "-h" => Err(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn usage() -> String {
    "usage:\n  \
     elsi generate <dataset> <n> <out.csv> [--seed S]\n  \
     elsi inspect <in.csv>\n  \
     elsi build <in.csv> [--index zm|ml|rsmi|lisa|flood] [--method sp|rsp|cl|mr|rs|rl|og|pwl|elsi]\n  \
     elsi ingest <in.csv> [--index ...] [--updates N] [--batch SIZE] [--shards RxC] [--router grid|learned] [--persist DIR] [--seed S]\n  \
     elsi query <in.csv> [--index ...] [--shards RxC] [--router grid|learned] [--persist DIR] --point X,Y | --window LOX,LOY,HIX,HIY | --knn X,Y,K\n  \
     elsi save <in.csv> <dir> [--shards RxC] [--router grid|learned] [--seed S]\n  \
     elsi load <dir>"
        .to_string()
}

fn load_points(path: &str) -> Result<Vec<Point>, String> {
    let pts = io::read_points_csv(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    if pts.is_empty() {
        return Err(format!("{path}: no points"));
    }
    // Normalise if the data is outside the unit square (e.g. lon/lat).
    let bbox = Rect::mbr_of(&pts);
    if bbox.lo_x < 0.0 || bbox.lo_y < 0.0 || bbox.hi_x > 1.0 || bbox.hi_y > 1.0 {
        let (norm, from) = io::normalize_to_unit(&pts);
        eprintln!("note: normalised {path} from {from:?} into the unit square");
        Ok(norm)
    } else {
        Ok(pts)
    }
}

/// `SpatialIndex: Send + Sync`, so the same `build_kind` serves as a shard
/// builder.
type BoxedIndex = Box<dyn SpatialIndex>;

fn build_index(
    pts: Vec<Point>,
    index: IndexChoice,
    method: MethodChoice,
) -> Result<BoxedIndex, String> {
    let n = pts.len();
    let cfg = ElsiConfig::scaled_for(n);
    let builder: Box<dyn ModelBuilder> = match method {
        MethodChoice::Pwl => Box::new(PwlBuilder::default()),
        MethodChoice::Fixed(m) => {
            if index == IndexChoice::Lisa && m.synthesises_points() {
                return Err(format!(
                    "method {m} is inapplicable to LISA (synthesises points)"
                ));
            }
            let elsi = Elsi::new(cfg.clone());
            Box::new(elsi.fixed_builder(m))
        }
        MethodChoice::Selector => {
            let mut elsi = Elsi::new(cfg.clone());
            eprintln!("preparing the method scorer (one-off)…");
            elsi.prepare_scorer(&[(n / 20).max(200), n], &[1, 4, 12], 7);
            let b = if index == IndexChoice::Lisa {
                elsi.builder().for_lisa()
            } else {
                elsi.builder()
            };
            return Ok(build_kind(pts, index, &b));
        }
    };
    Ok(build_kind(pts, index, builder.as_ref()))
}

fn build_kind(pts: Vec<Point>, index: IndexChoice, b: &dyn ModelBuilder) -> BoxedIndex {
    let n = pts.len().max(1);
    match index {
        IndexChoice::Zm => Box::new(ZmIndex::build(
            pts,
            &ZmConfig {
                fanout: (n / 12_500).clamp(4, 16),
            },
            b,
        )),
        IndexChoice::Ml => Box::new(MlIndex::build(pts, &MlConfig::default(), b)),
        IndexChoice::Rsmi => Box::new(RsmiIndex::build(pts, &RsmiConfig::default(), b)),
        IndexChoice::Lisa => Box::new(LisaIndex::build(
            pts,
            &LisaConfig {
                shard_size: (n / 200).clamp(100, 1000),
                ..LisaConfig::default()
            },
            b,
        )),
        IndexChoice::Flood => Box::new(FloodIndex::build(
            pts,
            &FloodConfig {
                columns: (n / 2_000).clamp(4, 64),
            },
            b,
        )),
    }
}

/// The routing policy is boxed so grid and learned deployments share one
/// type — and a serving directory reopens as whichever kind it persisted.
fn boxed_router(
    router: RouterChoice,
    pts: &[Point],
    rows: usize,
    cols: usize,
) -> Box<dyn PersistRouter> {
    match router {
        RouterChoice::Grid => Box::new(GridRouter::new(rows, cols)),
        RouterChoice::Learned => Box::new(LearnedRouter::fit_sampled(pts, rows, cols)),
    }
}

/// An R×C sharded deployment over the CLI's boxed indices: every shard is
/// a full ELSI update lifecycle around one `build_kind` index (queries in
/// the CLI are one-shot, so the rebuild policy is `Never`).
fn build_sharded(
    pts: Vec<Point>,
    index: IndexChoice,
    rows: usize,
    cols: usize,
    router: RouterChoice,
) -> ShardedIndex<BoxedIndex, Box<dyn PersistRouter>> {
    let routing = boxed_router(router, &pts, rows, cols);
    let elsi = Elsi::new(ElsiConfig::scaled_for(pts.len()));
    let builder = elsi.fixed_builder(Method::Rs);
    let builder = Arc::new(if index == IndexChoice::Lisa {
        builder.for_lisa()
    } else {
        builder
    });
    ShardedIndex::build(
        pts,
        routing,
        &ShardedConfig::grid(rows, cols),
        move |_ctx, shard_pts| build_kind(shard_pts, index, builder.as_ref()),
        |_shard| RebuildPolicy::Never,
    )
}

/// The durable serving deployment behind `save`/`load`/`--persist`: ZM
/// shards, the index kind with an exact state codec, so recovery decodes
/// rather than retrains.
fn build_zm(
    pts: Vec<Point>,
    cfg: &ShardedConfig,
    router: RouterChoice,
    elsi: &Elsi,
) -> ShardedIndex<ZmIndex, Box<dyn PersistRouter>> {
    let routing = boxed_router(router, &pts, cfg.rows, cfg.cols);
    ShardedIndex::zm(pts, routing, cfg, elsi)
}

/// Recovers a [`build_zm`] deployment from its serving directory.
fn open_zm(dir: &Path) -> Result<ShardedIndex<ZmIndex, Box<dyn PersistRouter>>, String> {
    ShardedIndex::open_zm(dir, &Elsi::new(ElsiConfig::default())).map_err(|e| e.to_string())
}

/// The chunk loop of every `elsi ingest` mode: applies `stream` through
/// `apply` in `chunk`-sized batches and returns the `batch size` /
/// `throughput` lines of the report.
fn ingest_chunks(
    stream: &[stream::Update],
    chunk: usize,
    apply: impl FnMut(&[stream::Update]),
) -> String {
    let t0 = Instant::now();
    stream.chunks(chunk).for_each(apply);
    let secs = t0.elapsed().as_secs_f64();
    format!(
        "batch size:          {chunk}\nthroughput:          {:.0} updates/s\n",
        stream.len() as f64 / secs.max(1e-12)
    )
}

/// Renders one query answer (shared by the monolith and sharded paths).
fn render_query(idx: &dyn SpatialIndex, query: QuerySpec, out: &mut String) {
    match query {
        QuerySpec::Point(p) => match idx.point_query(p) {
            Some(found) => {
                let _ = writeln!(out, "found: {found}");
            }
            None => {
                let _ = writeln!(out, "not found");
            }
        },
        QuerySpec::Window(w) => {
            let hits = idx.window_query(&w);
            let _ = writeln!(out, "{} points in window", hits.len());
            for p in hits.iter().take(20) {
                let _ = writeln!(out, "  {p}");
            }
            if hits.len() > 20 {
                let _ = writeln!(out, "  … and {} more", hits.len() - 20);
            }
        }
        QuerySpec::Knn(q, k) => {
            let hits = idx.knn_query(q, k);
            let _ = writeln!(
                out,
                "{} nearest neighbours of ({}, {}):",
                hits.len(),
                q.x,
                q.y
            );
            for p in &hits {
                let _ = writeln!(out, "  {p}  dist {:.6}", q.dist(p));
            }
        }
    }
}

/// Executes a command, returning the text to print.
// lint:serving_root
pub fn run(cmd: Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Generate {
            dataset,
            n,
            out: path,
            seed,
        } => {
            let pts = dataset.generate(n, seed);
            io::write_points_csv(Path::new(&path), &pts).map_err(|e| e.to_string())?;
            let _ = writeln!(out, "wrote {n} {dataset} points to {path}");
        }
        Command::Inspect { input } => {
            let pts = load_points(&input)?;
            let bbox = Rect::mbr_of(&pts);
            let mut keys = MortonMapper.keys(&pts);
            keys.sort_unstable_by(|a, b| a.total_cmp(b));
            let dist_u = dist_from_uniform(&keys);
            let _ = writeln!(out, "points:              {}", pts.len());
            let _ = writeln!(
                out,
                "bounding box:        [{:.6}, {:.6}] x [{:.6}, {:.6}]",
                bbox.lo_x, bbox.hi_x, bbox.lo_y, bbox.hi_y
            );
            let _ = writeln!(
                out,
                "dist(D_U, D):        {dist_u:.4} (Z-order keys vs uniform)"
            );
            let _ = writeln!(
                out,
                "suggested method:    {}",
                if dist_u < 0.1 {
                    "SP (near-uniform)"
                } else {
                    "RS (skewed)"
                }
            );
        }
        Command::Build {
            input,
            index,
            method,
        } => {
            let pts = load_points(&input)?;
            let n = pts.len();
            let probes: Vec<Point> = pts.iter().step_by((n / 1000).max(1)).copied().collect();
            let t0 = Instant::now();
            let idx = build_index(pts, index, method)?;
            let build = t0.elapsed();
            let t1 = Instant::now();
            let mut found = 0usize;
            for p in &probes {
                if idx.point_query(*p).is_some() {
                    found += 1;
                }
            }
            let per = t1.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;
            let _ = writeln!(out, "index:               {}", index.name());
            let _ = writeln!(out, "points:              {n}");
            let _ = writeln!(out, "build time:          {build:?}");
            let _ = writeln!(out, "point query:         {per:.2} µs/query");
            let _ = writeln!(out, "probes found:        {found}/{}", probes.len());
            let _ = writeln!(out, "structure depth:     {}", idx.depth());
        }
        Command::Ingest {
            input,
            index,
            updates,
            batch,
            shards,
            router,
            persist,
            seed,
        } => {
            let pts = load_points(&input)?;
            let base_len = pts.len();
            let stream = stream::churn(&pts, updates, 0.7, seed);
            let chunk = if batch == 0 {
                stream.len().max(1)
            } else {
                batch
            };
            if let Some(dir_str) = persist {
                if index != IndexChoice::Zm {
                    return Err(
                        "ingest: --persist serves ZM deployments only (the exact snapshot \
                         codec); use --index zm"
                            .into(),
                    );
                }
                let dir = Path::new(&dir_str);
                let mut dep = if dir.join(MANIFEST_NAME).exists() {
                    let manifest = read_manifest(dir).map_err(|e| format!("{dir_str}: {e}"))?;
                    let t0 = Instant::now();
                    let dep = open_zm(dir)?;
                    let _ = writeln!(
                        out,
                        "recovered generation {} from {dir_str} in {:?}",
                        manifest.generation,
                        t0.elapsed()
                    );
                    dep
                } else {
                    let (rows, cols) = shards.unwrap_or((2, 2));
                    let mut cfg = ShardedConfig::grid(rows, cols);
                    cfg.seed = seed;
                    let elsi = Elsi::new(ElsiConfig::scaled_for(base_len));
                    let mut dep = build_zm(pts, &cfg, router, &elsi);
                    let g = dep.save(dir, &zm_codec()).map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "persisted generation {g} to {dir_str} ({rows}x{cols} ZM shards, {} router)",
                        router.name()
                    );
                    dep
                };
                let mut rebuilds = 0usize;
                let rate = ingest_chunks(&stream, chunk, |c| rebuilds += dep.par_apply_updates(c));
                // Checkpoint: the new generation's snapshots absorb the
                // tail just journaled into the per-shard WALs.
                let generation = dep.save(dir, &zm_codec()).map_err(|e| e.to_string())?;
                let _ = writeln!(
                    out,
                    "ingested {} updates (journaled per shard, checkpointed as generation {generation})",
                    stream.len()
                );
                out.push_str(&rate);
                let _ = writeln!(out, "shard rebuilds:      {rebuilds}");
                let _ = writeln!(out, "live points:         {} (from {base_len})", dep.len());
                return Ok(out);
            }
            match shards {
                Some((rows, cols)) => {
                    let mut sharded = build_sharded(pts, index, rows, cols, router);
                    let mut rebuilds = 0usize;
                    let rate =
                        ingest_chunks(&stream, chunk, |c| rebuilds += sharded.par_apply_updates(c));
                    let _ = writeln!(
                        out,
                        "ingested {} updates through {rows}x{cols} shards ({} kind, {} router)",
                        stream.len(),
                        index.name(),
                        router.name()
                    );
                    out.push_str(&rate);
                    let _ = writeln!(out, "shard rebuilds:      {rebuilds}");
                    let _ = writeln!(
                        out,
                        "live points:         {} (from {base_len})",
                        sharded.len()
                    );
                }
                None => {
                    let elsi = Elsi::new(ElsiConfig::scaled_for(base_len));
                    let builder = elsi.fixed_builder(Method::Rs);
                    let builder = Arc::new(if index == IndexChoice::Lisa {
                        builder.for_lisa()
                    } else {
                        builder
                    });
                    let rebuild: RebuildFn<DeltaOverlay<BoxedIndex>> = Box::new(move |p| {
                        DeltaOverlay::new(build_kind(p, index, builder.as_ref()))
                    });
                    let mut proc = UpdateProcessor::new(pts, rebuild, RebuildPolicy::Never, 1024);
                    let (mut applied, mut ignored) = (0usize, 0usize);
                    let rate = ingest_chunks(&stream, chunk, |c| {
                        let o = proc.apply_batch(c);
                        applied += o.applied;
                        ignored += o.ignored;
                    });
                    let _ = writeln!(
                        out,
                        "ingested {} updates into a {} monolith",
                        stream.len(),
                        index.name()
                    );
                    out.push_str(&rate);
                    let _ = writeln!(out, "applied / ignored:   {applied} / {ignored}");
                    let _ = writeln!(out, "live points:         {} (from {base_len})", proc.len());
                }
            }
        }
        Command::Query {
            input,
            index,
            query,
            shards,
            router,
            persist,
        } => {
            if let Some(dir_str) = persist {
                if index != IndexChoice::Zm {
                    return Err(
                        "query: --persist serves ZM deployments only (the exact snapshot \
                         codec); use --index zm"
                            .into(),
                    );
                }
                let dir = Path::new(&dir_str);
                let dep = if dir.join(MANIFEST_NAME).exists() {
                    let manifest = read_manifest(dir).map_err(|e| format!("{dir_str}: {e}"))?;
                    let t0 = Instant::now();
                    let dep = open_zm(dir)?;
                    let _ = writeln!(
                        out,
                        "recovered generation {} from {dir_str} ({} shards, {} router) in {:?}",
                        manifest.generation,
                        dep.num_shards(),
                        manifest.router_kind,
                        t0.elapsed()
                    );
                    dep
                } else {
                    let pts = load_points(&input)?;
                    let (rows, cols) = shards.unwrap_or((2, 2));
                    let elsi = Elsi::new(ElsiConfig::scaled_for(pts.len()));
                    let mut dep = build_zm(pts, &ShardedConfig::grid(rows, cols), router, &elsi);
                    let generation = dep.save(dir, &zm_codec()).map_err(|e| e.to_string())?;
                    let _ = writeln!(
                        out,
                        "persisted generation {generation} to {dir_str} ({rows}x{cols} ZM shards, {} router)",
                        router.name()
                    );
                    dep
                };
                render_query(&dep, query, &mut out);
                return Ok(out);
            }
            let pts = load_points(&input)?;
            match shards {
                Some((rows, cols)) => {
                    let sharded = build_sharded(pts, index, rows, cols, router);
                    let _ = writeln!(
                        out,
                        "serving through {rows}x{cols} shards ({} kind, {} router)",
                        index.name(),
                        router.name()
                    );
                    render_query(&sharded, query, &mut out);
                }
                None => {
                    let idx = build_index(pts, index, MethodChoice::Fixed(Method::Rs))?;
                    render_query(idx.as_ref(), query, &mut out);
                }
            }
        }
        Command::Save {
            input,
            dir,
            shards: (rows, cols),
            router,
            seed,
        } => {
            let pts = load_points(&input)?;
            let n = pts.len();
            let mut cfg = ShardedConfig::grid(rows, cols);
            cfg.seed = seed;
            let elsi = Elsi::new(ElsiConfig::scaled_for(n));
            let t0 = Instant::now();
            let mut dep = build_zm(pts, &cfg, router, &elsi);
            let build = t0.elapsed();
            let t1 = Instant::now();
            let generation = dep
                .save(Path::new(&dir), &zm_codec())
                .map_err(|e| e.to_string())?;
            let save_time = t1.elapsed();
            let _ = writeln!(
                out,
                "persisted {n} points as {rows}x{cols} ZM shards ({} router)",
                router.name()
            );
            let _ = writeln!(out, "directory:           {dir}");
            let _ = writeln!(out, "generation:          {generation}");
            let _ = writeln!(out, "build time:          {build:?}");
            let _ = writeln!(out, "save time:           {save_time:?}");
        }
        Command::Load { dir } => {
            let path = Path::new(&dir);
            let manifest = read_manifest(path).map_err(|e| format!("{dir}: {e}"))?;
            let t0 = Instant::now();
            let dep = open_zm(path)?;
            let took = t0.elapsed();
            let _ = writeln!(
                out,
                "recovered generation {} from {dir}",
                manifest.generation
            );
            let _ = writeln!(out, "router:              {}", manifest.router_kind);
            let _ = writeln!(out, "shards:              {}", dep.num_shards());
            let _ = writeln!(out, "live points:         {}", dep.len());
            let _ = writeln!(out, "recovery time:       {took:?}");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate() {
        let cmd = parse_args(&args("generate NYC 5000 /tmp/nyc.csv --seed 7")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                dataset: Dataset::Nyc,
                n: 5000,
                out: "/tmp/nyc.csv".into(),
                seed: 7
            }
        );
        // Default seed.
        let cmd = parse_args(&args("generate uniform 10 out.csv")).unwrap();
        assert!(matches!(cmd, Command::Generate { seed: 42, .. }));
    }

    #[test]
    fn parse_build_flags() {
        let cmd = parse_args(&args("build in.csv --index lisa --method sp")).unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                input: "in.csv".into(),
                index: IndexChoice::Lisa,
                method: MethodChoice::Fixed(Method::Sp)
            }
        );
        let cmd = parse_args(&args("build in.csv --method pwl")).unwrap();
        assert!(matches!(
            cmd,
            Command::Build {
                method: MethodChoice::Pwl,
                ..
            }
        ));
    }

    #[test]
    fn parse_queries() {
        let cmd = parse_args(&args("query in.csv --point 0.5,0.25")).unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                query: QuerySpec::Point(_),
                ..
            }
        ));
        let cmd = parse_args(&args("query in.csv --window 0.1,0.1,0.2,0.2")).unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                query: QuerySpec::Window(_),
                ..
            }
        ));
        let cmd = parse_args(&args("query in.csv --knn 0.5,0.5,25 --index rsmi")).unwrap();
        assert!(matches!(
            cmd,
            Command::Query {
                query: QuerySpec::Knn(_, 25),
                index: IndexChoice::Rsmi,
                shards: None,
                ..
            }
        ));
    }

    #[test]
    fn parse_shards() -> Result<(), String> {
        let cmd = parse_args(&args("query in.csv --shards 2x4 --point 0.5,0.5"))?;
        assert!(matches!(
            cmd,
            Command::Query {
                shards: Some((2, 4)),
                ..
            }
        ));
        assert!(parse_args(&args("query in.csv --shards 2 --point 0.5,0.5")).is_err());
        assert!(parse_args(&args("query in.csv --shards 0x2 --point 0.5,0.5")).is_err());
        assert!(parse_args(&args("query in.csv --shards axb --point 0.5,0.5")).is_err());
        Ok(())
    }

    #[test]
    fn parse_router() -> Result<(), String> {
        let cmd = parse_args(&args(
            "query in.csv --shards 2x2 --router learned --point 0.5,0.5",
        ))?;
        assert!(matches!(
            cmd,
            Command::Query {
                shards: Some((2, 2)),
                router: RouterChoice::Learned,
                ..
            }
        ));
        // Default policy is the grid; explicit `grid` parses too.
        let cmd = parse_args(&args("query in.csv --shards 2x2 --point 0.5,0.5"))?;
        assert!(matches!(
            cmd,
            Command::Query {
                router: RouterChoice::Grid,
                ..
            }
        ));
        let cmd = parse_args(&args(
            "ingest in.csv --shards 2x2 --router grid --updates 10",
        ))?;
        assert!(matches!(
            cmd,
            Command::Ingest {
                router: RouterChoice::Grid,
                ..
            }
        ));
        // --router without --shards, and unknown policies, are rejected.
        assert!(parse_args(&args("query in.csv --router learned --point 0.5,0.5")).is_err());
        assert!(parse_args(&args("ingest in.csv --router learned")).is_err());
        assert!(parse_args(&args(
            "query in.csv --shards 2x2 --router rr --point 0.5,0.5"
        ))
        .is_err());
        Ok(())
    }

    #[test]
    fn parse_ingest() -> Result<(), String> {
        let cmd = parse_args(&args(
            "ingest in.csv --updates 500 --batch 100 --shards 2x2 --seed 3",
        ))?;
        assert_eq!(
            cmd,
            Command::Ingest {
                input: "in.csv".into(),
                index: IndexChoice::Zm,
                updates: 500,
                batch: 100,
                shards: Some((2, 2)),
                router: RouterChoice::Grid,
                persist: None,
                seed: 3
            }
        );
        // Defaults: whole stream in one batch, monolith, seed 7.
        let cmd = parse_args(&args("ingest in.csv"))?;
        assert!(matches!(
            cmd,
            Command::Ingest {
                updates: 1000,
                batch: 0,
                shards: None,
                seed: 7,
                ..
            }
        ));
        assert!(parse_args(&args("ingest in.csv --updates 0")).is_err());
        assert!(parse_args(&args("ingest in.csv --bogus")).is_err());
        Ok(())
    }

    #[test]
    fn ingest_reports_throughput() -> Result<(), String> {
        let path = temp_csv("ingest", Dataset::Uniform, 800);
        let report = run(parse_args(&args(&format!(
            "ingest {path} --updates 400 --batch 100"
        )))?)?;
        assert!(report.contains("ingested 400 updates"), "{report}");
        assert!(report.contains("batch size:          100"), "{report}");
        assert!(report.contains("live points:"), "{report}");
        let sharded = run(parse_args(&args(&format!(
            "ingest {path} --updates 200 --shards 2x2"
        )))?)?;
        std::fs::remove_file(&path).ok();
        assert!(sharded.contains("2x2 shards"), "{sharded}");
        assert!(sharded.contains("throughput:"), "{sharded}");
        Ok(())
    }

    #[test]
    fn parse_errors() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("generate mars 10 out.csv")).is_err());
        assert!(parse_args(&args("build in.csv --index btree")).is_err());
        assert!(parse_args(&args("query in.csv")).is_err());
        assert!(parse_args(&args("query in.csv --knn 0.5,0.5,0")).is_err());
        assert!(parse_args(&args("query in.csv --point 0.5")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    fn temp_csv(name: &str, ds: Dataset, n: usize) -> String {
        let path =
            std::env::temp_dir().join(format!("elsi_cli_test_{}_{name}.csv", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        run(Command::Generate {
            dataset: ds,
            n,
            out: path.clone(),
            seed: 1,
        })
        .unwrap();
        path
    }

    #[test]
    fn generate_inspect_roundtrip() {
        let path = temp_csv("inspect", Dataset::Skewed, 2000);
        let report = run(Command::Inspect {
            input: path.clone(),
        })
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(report.contains("points:              2000"), "{report}");
        assert!(report.contains("dist(D_U, D)"), "{report}");
        assert!(report.contains("RS (skewed)"), "{report}");
    }

    #[test]
    fn build_reports_exact_probes() {
        let path = temp_csv("build", Dataset::Uniform, 1500);
        for method in ["rs", "pwl"] {
            let cmd =
                parse_args(&args(&format!("build {path} --index zm --method {method}"))).unwrap();
            let report = run(cmd).unwrap();
            let want = "probes found:        1500/1500";
            assert!(report.contains(want), "method {method}: {report}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flood_builds_and_probes() {
        let path = temp_csv("flood", Dataset::Uniform, 1000);
        let cmd = parse_args(&args(&format!("build {path} --index flood --method pwl"))).unwrap();
        let report = run(cmd).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(
            report.contains("probes found:        1000/1000"),
            "{report}"
        );
    }

    #[test]
    fn lisa_rejects_synthesising_methods() {
        let path = temp_csv("lisa", Dataset::Uniform, 500);
        let cmd = parse_args(&args(&format!("build {path} --index lisa --method cl"))).unwrap();
        let err = run(cmd).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(err.contains("inapplicable"), "{err}");
    }

    #[test]
    fn query_window_and_knn() {
        let path = temp_csv("query", Dataset::Uniform, 1200);
        let cmd = parse_args(&args(&format!("query {path} --window 0.2,0.2,0.4,0.4"))).unwrap();
        let report = run(cmd).unwrap();
        assert!(report.contains("points in window"), "{report}");

        let cmd = parse_args(&args(&format!("query {path} --knn 0.5,0.5,5"))).unwrap();
        let report = run(cmd).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(report.contains("5 nearest neighbours"), "{report}");
    }

    #[test]
    fn parse_save_and_load() -> Result<(), String> {
        let cmd = parse_args(&args(
            "save in.csv /tmp/deploy --shards 2x3 --router learned --seed 9",
        ))?;
        assert_eq!(
            cmd,
            Command::Save {
                input: "in.csv".into(),
                dir: "/tmp/deploy".into(),
                shards: (2, 3),
                router: RouterChoice::Learned,
                seed: 9
            }
        );
        // Defaults.
        let cmd = parse_args(&args("save in.csv d"))?;
        assert!(matches!(
            cmd,
            Command::Save {
                shards: (2, 2),
                router: RouterChoice::Grid,
                seed: 42,
                ..
            }
        ));
        assert_eq!(
            parse_args(&args("load /tmp/deploy"))?,
            Command::Load {
                dir: "/tmp/deploy".into()
            }
        );
        assert!(parse_args(&args("save in.csv")).is_err());
        assert!(parse_args(&args("load")).is_err());
        Ok(())
    }

    #[test]
    fn parse_persist_flag() -> Result<(), String> {
        let cmd = parse_args(&args("query in.csv --persist d --point 0.5,0.5"))?;
        assert!(matches!(
            cmd,
            Command::Query {
                persist: Some(_),
                shards: None,
                ..
            }
        ));
        // --router without --shards is fine when --persist supplies the
        // deployment (it picks the policy for the first-use build).
        assert!(parse_args(&args(
            "query in.csv --persist d --router learned --point 0.5,0.5"
        ))
        .is_ok());
        let cmd = parse_args(&args("ingest in.csv --persist d --updates 10"))?;
        assert!(matches!(
            cmd,
            Command::Ingest {
                persist: Some(_),
                ..
            }
        ));
        assert!(parse_args(&args("query in.csv --persist --point 0.5,0.5")).is_err());
        Ok(())
    }

    fn temp_dir(name: &str) -> String {
        let d = std::env::temp_dir().join(format!("elsi_cli_deploy_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        d.to_string_lossy().into_owned()
    }

    #[test]
    fn save_then_load_round_trips() -> Result<(), String> {
        let path = temp_csv("save_load", Dataset::Uniform, 900);
        let dir = temp_dir("save_load");
        let saved = run(parse_args(&args(&format!(
            "save {path} {dir} --shards 2x2 --router learned"
        )))?)?;
        assert!(saved.contains("generation:          1"), "{saved}");
        let loaded = run(parse_args(&args(&format!("load {dir}")))?)?;
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
        assert!(loaded.contains("recovered generation 1"), "{loaded}");
        assert!(loaded.contains("router:              learned"), "{loaded}");
        assert!(loaded.contains("live points:         900"), "{loaded}");
        Ok(())
    }

    #[test]
    fn query_persist_builds_once_then_recovers() -> Result<(), String> {
        let path = temp_csv("persist_q", Dataset::Skewed, 800);
        let dir = temp_dir("persist_q");
        let q = format!("query {path} --persist {dir} --window 0.1,0.1,0.5,0.5");
        let first = run(parse_args(&args(&q))?)?;
        assert!(first.contains("persisted generation 1"), "{first}");
        let second = run(parse_args(&args(&q))?)?;
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
        assert!(second.contains("recovered generation 1"), "{second}");
        let hits = |s: &str| {
            s.lines()
                .find(|l| l.contains("points in window"))
                .map(str::to_owned)
        };
        assert!(hits(&first).is_some(), "{first}");
        assert_eq!(hits(&first), hits(&second), "recovery changed the answer");
        // Non-ZM kinds are rejected up front.
        let err = run(parse_args(&args(&format!(
            "query {path} --persist {dir} --index lisa --point 0.5,0.5"
        )))?)
        .unwrap_err();
        assert!(err.contains("ZM deployments only"), "{err}");
        Ok(())
    }

    #[test]
    fn ingest_persist_checkpoints_and_reloads() -> Result<(), String> {
        let path = temp_csv("persist_i", Dataset::Uniform, 700);
        let dir = temp_dir("persist_i");
        let report = run(parse_args(&args(&format!(
            "ingest {path} --updates 300 --batch 50 --persist {dir}"
        )))?)?;
        assert!(report.contains("persisted generation 1"), "{report}");
        assert!(report.contains("checkpointed as generation 2"), "{report}");
        let live = report
            .lines()
            .find(|l| l.starts_with("live points:"))
            .map(str::to_owned)
            .ok_or("no live points line")?;
        // The checkpoint holds the post-ingest state.
        let loaded = run(parse_args(&args(&format!("load {dir}")))?)?;
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
        let live_count = live
            .split_whitespace()
            .nth(2)
            .ok_or("bad live points line")?
            .to_string();
        assert!(
            loaded.contains(&format!("live points:         {live_count}")),
            "{loaded}\nvs ingest: {live}"
        );
        Ok(())
    }

    #[test]
    fn sharded_queries_match_the_monolith() -> Result<(), String> {
        let path = temp_csv("sharded", Dataset::Skewed, 1000);
        for q in ["--knn 0.5,0.5,5", "--window 0.2,0.2,0.4,0.4"] {
            let mono = run(parse_args(&args(&format!("query {path} {q}")))?)?;
            for router in ["grid", "learned"] {
                let sharded = run(parse_args(&args(&format!(
                    "query {path} --shards 2x2 --router {router} {q}"
                )))?)?;
                assert!(
                    sharded.contains(&format!(
                        "serving through 2x2 shards (ZM kind, {router} router)"
                    )),
                    "{sharded}"
                );
                // Same hit counts (ZM is exact, and so is the sharded
                // merge — under either routing policy).
                let tail = |s: &str| {
                    s.lines()
                        .find(|l| {
                            l.contains("points in window") || l.contains("nearest neighbours")
                        })
                        .map(str::to_owned)
                };
                assert!(tail(&mono).is_some(), "{q}: no hit line in {mono}");
                assert_eq!(tail(&mono), tail(&sharded), "{q} via {router}");
            }
        }
        std::fs::remove_file(&path).ok();
        Ok(())
    }
}
