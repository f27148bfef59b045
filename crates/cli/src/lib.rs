//! # elsi-cli
//!
//! The `elsi` command line over the ELSI stack. Each command is one row of
//! a command table (positionals, flags with their defaults, help with an
//! example, handler); `elsi help` prints the grammar rendered from it.
//! `save`, `load` and `--persist <dir>` serve ZM sharded deployments from
//! a serving directory (`DESIGN.md` §14). The logic lives here so it is
//! unit-testable; `main.rs` only passes `std::env::args` in and prints.

#![warn(missing_docs)]
#![warn(clippy::all)]

use elsi::{
    DeltaOverlay, Elsi, ElsiConfig, IndexKind, Method, RebuildFn, RebuildPolicy, UpdateProcessor,
};
use elsi_data::stream::{self, Update};
use elsi_data::{dist_from_uniform, io, Dataset};
use elsi_indices::{ModelBuilder, PwlBuilder, SpatialIndex, ZmIndex};
use elsi_serve::{
    read_manifest, zm_codec, Manifest, Router, ShardedConfig, ShardedIndex, MANIFEST_NAME,
};
use elsi_spatial::{last_per_id, KeyMapper, MortonMapper, Point, Rect};
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::str::FromStr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use Unset::{Empty, Fill, Required};

/// A parsed invocation: the command it names and one slot per argument,
/// holding the given value or the command's default. Slots the command
/// does not take keep placeholders.
#[derive(Debug, Clone, PartialEq)]
pub struct Command {
    name: &'static str,
    dataset: Dataset,
    n: usize,
    out: String,
    input: String,
    dir: String,
    index: IndexKind,
    method: MethodChoice,
    shards: Option<(usize, usize)>,
    router: RouterChoice,
    persist: Option<String>,
    seed: u64,
    updates: usize,
    batch: usize,
    query: Option<QuerySpec>,
}

/// Which [`Router`] constructor places the shard cuts: uniformly, or at
/// equi-mass quantiles learned from the data's empirical CDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RouterChoice {
    Grid,
    Learned,
}

impl RouterChoice {
    const ALL: [Self; 2] = [Self::Grid, Self::Learned];

    fn name(&self) -> &'static str {
        match self {
            Self::Grid => "grid",
            Self::Learned => "learned",
        }
    }

    /// The `rows × cols` router this choice builds over `pts`.
    fn router(self, pts: &[Point], (rows, cols): (usize, usize)) -> Router {
        match self {
            Self::Grid => Router::new(rows, cols),
            Self::Learned => Router::fit_sampled(pts, rows, cols),
        }
    }
}

/// A fixed pool method (or OG / RSP), the ε-bounded piecewise-linear
/// family, or the learned selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MethodChoice {
    Fixed(Method),
    Pwl,
    Selector,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum QuerySpec {
    Point(Point),
    Window(Rect),
    Knn(Point, usize),
}

/// Every argument the CLI reads: five positionals and eleven flags, each
/// spelled in [`Arg::spelling`] and parsed in [`Command::set`], once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arg {
    Dataset,
    N,
    Out,
    Input,
    Dir,
    Index,
    Method,
    Shards,
    Router,
    Persist,
    Seed,
    Updates,
    Batch,
    Point,
    Window,
    Knn,
}

impl Arg {
    /// The argument's name and the syntax of its value.
    fn spelling(self) -> (&'static str, &'static str) {
        match self {
            Arg::Dataset => ("<dataset>", "a catalog data set"),
            Arg::N => ("<n>", "a count"),
            Arg::Out => ("<out.csv>", "a path"),
            Arg::Input => ("<in.csv>", "a path"),
            Arg::Dir => ("<dir>", "a path"),
            Arg::Index => ("--index", "zm|ml|rsmi|lisa|flood"),
            Arg::Method => ("--method", "sp|rsp|cl|mr|rs|rl|og|pwl|elsi"),
            Arg::Shards => ("--shards", "RxC"),
            Arg::Router => ("--router", "grid|learned"),
            Arg::Persist => ("--persist", "DIR"),
            Arg::Seed => ("--seed", "S"),
            Arg::Updates => ("--updates", "N"),
            Arg::Batch => ("--batch", "SIZE"),
            Arg::Point => ("--point", "X,Y"),
            Arg::Window => ("--window", "LOX,LOY,HIX,HIY"),
            Arg::Knn => ("--knn", "X,Y,K"),
        }
    }

    /// The slot the argument fills: the three query flags share one.
    fn slot(self) -> Arg {
        match self {
            Arg::Window | Arg::Knn => Arg::Point,
            arg => arg,
        }
    }
}

/// What a command does when an invocation leaves one of its flags out.
#[derive(Debug, Clone, Copy)]
enum Unset {
    /// Leave the slot empty.
    Empty,
    /// Parse this value into the slot, as if it had been given.
    Fill(&'static str),
    /// Refuse: one of the command's required flags must be given.
    Required,
}

/// One command: its grammar, one line of help, an example invocation
/// (after `elsi <name>`; the tests parse each), and its handler.
struct Row {
    name: &'static str,
    positionals: &'static [Arg],
    flags: &'static [(Arg, Unset)],
    help: &'static str,
    example: &'static str,
    run: fn(&Command) -> Result<String, String>,
}

/// The commands, in the order the help lists them.
static COMMANDS: [Row; 7] = [
    Row {
        name: "generate",
        positionals: &[Arg::Dataset, Arg::N, Arg::Out],
        flags: &[(Arg::Seed, Fill("42"))],
        help: "write n points of a catalog data set to a CSV file",
        example: "NYC 20000 nyc.csv --seed 3",
        run: generate,
    },
    Row {
        name: "inspect",
        positionals: &[Arg::Input],
        flags: &[],
        help: "print a point set's size, extent, skew and suggested method",
        example: "nyc.csv",
        run: inspect,
    },
    Row {
        name: "build",
        positionals: &[Arg::Input],
        flags: &[(Arg::Index, Fill("zm")), (Arg::Method, Fill("rs"))],
        help: "build an index, then report its build time, lookup cost and exactness",
        example: "nyc.csv --index lisa --method pwl",
        run: build,
    },
    Row {
        name: "ingest",
        positionals: &[Arg::Input],
        flags: &[
            (Arg::Index, Fill("zm")),
            (Arg::Updates, Fill("1000")),
            (Arg::Batch, Fill("0")),
            (Arg::Shards, Empty),
            (Arg::Router, Fill("grid")),
            (Arg::Persist, Empty),
            (Arg::Seed, Fill("7")),
        ],
        help: "apply a churn stream in batches (0: one batch) and report throughput",
        example: "nyc.csv --updates 5000 --batch 500 --shards 2x2",
        run: ingest,
    },
    Row {
        name: "query",
        positionals: &[Arg::Input],
        flags: &[
            (Arg::Index, Fill("zm")),
            (Arg::Shards, Empty),
            (Arg::Router, Fill("grid")),
            (Arg::Persist, Empty),
            (Arg::Point, Required),
            (Arg::Window, Required),
            (Arg::Knn, Required),
        ],
        help: "answer one query from a monolith, RxC shards or a serving directory",
        example: "nyc.csv --persist deploy --knn 0.5,0.5,25",
        run: query,
    },
    Row {
        name: "save",
        positionals: &[Arg::Input, Arg::Dir],
        flags: &[
            (Arg::Shards, Fill("2x2")),
            (Arg::Router, Fill("grid")),
            (Arg::Seed, Fill("42")),
        ],
        help: "build a ZM sharded deployment and persist it into a serving directory",
        example: "nyc.csv deploy --shards 2x3 --router learned",
        run: save,
    },
    Row {
        name: "load",
        positionals: &[Arg::Dir],
        flags: &[],
        help: "recover a serving directory and report what came back",
        example: "deploy",
        run: load,
    },
];

fn row(name: &str) -> Result<&'static Row, String> {
    let row = COMMANDS.iter().find(|r| r.name == name);
    row.ok_or_else(|| format!("unknown command {name:?}\n{}", usage()))
}

/// The grammar, rendered from the command table.
fn usage() -> String {
    let mut out = String::from("usage:");
    for row in &COMMANDS {
        let _ = write!(out, "\n  elsi {}", row.name);
        for arg in row.positionals {
            let _ = write!(out, " {}", arg.spelling().0);
        }
        // A command's required flags are alternatives: one of them is given.
        let mut or = " ";
        for &(arg, unset) in row.flags {
            let (flag, syntax) = arg.spelling();
            let _ = match unset {
                Empty => write!(out, " [{flag} {syntax}]"),
                Fill(value) => write!(out, " [{flag} {syntax}, default {value}]"),
                Required => write!(out, "{}{flag} {syntax}", std::mem::replace(&mut or, " | ")),
            };
        }
        let _ = write!(
            out,
            "\n      {}\n      e.g. elsi {} {}",
            row.help, row.name, row.example
        );
    }
    out
}

/// Parses command-line arguments (without the program name).
// lint:serving_root
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let (name, rest) = args.split_first().ok_or_else(usage)?;
    if ["help", "--help", "-h"].contains(&name.as_str()) {
        return Err(usage());
    }
    let row = row(name)?;
    let mut cmd = Command::blank(row.name);
    let mut rest = rest.iter();
    for &arg in row.positionals {
        let missing = || format!("{}: missing {}", row.name, arg.spelling().0);
        cmd.set(arg, rest.next().ok_or_else(missing)?)?;
    }
    let mut given: Vec<Arg> = vec![];
    while let Some(flag) = rest.next() {
        let unknown = || format!("{}: unknown flag {flag:?}", row.name);
        let mut flags = row.flags.iter().map(|&(arg, _)| arg);
        let arg = flags.find(|a| a.spelling().0 == flag).ok_or_else(unknown)?;
        if let Some(first) = given.iter().find(|g| g.slot() == arg.slot()) {
            let (first, why) = (first.spelling().0, "one value per flag, one query per call");
            let name = row.name;
            return Err(format!(
                "{name}: {flag} conflicts with the earlier {first} ({why})"
            ));
        }
        let needs = || format!("{}: {flag} needs {}", row.name, arg.spelling().1);
        cmd.set(arg, rest.next().ok_or_else(needs)?)?;
        given.push(arg);
    }
    for &(arg, unset) in row.flags {
        match unset {
            _ if given.iter().any(|g| g.slot() == arg.slot()) => {}
            Fill(value) => cmd.set(arg, value)?,
            Required => {
                let required = row.flags.iter().filter(|(_, u)| matches!(u, Required));
                let one_of: Vec<&str> = required.map(|(a, _)| a.spelling().0).collect();
                return Err(format!(
                    "{}: one of {} is required",
                    row.name,
                    one_of.join("/")
                ));
            }
            Empty => {}
        }
    }
    if given.contains(&Arg::Router) && cmd.shards.is_none() && cmd.persist.is_none() {
        return Err(format!(
            "{}: --router requires --shards or --persist",
            row.name
        ));
    }
    Ok(cmd)
}

impl Command {
    /// An invocation of `name` before its arguments are read. `seed` starts
    /// as `ShardedConfig`'s root seed: `query --persist` builds with it.
    /// `method` starts as RS, the method every serving path trains with.
    fn blank(name: &'static str) -> Self {
        Self {
            name,
            dataset: Dataset::Uniform,
            n: 0,
            out: String::new(),
            input: String::new(),
            dir: String::new(),
            index: IndexKind::Zm,
            method: MethodChoice::Fixed(Method::Rs),
            shards: None,
            router: RouterChoice::Grid,
            persist: None,
            seed: ShardedConfig::default().seed,
            updates: 0,
            batch: 0,
            query: None,
        }
    }

    /// Parses `value` into `arg`'s slot; an error names the command and
    /// the argument.
    fn set(&mut self, arg: Arg, value: &str) -> Result<(), String> {
        let (cmd, name) = (self.name, arg.spelling().0);
        self.fill(arg, value)
            .map_err(|why| format!("{cmd}: {name} {value:?}: {why}"))
    }

    fn fill(&mut self, arg: Arg, v: &str) -> Result<(), String> {
        let expected = || format!("expected {}", arg.spelling().1);
        match arg {
            Arg::Dataset => {
                let names = Dataset::all().map(|d| d.name());
                let expected = || format!("expected one of {names:?}");
                self.dataset = named(v, Dataset::all(), Dataset::name).ok_or_else(expected)?;
            }
            Arg::N => self.n = whole(v, 0)?,
            Arg::Out => self.out = v.into(),
            Arg::Input => self.input = v.into(),
            Arg::Dir => self.dir = v.into(),
            Arg::Index => {
                self.index = named(v, IndexKind::LEARNED, IndexKind::name).ok_or_else(expected)?;
            }
            Arg::Method => {
                self.method = match v.to_ascii_lowercase().as_str() {
                    "pwl" => MethodChoice::Pwl,
                    "elsi" => MethodChoice::Selector,
                    _ => MethodChoice::Fixed(
                        named(v, Method::all(), Method::name).ok_or_else(expected)?,
                    ),
                }
            }
            Arg::Shards => {
                let side = |s: &str| s.trim().parse::<usize>().ok().filter(|&n| n >= 1);
                let grid = v
                    .split_once(['x', 'X'])
                    .and_then(|(r, c)| Some((side(r)?, side(c)?)));
                self.shards = Some(grid.ok_or_else(expected)?);
            }
            Arg::Router => {
                self.router =
                    named(v, RouterChoice::ALL, RouterChoice::name).ok_or_else(expected)?;
            }
            Arg::Persist => self.persist = Some(v.into()),
            Arg::Seed => self.seed = whole(v, 0)?,
            Arg::Updates => self.updates = whole(v, 1)?,
            Arg::Batch => self.batch = whole(v, 0)?,
            Arg::Point => {
                let [x, y] = floats(v)?;
                self.query = Some(QuerySpec::Point(Point::at(x, y)));
            }
            Arg::Window => {
                let [lo_x, lo_y, hi_x, hi_y] = floats(v)?;
                self.query = Some(QuerySpec::Window(Rect::new(lo_x, lo_y, hi_x, hi_y)));
            }
            Arg::Knn => {
                let [x, y, k] = floats(v)?;
                if k < 1.0 || k.fract() != 0.0 {
                    return Err("K must be a positive integer".into());
                }
                self.query = Some(QuerySpec::Knn(Point::at(x, y), k as usize));
            }
        }
        Ok(())
    }

    /// The deployment shape of `save` and `--persist`: `--shards`, else
    /// 2×2 (`save`'s default).
    fn grid(&self) -> (usize, usize) {
        self.shards.unwrap_or((2, 2))
    }
}

/// The member of `all` called `value`, ignoring case.
fn named<T>(value: &str, all: impl IntoIterator<Item = T>, name: fn(&T) -> &str) -> Option<T> {
    all.into_iter()
        .find(|t| name(t).eq_ignore_ascii_case(value))
}

fn whole<T: FromStr + PartialOrd + Display>(s: &str, min: T) -> Result<T, String> {
    let n = s.trim().parse().ok().filter(|n| *n >= min);
    n.ok_or_else(|| format!("expected a whole number ≥ {min}"))
}

/// `N` comma-separated finite numbers.
fn floats<const N: usize>(s: &str) -> Result<[f64; N], String> {
    let vals = s.split(',').map(|v| match v.trim().parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        Ok(x) => Err(format!("{x} is not a finite number")),
        Err(e) => Err(format!("bad number {v:?}: {e}")),
    });
    let vals = vals.collect::<Result<Vec<f64>, String>>()?;
    let got = vals.len();
    vals.try_into()
        .map_err(|_| format!("expected {N} comma-separated numbers, got {got}"))
}

fn load_points(path: &str) -> Result<Vec<Point>, String> {
    let read = io::read_points_csv(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    let (lines, pts) = (read.len(), last_per_id(read));
    if pts.is_empty() {
        return Err(format!("{path}: no points"));
    }
    if pts.len() < lines {
        eprintln!("note: {path} repeats ids; kept the last line of each id");
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

/// The durable deployment of `save`, `load` and `--persist`: ZM has an
/// exact state codec, so recovery decodes shards instead of retraining.
type Zm = ShardedIndex<ZmIndex>;

/// The model builder of `a`'s method for `a`'s index over `n` points,
/// shareable across shards.
fn model_builder(a: &Command, n: usize) -> Result<Arc<dyn ModelBuilder>, String> {
    let (index, cfg) = (a.index, ElsiConfig::scaled_for(n));
    let builder = match a.method {
        MethodChoice::Pwl => return Ok(Arc::new(PwlBuilder::default())),
        MethodChoice::Fixed(m) => {
            index.check_method(m)?;
            Elsi::new(cfg).fixed_builder(m)
        }
        MethodChoice::Selector => {
            let mut elsi = Elsi::new(cfg);
            eprintln!("preparing the method scorer (one-off)…");
            elsi.prepare_scorer(&[(n / 20).max(200), n], &[1, 4, 12], 7);
            elsi.builder()
        }
    };
    Ok(Arc::new(index.mask(builder)))
}

/// An R×C sharded deployment over the CLI's boxed indices: every shard is
/// a full ELSI update lifecycle around one `IndexKind::build` index
/// (queries in the CLI are one-shot, so the rebuild policy is `Never`).
fn build_sharded(
    pts: Vec<Point>,
    a: &Command,
) -> Result<ShardedIndex<Box<dyn SpatialIndex>>, String> {
    let router = a.router.router(&pts, a.grid());
    let (index, builder) = (a.index, model_builder(a, pts.len())?);
    let shard = move |_: &_, pts| index.build(pts, builder.as_ref());
    let cfg = ShardedConfig::default();
    Ok(ShardedIndex::build(pts, router, &cfg, shard, |_| {
        RebuildPolicy::Never
    }))
}

/// A ZM sharded deployment shaped by `--shards`, `--router` and `--seed`.
fn build_zm(pts: Vec<Point>, a: &Command) -> Zm {
    let elsi = Elsi::new(ElsiConfig::scaled_for(pts.len()));
    let router = a.router.router(&pts, a.grid());
    let cfg = ShardedConfig {
        seed: a.seed,
        ..ShardedConfig::default()
    };
    ShardedIndex::zm(pts, router, &cfg, &elsi)
}

/// Opens the deployment saved in `dir`: its manifest, the deployment, and
/// how long the open took.
fn recover(dir: &str) -> Result<(Manifest, Zm, Duration), String> {
    let manifest = read_manifest(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    let t0 = Instant::now();
    let elsi = Elsi::new(ElsiConfig::default());
    let dep = ShardedIndex::open_zm(Path::new(dir), &elsi).map_err(|e| e.to_string())?;
    Ok((manifest, dep, t0.elapsed()))
}

/// Saves `dep` into `dir` as its next generation.
fn checkpoint(dep: &mut Zm, dir: &str) -> Result<u64, String> {
    dep.save(Path::new(dir), &zm_codec())
        .map_err(|e| e.to_string())
}

/// The deployment `--persist <dir>` serves: recovered from `dir` when it
/// holds one, else built from `points()` and saved there first. Reports
/// which into `out`.
fn open_or_build(
    a: &Command,
    dir: &str,
    points: impl FnOnce() -> Result<Vec<Point>, String>,
    out: &mut String,
) -> Result<Zm, String> {
    if a.index != IndexKind::Zm {
        let why = "serves ZM deployments only (the exact snapshot codec); use --index zm";
        return Err(format!("{}: --persist {why}", a.name));
    }
    if Path::new(dir).join(MANIFEST_NAME).exists() {
        let (manifest, dep, took) = recover(dir)?;
        let (generation, router) = (manifest.generation, manifest.router_kind);
        let shards = dep.num_shards();
        let _ = writeln!(
            out,
            "recovered generation {generation} from {dir} ({shards} shards, {router} router) in {took:?}"
        );
        return Ok(dep);
    }
    let ((rows, cols), router) = (a.grid(), a.router.name());
    let mut dep = build_zm(points()?, a);
    let generation = checkpoint(&mut dep, dir)?;
    let _ = writeln!(
        out,
        "persisted generation {generation} to {dir} ({rows}x{cols} ZM shards, {router} router)"
    );
    Ok(dep)
}

/// Applies `stream` through `apply` in `chunk`-sized batches and returns
/// the `batch size` / `throughput` lines of the report.
fn ingest_chunks(stream: &[Update], chunk: usize, apply: impl FnMut(&[Update])) -> String {
    let t0 = Instant::now();
    stream.chunks(chunk).for_each(apply);
    let rate = stream.len() as f64 / t0.elapsed().as_secs_f64().max(1e-12);
    format!("batch size:          {chunk}\nthroughput:          {rate:.0} updates/s\n")
}

/// [`ingest_chunks`] through a sharded deployment, with its rebuild tally.
fn ingest_sharded<I: SpatialIndex>(
    dep: &mut ShardedIndex<I>,
    stream: &[Update],
    chunk: usize,
) -> String {
    let mut rebuilds = 0usize;
    let rate = ingest_chunks(stream, chunk, |c| rebuilds += dep.par_apply_updates(c));
    format!("{rate}shard rebuilds:      {rebuilds}")
}

/// Renders one query answer (shared by every serving path).
fn render_query(idx: &dyn SpatialIndex, query: QuerySpec) -> String {
    let mut lines = match query {
        QuerySpec::Point(p) => {
            let found = idx.point_query(p);
            vec![found.map_or("not found".into(), |found| format!("found: {found}"))]
        }
        QuerySpec::Window(w) => {
            let hits = idx.window_query(&w);
            let mut lines = vec![format!("{} points in window", hits.len())];
            lines.extend(hits.iter().take(20).map(|p| format!("  {p}")));
            if hits.len() > 20 {
                lines.push(format!("  … and {} more", hits.len() - 20));
            }
            lines
        }
        QuerySpec::Knn(q, k) => {
            let hits = idx.knn_query(q, k);
            let head = format!("{} nearest neighbours of ({}, {}):", hits.len(), q.x, q.y);
            let each = hits.iter().map(|p| format!("  {p}  dist {:.6}", q.dist(p)));
            [head].into_iter().chain(each).collect()
        }
    };
    lines.push(String::new());
    lines.join("\n")
}

/// Executes a command, returning the text to print.
// lint:serving_root
pub fn run(cmd: Command) -> Result<String, String> {
    (row(cmd.name)?.run)(&cmd)
}

// The handlers are reached through the command table, not by name, so
// each is a serving root of its own.

// lint:serving_root
fn generate(a: &Command) -> Result<String, String> {
    let pts = a.dataset.generate(a.n, a.seed);
    io::write_points_csv(Path::new(&a.out), &pts).map_err(|e| e.to_string())?;
    Ok(format!("wrote {} {} points to {}\n", a.n, a.dataset, a.out))
}

// lint:serving_root
fn inspect(a: &Command) -> Result<String, String> {
    let pts = load_points(&a.input)?;
    let bbox = Rect::mbr_of(&pts);
    let mut keys = MortonMapper.keys(&pts);
    keys.sort_unstable_by(|a, b| a.total_cmp(b));
    let dist_u = dist_from_uniform(&keys);
    let method = if dist_u < 0.1 {
        "SP (near-uniform)"
    } else {
        "RS (skewed)"
    };
    Ok(format!(
        "points:              {}\n\
         bounding box:        [{:.6}, {:.6}] x [{:.6}, {:.6}]\n\
         dist(D_U, D):        {dist_u:.4} (Z-order keys vs uniform)\n\
         suggested method:    {method}\n",
        pts.len(),
        bbox.lo_x,
        bbox.hi_x,
        bbox.lo_y,
        bbox.hi_y
    ))
}

// lint:serving_root
fn build(a: &Command) -> Result<String, String> {
    let pts = load_points(&a.input)?;
    let n = pts.len();
    let probes: Vec<Point> = pts.iter().step_by((n / 1000).max(1)).copied().collect();
    let t0 = Instant::now();
    let idx = a.index.build(pts, model_builder(a, n)?.as_ref());
    let build = t0.elapsed();
    let t1 = Instant::now();
    let found = probes
        .iter()
        .filter(|p| idx.point_query(**p).is_some())
        .count();
    let per = t1.elapsed().as_secs_f64() * 1e6 / probes.len() as f64;
    Ok(format!(
        "index:               {}\n\
         points:              {n}\n\
         build time:          {build:?}\n\
         point query:         {per:.2} µs/query\n\
         probes found:        {found}/{}\n\
         structure depth:     {}\n",
        a.index.name(),
        probes.len(),
        idx.depth()
    ))
}

// lint:serving_root
fn ingest(a: &Command) -> Result<String, String> {
    let pts = load_points(&a.input)?;
    let base_len = pts.len();
    let stream = stream::churn(&pts, a.updates, 0.7, a.seed);
    let chunk = if a.batch == 0 {
        stream.len().max(1)
    } else {
        a.batch
    };
    let (kind, router) = (a.index.name(), a.router.name());
    let mut out = String::new();
    let (how, tally, live) = if let Some(dir) = &a.persist {
        let mut dep = open_or_build(a, dir, || Ok(pts), &mut out)?;
        let tally = ingest_sharded(&mut dep, &stream, chunk);
        // Checkpoint: the new generation's snapshots absorb the calls just
        // journaled into the deployment's journal.
        let generation = checkpoint(&mut dep, dir)?;
        let how = format!("(journaled per call, checkpointed as generation {generation})");
        (how, tally, dep.len())
    } else if let Some((rows, cols)) = a.shards {
        let mut dep = build_sharded(pts, a)?;
        let tally = ingest_sharded(&mut dep, &stream, chunk);
        let how = format!("through {rows}x{cols} shards ({kind} kind, {router} router)");
        (how, tally, dep.len())
    } else {
        let (index, builder) = (a.index, model_builder(a, base_len)?);
        let rebuild: RebuildFn<DeltaOverlay<Box<dyn SpatialIndex>>> =
            Box::new(move |p| DeltaOverlay::new(index.build(p, builder.as_ref())));
        let mut proc = UpdateProcessor::new(pts, rebuild, RebuildPolicy::Never, 1024);
        let (mut applied, mut ignored) = (0usize, 0usize);
        let rate = ingest_chunks(&stream, chunk, |c| {
            let o = proc.apply_batch(c);
            applied += o.applied;
            ignored += o.ignored;
        });
        let tally = format!("{rate}applied / ignored:   {applied} / {ignored}");
        (format!("into a {kind} monolith"), tally, proc.len())
    };
    let n = stream.len();
    let _ = writeln!(
        out,
        "ingested {n} updates {how}\n{tally}\nlive points:         {live} (from {base_len})"
    );
    Ok(out)
}

// lint:serving_root
fn query(a: &Command) -> Result<String, String> {
    let q = a.query.ok_or_else(usage)?;
    let mut out = String::new();
    let answer = if let Some(dir) = &a.persist {
        render_query(
            &open_or_build(a, dir, || load_points(&a.input), &mut out)?,
            q,
        )
    } else if let Some((rows, cols)) = a.shards {
        let dep = build_sharded(load_points(&a.input)?, a)?;
        let (kind, router) = (a.index.name(), a.router.name());
        let _ = writeln!(
            out,
            "serving through {rows}x{cols} shards ({kind} kind, {router} router)"
        );
        render_query(&dep, q)
    } else {
        let pts = load_points(&a.input)?;
        let builder = model_builder(a, pts.len())?;
        render_query(a.index.build(pts, builder.as_ref()).as_ref(), q)
    };
    Ok(out + &answer)
}

// lint:serving_root
fn save(a: &Command) -> Result<String, String> {
    let pts = load_points(&a.input)?;
    let n = pts.len();
    let (rows, cols) = a.grid();
    let t0 = Instant::now();
    let mut dep = build_zm(pts, a);
    let build = t0.elapsed();
    let t1 = Instant::now();
    let generation = checkpoint(&mut dep, &a.dir)?;
    Ok(format!(
        "persisted {n} points as {rows}x{cols} ZM shards ({} router)\n\
         directory:           {}\n\
         generation:          {generation}\n\
         build time:          {build:?}\n\
         save time:           {:?}\n",
        a.router.name(),
        a.dir,
        t1.elapsed()
    ))
}

// lint:serving_root
fn load(a: &Command) -> Result<String, String> {
    let (manifest, dep, took) = recover(&a.dir)?;
    Ok(format!(
        "recovered generation {} from {}\n\
         router:              {}\n\
         shards:              {}\n\
         live points:         {}\n\
         recovery time:       {took:?}\n",
        manifest.generation,
        a.dir,
        manifest.router_kind,
        dep.num_shards(),
        dep.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_generate() -> Result<(), String> {
        let cmd = parse_args(&args("generate NYC 5000 /tmp/nyc.csv --seed 7"))?;
        assert_eq!(
            (cmd.name, cmd.dataset, cmd.n, cmd.out.as_str(), cmd.seed),
            ("generate", Dataset::Nyc, 5000, "/tmp/nyc.csv", 7)
        );
        // Default seed.
        assert_eq!(parse_args(&args("generate uniform 10 out.csv"))?.seed, 42);
        Ok(())
    }

    #[test]
    fn parse_build_flags() -> Result<(), String> {
        let cmd = parse_args(&args("build in.csv --index lisa --method sp"))?;
        assert_eq!(
            (cmd.name, cmd.input.as_str(), cmd.index, cmd.method),
            (
                "build",
                "in.csv",
                IndexKind::Lisa,
                MethodChoice::Fixed(Method::Sp)
            )
        );
        let cmd = parse_args(&args("build in.csv --method pwl"))?;
        assert_eq!((cmd.index, cmd.method), (IndexKind::Zm, MethodChoice::Pwl));
        Ok(())
    }

    #[test]
    fn parse_queries() -> Result<(), String> {
        let cmd = parse_args(&args("query in.csv --point 0.5,0.25"))?;
        assert_eq!(cmd.query, Some(QuerySpec::Point(Point::at(0.5, 0.25))));
        let cmd = parse_args(&args("query in.csv --window 0.1,0.1,0.2,0.2"))?;
        assert!(matches!(cmd.query, Some(QuerySpec::Window(_))));
        let cmd = parse_args(&args("query in.csv --knn 0.5,0.5,25 --index rsmi"))?;
        assert!(matches!(cmd.query, Some(QuerySpec::Knn(_, 25))));
        assert_eq!((cmd.index, cmd.shards), (IndexKind::Rsmi, None));
        Ok(())
    }

    #[test]
    fn parse_shards() -> Result<(), String> {
        let cmd = parse_args(&args("query in.csv --shards 2x4 --point 0.5,0.5"))?;
        assert_eq!(cmd.shards, Some((2, 4)));
        for bad in ["2", "0x2", "axb"] {
            let err = parse_args(&args(&format!(
                "query in.csv --shards {bad} --point 0.5,0.5"
            )));
            assert!(err.is_err_and(|e| e.contains("--shards")), "{bad}");
        }
        Ok(())
    }

    #[test]
    fn parse_router() -> Result<(), String> {
        let cmd = parse_args(&args(
            "query in.csv --shards 2x2 --router learned --point 0.5,0.5",
        ))?;
        assert_eq!(
            (cmd.shards, cmd.router),
            (Some((2, 2)), RouterChoice::Learned)
        );
        // Default policy is the grid; explicit `grid` parses too.
        let cmd = parse_args(&args("query in.csv --shards 2x2 --point 0.5,0.5"))?;
        assert_eq!(cmd.router, RouterChoice::Grid);
        let cmd = parse_args(&args(
            "ingest in.csv --shards 2x2 --router grid --updates 10",
        ))?;
        assert_eq!(cmd.router, RouterChoice::Grid);
        // --router without --shards, and unknown policies, are rejected.
        for bad in [
            "query in.csv --router learned --point 0.5,0.5",
            "ingest in.csv --router learned",
            "query in.csv --shards 2x2 --router rr --point 0.5,0.5",
        ] {
            let err = parse_args(&args(bad));
            assert!(err.is_err_and(|e| e.contains("--router")), "{bad}");
        }
        Ok(())
    }

    #[test]
    fn parse_ingest() -> Result<(), String> {
        let cmd = parse_args(&args(
            "ingest in.csv --updates 500 --batch 100 --shards 2x2 --seed 3",
        ))?;
        let want = Command {
            input: "in.csv".into(),
            updates: 500,
            batch: 100,
            shards: Some((2, 2)),
            seed: 3,
            ..Command::blank("ingest")
        };
        assert_eq!(cmd, want);
        // Defaults: whole stream in one batch, monolith, seed 7.
        let cmd = parse_args(&args("ingest in.csv"))?;
        assert_eq!(
            (cmd.updates, cmd.batch, cmd.shards, cmd.seed),
            (1000, 0, None, 7)
        );
        assert!(parse_args(&args("ingest in.csv --updates 0")).is_err());
        assert!(parse_args(&args("ingest in.csv --bogus")).is_err());
        Ok(())
    }

    #[test]
    fn ingest_reports_throughput() -> Result<(), String> {
        let path = temp_csv("ingest", Dataset::Uniform, 800)?;
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
        // Each failure names the command or the flag it is about.
        for (bad, names) in [
            ("frobnicate", "frobnicate"),
            ("generate mars 10 out.csv", "<dataset>"),
            ("build in.csv --index btree", "--index"),
            ("query in.csv", "--point"),
            ("query in.csv --knn 0.5,0.5,0", "--knn"),
            ("query in.csv --point 0.5", "--point"),
            // Non-finite numbers answer nothing meaningful.
            ("query in.csv --knn nan,0.5,3", "--knn"),
            ("query in.csv --knn 0.5,inf,2", "--knn"),
            ("query in.csv --point NaN,0.5", "--point"),
            ("query in.csv --window 0,0,-inf,1", "--window"),
            // A repeated flag, or a second query, is not silently dropped.
            ("query in.csv --point 0.1,0.1 --knn 0.5,0.5,2", "--knn"),
            (
                "query in.csv --index rsmi --index zm --point 0.5,0.5",
                "--index",
            ),
            ("ingest in.csv --seed 1 --seed 2", "--seed"),
            // Nothing trails the last flag.
            ("inspect in.csv extra", "extra"),
        ] {
            let err = parse_args(&args(bad));
            assert!(err.is_err_and(|e| e.contains(names)), "{bad}");
        }
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn help_is_the_table() -> Result<(), String> {
        let help = usage();
        assert_eq!(parse_args(&args("help")), Err(help.clone()));
        for row in &COMMANDS {
            assert!(
                help.contains(&format!("elsi {} ", row.name)),
                "{}",
                row.name
            );
            for (arg, _) in row.flags {
                assert!(help.contains(arg.spelling().0), "{}", row.name);
            }
            let example = parse_args(&args(&format!("{} {}", row.name, row.example)))?;
            assert_eq!(example.name, row.name);
        }
        Ok(())
    }

    fn temp_csv(name: &str, ds: Dataset, n: usize) -> Result<String, String> {
        let path =
            std::env::temp_dir().join(format!("elsi_cli_test_{}_{name}.csv", std::process::id()));
        let path = path.to_string_lossy().into_owned();
        run(parse_args(&args(&format!(
            "generate {ds} {n} {path} --seed 1"
        )))?)?;
        Ok(path)
    }

    #[test]
    fn generate_inspect_roundtrip() -> Result<(), String> {
        let path = temp_csv("inspect", Dataset::Skewed, 2000)?;
        let report = run(parse_args(&args(&format!("inspect {path}")))?)?;
        std::fs::remove_file(&path).ok();
        assert!(report.contains("points:              2000"), "{report}");
        assert!(report.contains("dist(D_U, D)"), "{report}");
        assert!(report.contains("RS (skewed)"), "{report}");
        Ok(())
    }

    #[test]
    fn build_reports_exact_probes() -> Result<(), String> {
        let path = temp_csv("build", Dataset::Uniform, 1500)?;
        for method in ["rs", "pwl"] {
            let cmd = parse_args(&args(&format!("build {path} --index zm --method {method}")))?;
            let report = run(cmd)?;
            let want = "probes found:        1500/1500";
            assert!(report.contains(want), "method {method}: {report}");
        }
        std::fs::remove_file(&path).ok();
        Ok(())
    }

    #[test]
    fn flood_builds_and_probes() -> Result<(), String> {
        let path = temp_csv("flood", Dataset::Uniform, 1000)?;
        let cmd = parse_args(&args(&format!("build {path} --index flood --method pwl")))?;
        let report = run(cmd)?;
        std::fs::remove_file(&path).ok();
        assert!(
            report.contains("probes found:        1000/1000"),
            "{report}"
        );
        Ok(())
    }

    #[test]
    fn lisa_rejects_synthesising_methods() -> Result<(), String> {
        let path = temp_csv("lisa", Dataset::Uniform, 500)?;
        let cmd = parse_args(&args(&format!("build {path} --index lisa --method cl")))?;
        let err = run(cmd).err();
        std::fs::remove_file(&path).ok();
        assert!(err.is_some_and(|e| e.contains("inapplicable")));
        Ok(())
    }

    #[test]
    fn query_window_and_knn() -> Result<(), String> {
        let path = temp_csv("query", Dataset::Uniform, 1200)?;
        let cmd = parse_args(&args(&format!("query {path} --window 0.2,0.2,0.4,0.4")))?;
        let report = run(cmd)?;
        assert!(report.contains("points in window"), "{report}");

        let cmd = parse_args(&args(&format!("query {path} --knn 0.5,0.5,5")))?;
        let report = run(cmd)?;
        std::fs::remove_file(&path).ok();
        assert!(report.contains("5 nearest neighbours"), "{report}");
        Ok(())
    }

    #[test]
    fn parse_save_and_load() -> Result<(), String> {
        let cmd = parse_args(&args(
            "save in.csv /tmp/deploy --shards 2x3 --router learned --seed 9",
        ))?;
        let want = Command {
            input: "in.csv".into(),
            dir: "/tmp/deploy".into(),
            shards: Some((2, 3)),
            router: RouterChoice::Learned,
            seed: 9,
            ..Command::blank("save")
        };
        assert_eq!(cmd, want);
        // Defaults.
        let cmd = parse_args(&args("save in.csv d"))?;
        assert_eq!(
            (cmd.shards, cmd.router, cmd.seed),
            (Some((2, 2)), RouterChoice::Grid, 42)
        );
        let want = Command {
            dir: "/tmp/deploy".into(),
            ..Command::blank("load")
        };
        assert_eq!(parse_args(&args("load /tmp/deploy"))?, want);
        assert!(parse_args(&args("save in.csv")).is_err());
        assert!(parse_args(&args("load")).is_err());
        Ok(())
    }

    #[test]
    fn parse_persist_flag() -> Result<(), String> {
        let cmd = parse_args(&args("query in.csv --persist d --point 0.5,0.5"))?;
        assert_eq!((cmd.persist.as_deref(), cmd.shards), (Some("d"), None));
        // --router without --shards is fine when --persist supplies the
        // deployment (it picks the policy for the first-use build).
        assert!(parse_args(&args(
            "query in.csv --persist d --router learned --point 0.5,0.5"
        ))
        .is_ok());
        let cmd = parse_args(&args("ingest in.csv --persist d --updates 10"))?;
        assert_eq!(cmd.persist.as_deref(), Some("d"));
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
        let path = temp_csv("save_load", Dataset::Uniform, 900)?;
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
        let path = temp_csv("persist_q", Dataset::Skewed, 800)?;
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
        .err();
        assert!(err.is_some_and(|e| e.contains("ZM deployments only")));
        Ok(())
    }

    #[test]
    fn ingest_persist_checkpoints_and_reloads() -> Result<(), String> {
        let path = temp_csv("persist_i", Dataset::Uniform, 700)?;
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
        let path = temp_csv("sharded", Dataset::Skewed, 1000)?;
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
