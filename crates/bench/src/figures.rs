//! The figure table: one entry per table/figure of the paper's evaluation
//! (§VII), each a function from the run's [`Session`] to the [`Record`]s it
//! measured (printing its tables on the way). [`select`] resolves a name
//! from the command line, [`run`] drives the selected entries and reports
//! the ones that failed.

use crate::harness::*;
use crate::session::{Measured, Session, K, LAMBDAS};
use crate::updates::{UpdateStep, INSERT_RATIOS, VARIANTS};
use elsi::scorer::{
    ground_truth_best, measure_method_costs, samples_from_costs, AltSelector, MethodScorer,
    SKEW_GRID,
};
use elsi::{zoo, CostDecomposition, Elsi, ElsiConfig, Method, MethodCosts, MrPool};
use elsi_data::{gen, Dataset};
use elsi_spatial::{sort_by_key, MortonMapper};
use elsi_store::Json;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One measured row of a figure: which figure, which row/cell, and its
/// named readings (`NaN` is written as JSON `null`).
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Name of the [`Figure`] that measured it.
    pub figure: &'static str,
    /// Row or cell label within the figure (e.g. `"OSM1/ML-F"`).
    pub label: String,
    /// Named readings; the name carries the unit (`build_s`, `point_us`).
    pub values: Vec<(&'static str, f64)>,
}

impl Record {
    /// The record as `{"figure", "label", "values": {name: number|null}}`.
    pub fn to_json(&self) -> Json {
        let values = self.values.iter().map(|&(k, v)| (k, Json::Num(v)));
        Json::obj(vec![
            ("figure", Json::str(self.figure)),
            ("label", Json::str(self.label.as_str())),
            ("values", Json::obj(values.collect())),
        ])
    }
}

/// One entry of the figure table.
pub struct Figure {
    /// Command-line name.
    pub name: &'static str,
    /// What the paper's artefact shows.
    pub title: &'static str,
    /// Measures the figure, prints its tables, returns its records.
    pub run: fn(&mut Session) -> Vec<Record>,
}

/// Every table and figure of §VII, in the paper's order.
pub static FIGURES: [Figure; 13] = [
    Figure {
        name: "fig06",
        title: "Fig. 6: accuracy of the method selector",
        run: fig06,
    },
    Figure {
        name: "fig07",
        title: "Fig. 7: Pareto study of the building methods on OSM1",
        run: fig07,
    },
    Figure {
        name: "table1",
        title: "Table I: build-cost decomposition on OSM1 with ZM",
        run: table1,
    },
    Figure {
        name: "table2",
        title: "Table II: ELSI vs a random selector vs every fixed method",
        run: table2,
    },
    Figure {
        name: "fig08",
        title: "Fig. 8: build time vs data distribution",
        run: fig08,
    },
    Figure {
        name: "fig09",
        title: "Fig. 9: build time vs lambda",
        run: fig09,
    },
    Figure {
        name: "fig10",
        title: "Fig. 10: point query time vs data distribution",
        run: fig10,
    },
    Figure {
        name: "fig11",
        title: "Fig. 11: point query time vs lambda",
        run: fig11,
    },
    Figure {
        name: "fig12",
        title: "Fig. 12: window query time and recall vs data distribution",
        run: fig12,
    },
    Figure {
        name: "fig13",
        title: "Fig. 13: window query time vs lambda and vs window size",
        run: fig13,
    },
    Figure {
        name: "fig14",
        title: "Fig. 14: kNN query time and recall vs data distribution",
        run: fig14,
    },
    Figure {
        name: "fig15",
        title: "Fig. 15: insertion and point query time under skewed insertion",
        run: fig15,
    },
    Figure {
        name: "fig16",
        title: "Fig. 16: window query time and recall under skewed insertion",
        run: fig16,
    },
];

/// Resolves a command-line figure name: one entry, or every entry for
/// `all`. An unknown name is an error that lists the valid ones.
pub fn select(name: &str) -> Result<Vec<&'static Figure>, String> {
    let picked: Vec<&Figure> = FIGURES
        .iter()
        .filter(|f| name == "all" || f.name == name)
        .collect();
    if picked.is_empty() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        return Err(format!(
            "unknown figure `{name}`; valid names: {}, all",
            names.join(", ")
        ));
    }
    Ok(picked)
}

/// Runs `figures` in order against one session. Returns every record
/// measured and the names of the entries that failed — panicked, or
/// produced no record — after running the remaining ones all the same.
pub fn run(figures: &[&Figure], session: &mut Session) -> (Vec<Record>, Vec<&'static str>) {
    let mut records = Vec::new();
    let mut failed = Vec::new();
    for f in figures {
        println!("\n################ {} — {}", f.name, f.title);
        // A session's caches fill only on success, so it stays usable
        // after a figure unwinds through it.
        match catch_unwind(AssertUnwindSafe(|| (f.run)(session))) {
            Ok(rows) if !rows.is_empty() => records.extend(rows),
            Ok(_) => {
                eprintln!("[{}] produced no records", f.name);
                failed.push(f.name);
            }
            Err(_) => failed.push(f.name),
        }
    }
    (records, failed)
}

fn record(figure: &'static str, label: String, values: &[(&'static str, f64)]) -> Record {
    Record {
        figure,
        label,
        values: values.to_vec(),
    }
}

const SELECTOR_LAMBDAS: [f64; 11] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Fraction of `(data set, λ)` test cases where `select` picks the method
/// minimising the measured combined cost of Eq. 2.
fn selector_accuracy(
    select: impl Fn(usize, f64, f64) -> Method,
    costs: &[MethodCosts],
    lambdas: &[f64],
) -> f64 {
    let mut cases: Vec<(usize, f64)> = Vec::new();
    for c in costs {
        if !cases.contains(&(c.n, c.dist_u)) {
            cases.push((c.n, c.dist_u));
        }
    }
    let mut correct = 0usize;
    for &(n, d) in &cases {
        for &l in lambdas {
            let truth = ground_truth_best(costs, n, d, l, 1.0, &Method::pool());
            correct += usize::from(select(n, d, l) == truth);
        }
    }
    correct as f64 / (cases.len() * lambdas.len()).max(1) as f64
}

/// (a) Accuracy vs the preparation cardinality exponent `u` (the paper
/// varies `u` from 4 to 8; here five cardinality levels stand in, scaled to
/// bench size — see DESIGN.md §3). (b) The FFN scorer vs RFR/RFC/DTR/DTC
/// selector baselines across λ, on held-out data sets.
fn fig06(s: &mut Session) -> Vec<Record> {
    let n = s.n;
    let cfg = bench_config(n, s.epochs);
    let pool = MrPool::generate(&cfg, 1);
    let methods = Method::pool();

    let sizes = [n / 100, n / 30, n / 10, n / 3, n].map(|s| s.max(200));
    eprintln!(
        "[fig06] measuring method costs on {} x {} data sets, twice…",
        sizes.len(),
        SKEW_GRID.len()
    );
    let costs = measure_method_costs(&sizes, &SKEW_GRID, &methods, &cfg, &pool, 7);
    // Held-out test set: same grid, different generator seed, so selectors
    // are scored on data sets they never saw.
    let test_costs = measure_method_costs(&sizes, &SKEW_GRID, &methods, &cfg, &pool, 1042);

    let mut records = Vec::new();
    let mut rows = Vec::new();
    for level in 0..sizes.len() {
        let train_costs: Vec<MethodCosts> = costs
            .iter()
            .filter(|c| sizes[..=level].contains(&c.n))
            .copied()
            .collect();
        let scorer = MethodScorer::train(&samples_from_costs(&train_costs), 3);
        let acc = selector_accuracy(
            |n, d, l| scorer.select(n, d, l, 1.0, &methods),
            &test_costs,
            &SELECTOR_LAMBDAS,
        );
        let label = format!("u={}", 4 + level);
        records.push(record("fig06", label.clone(), &[("accuracy", acc)]));
        rows.push(vec![label, format!("{acc:.3}")]);
    }
    print_table(
        "Fig. 6(a) — Selector accuracy vs preparation scale u",
        &["u", "accuracy"],
        &rows,
    );

    let samples = samples_from_costs(&costs);
    let ffn = MethodScorer::train(&samples, 3);
    let classifier = |forest| {
        AltSelector::train_classification_variant(
            &costs,
            &SELECTOR_LAMBDAS,
            1.0,
            &methods,
            forest,
            5,
        )
    };
    let baselines = [
        (
            "RFR",
            AltSelector::train_regression_variant(&samples, true, 5),
        ),
        ("RFC", classifier(true)),
        (
            "DTR",
            AltSelector::train_regression_variant(&samples, false, 5),
        ),
        ("DTC", classifier(false)),
    ];
    let mut rows = Vec::new();
    for &l in &SELECTOR_LAMBDAS {
        let mut cells = vec![(
            "FFN",
            selector_accuracy(
                |n, d, l| ffn.select(n, d, l, 1.0, &methods),
                &test_costs,
                &[l],
            ),
        )];
        for (name, sel) in &baselines {
            let acc = selector_accuracy(
                |n, d, l| sel.select(n, d, l, 1.0, &methods),
                &test_costs,
                &[l],
            );
            cells.push((name, acc));
        }
        let mut row = vec![format!("{l:.1}")];
        for (name, acc) in cells {
            records.push(record(
                "fig06",
                format!("lambda={l:.1}/{name}"),
                &[("accuracy", acc)],
            ));
            row.push(format!("{acc:.3}"));
        }
        rows.push(row);
    }
    print_table(
        "Fig. 6(b) — Selector accuracy vs lambda: FFN vs forest/tree baselines",
        &["lambda", "FFN", "RFR", "RFC", "DTR", "DTC"],
        &rows,
    );
    records
}

/// For each method a method-specific parameter is swept exactly as in the
/// paper: ρ up for SP/RSP, C up for CL, ε down for MR, β down for RS, η up
/// for RL — the build time increases while the point query time decreases.
/// OG is the single full-training reference point.
fn fig07(s: &mut Session) -> Vec<Record> {
    let (n, epochs) = (s.n, s.epochs);
    let pts = Dataset::Osm1.generate(n, 42);

    // Parameter sweeps, scaled from the paper's ranges (ρ: 1e-4..1e-2 of
    // 1e8 points; here the reduced-set *sizes* keep the same proportions).
    type Tweak = Box<dyn Fn(&mut ElsiConfig)>;
    let mut sweep: Vec<(String, BuilderKind, Tweak)> = Vec::new();
    for m in [Method::Sp, Method::Rsp] {
        for rho in [0.001, 0.004, 0.016] {
            sweep.push((
                format!("{} rho={rho}", m.name()),
                BuilderKind::Fixed(m),
                Box::new(move |c| c.rho = rho),
            ));
        }
    }
    for clusters in [100usize, 400, 1600] {
        sweep.push((
            format!("CL C={clusters}"),
            BuilderKind::Fixed(Method::Cl),
            Box::new(move |c| c.clusters = clusters),
        ));
    }
    for eps in [0.5, 0.25, 0.1] {
        sweep.push((
            format!("MR eps={eps}"),
            BuilderKind::Fixed(Method::Mr),
            Box::new(move |c| c.epsilon = eps),
        ));
    }
    for beta in [n / 16, n / 64, n / 256].map(|b| b.max(4)) {
        sweep.push((
            format!("RS beta={beta}"),
            BuilderKind::Fixed(Method::Rs),
            Box::new(move |c| c.beta = beta),
        ));
    }
    for eta in [8usize, 16, 32] {
        sweep.push((
            format!("RL eta={eta}"),
            BuilderKind::Fixed(Method::Rl),
            Box::new(move |c| {
                c.eta = eta;
                c.rl_steps = 400;
            }),
        ));
    }
    sweep.push(("OG".to_string(), BuilderKind::Og, Box::new(|_| {})));

    let mut records = Vec::new();
    for kind in LEARNED_ALL {
        let mut rows = Vec::new();
        for (label, builder, tweak) in &sweep {
            if matches!(builder, BuilderKind::Fixed(m) if kind.check_method(*m).is_err()) {
                continue;
            }
            let mut cfg = bench_config(n, epochs);
            tweak(&mut cfg);
            let ctx = BenchCtx {
                elsi: Elsi::new(cfg),
                n,
            };
            let (idx, secs) = ctx.build(kind, builder, pts.clone());
            let micros = point_query_micros(idx.as_ref(), &pts, 2000);
            records.push(record(
                "fig07",
                format!("{}/{label}", kind.name()),
                &[("build_s", secs), ("point_us", micros)],
            ));
            rows.push(vec![label.clone(), fmt_secs(secs), format!("{micros:.2}")]);
        }
        print_table(
            &format!(
                "Fig. 7 — Build vs point-query trade-off on OSM1, base index {}",
                kind.name()
            ),
            &["method/param", "build (s)", "query (µs)"],
            &rows,
        );
    }
    records
}

/// Columns mirror the paper: training cost `T(|D_S|) + M(n)`, extra
/// method-specific costs (`cost_ex`), and the resulting total error span
/// `|Error| = Σ(err_l + err_u)`. The shared map-and-sort data preparation
/// is reported once above the table, as in the paper's prose.
fn table1(s: &mut Session) -> Vec<Record> {
    let n = s.n;
    let pts = Dataset::Osm1.generate(n, 42);
    let (_, prep_secs) = timed(|| sort_by_key(pts.clone(), &MortonMapper));
    println!(
        "Data preparation (map + sort) on OSM1 ({n} points): {prep_secs:.3} s — shared by all methods"
    );

    // Beside each trained row, the same build at 0 epochs: the CDF
    // interpolant that serving ships, labelled `<method>@0`.
    let epochs = s.epochs;
    let interpolant = (epochs > 0).then(|| BenchCtx::new(n, 0));
    let ctx = s.ctx();
    let regimes = std::iter::once((ctx, ""))
        .chain(interpolant.as_ref().map(|c| (c, "@0")))
        .collect::<Vec<_>>();
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for m in Method::pool() {
        for &(ctx, suffix) in &regimes {
            let label = format!("{}{suffix}", m.name());
            let idx = zoo::zm(pts.clone(), &ctx.elsi.fixed_builder(m));
            let agg = CostDecomposition::aggregate(
                m.name(),
                std::time::Duration::from_secs_f64(prep_secs),
                idx.build_stats(),
            );
            let micros = point_query_micros(&idx, &pts, 2000);
            let secs = [agg.train, agg.reduce, agg.bound, agg.total()].map(|d| d.as_secs_f64());
            records.push(record(
                "table1",
                label.clone(),
                &[
                    ("training_set_size", agg.training_set_size as f64),
                    ("train_s", secs[0]),
                    ("extra_s", secs[1]),
                    ("bounds_s", secs[2]),
                    ("total_s", secs[3]),
                    ("err_span", agg.err_span as f64),
                    ("point_us", micros),
                ],
            ));
            let mut row = vec![label, agg.training_set_size.to_string()];
            row.extend(secs.map(fmt_secs));
            row.extend([agg.err_span.to_string(), format!("{micros:.2}")]);
            rows.push(row);
        }
    }
    print_table(
        &format!(
            "Table I — Cost decomposition on OSM1 (ZM), {epochs} epochs{}",
            if regimes.len() > 1 {
                "; `@0` rows: 0"
            } else {
                ""
            }
        ),
        &[
            "method",
            "|D_S|",
            "train T(|D_S|)",
            "extra cost_ex",
            "bounds M(n)",
            "total",
            "|Error|",
            "query µs",
        ],
        &rows,
    );
    records
}

/// On OSM1 at λ = 0.8, for all four base indices; "NA" marks CL/RL on LISA.
fn table2(s: &mut Session) -> Vec<Record> {
    let pts = Dataset::Osm1.generate(s.n, 42);
    let ctx = s.scored_ctx();

    let variants = [
        ("ELSI", BuilderKind::Selector),
        ("Rand", BuilderKind::Random(9)),
        ("SP", BuilderKind::Fixed(Method::Sp)),
        ("CL", BuilderKind::Fixed(Method::Cl)),
        ("MR", BuilderKind::Fixed(Method::Mr)),
        ("RS", BuilderKind::Fixed(Method::Rs)),
        ("RL", BuilderKind::Fixed(Method::Rl)),
        ("OG", BuilderKind::Og),
    ];

    let mut records = Vec::new();
    let mut build_rows = Vec::new();
    let mut query_rows = Vec::new();
    for kind in LEARNED_ALL {
        let mut b_row = vec![kind.name().to_string()];
        let mut q_row = b_row.clone();
        for (label, builder) in &variants {
            if matches!(builder, BuilderKind::Fixed(m) if kind.check_method(*m).is_err()) {
                b_row.push("NA".into());
                q_row.push("NA".into());
                continue;
            }
            let (idx, secs) = ctx.build(kind, builder, pts.clone());
            let micros = point_query_micros(idx.as_ref(), &pts, 2000);
            records.push(record(
                "table2",
                format!("{}/{label}", kind.name()),
                &[("build_s", secs), ("point_us", micros)],
            ));
            b_row.push(fmt_secs(secs));
            q_row.push(format!("{micros:.2}"));
        }
        build_rows.push(b_row);
        query_rows.push(q_row);
    }

    let header = ["index", "ELSI", "Rand", "SP", "CL", "MR", "RS", "RL", "OG"];
    print_table(
        "Table II (top) — Build time (s) on OSM1, lambda = 0.8",
        &header,
        &build_rows,
    );
    print_table(
        "Table II (bottom) — Point query time (µs) on OSM1",
        &header,
        &query_rows,
    );
    records
}

/// One table of the shared matrix: `cell` renders a cell, `values` names
/// the readings it shows.
fn matrix_figure(
    s: &mut Session,
    figure: &'static str,
    title: &str,
    cell: fn(&Measured) -> String,
    values: fn(&Measured) -> Vec<(&'static str, f64)>,
) -> Vec<Record> {
    let matrix = s.matrix();
    let mut header = vec!["dataset"];
    header.extend(matrix.variants.iter().map(String::as_str));
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for (ds, cells) in &matrix.rows {
        let mut row = vec![ds.to_string()];
        for (variant, m) in matrix.variants.iter().zip(cells) {
            records.push(record(figure, format!("{ds}/{variant}"), &values(m)));
            row.push(cell(m));
        }
        rows.push(row);
    }
    print_table(title, &header, &rows);
    records
}

fn fig08(s: &mut Session) -> Vec<Record> {
    matrix_figure(
        s,
        "fig08",
        "Fig. 8 — Build time (s) vs data distribution",
        |m| fmt_secs(m.build_s),
        |m| vec![("build_s", m.build_s)],
    )
}

fn fig10(s: &mut Session) -> Vec<Record> {
    matrix_figure(
        s,
        "fig10",
        "Fig. 10 — Point query time (µs) vs data distribution",
        |m| format!("{:.2}", m.point_us),
        |m| vec![("point_us", m.point_us)],
    )
}

fn fig12(s: &mut Session) -> Vec<Record> {
    matrix_figure(
        s,
        "fig12",
        "Fig. 12 — Window query: µs/recall vs data distribution (0.01% windows)",
        |m| format!("{:.0}/{:.2}", m.window_us, m.window_recall),
        |m| {
            vec![
                ("window_us", m.window_us),
                ("window_recall", m.window_recall),
            ]
        },
    )
}

fn fig14(s: &mut Session) -> Vec<Record> {
    matrix_figure(
        s,
        "fig14",
        &format!("Fig. 14 — kNN query (k={K}): µs/recall vs data distribution"),
        |m| format!("{:.0}/{:.2}", m.knn_us, m.knn_recall),
        |m| vec![("knn_us", m.knn_us), ("knn_recall", m.knn_recall)],
    )
}

const SWEEP_COLUMNS: [&str; 5] = ["ML-F", "RSMI-F", "LISA-F", "RR* (ref)", "RSMI (ref)"];

/// One λ-sweep table over `ds`: a row per λ, the three `-F` indices and
/// the two λ-independent references, showing the reading `value` picks.
fn sweep_figure(
    s: &mut Session,
    figure: &'static str,
    title: &str,
    ds: Dataset,
    name: &'static str,
    value: fn(&Measured) -> f64,
    cell: fn(f64) -> String,
) -> Vec<Record> {
    let sweep = s.lambda_sweep(ds);
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for (l, fs) in LAMBDAS.iter().zip(&sweep.rows) {
        let mut row = vec![format!("{l:.1}")];
        let readings = fs.iter().chain([&sweep.rstar.1, &sweep.rsmi_og.1]);
        for (column, m) in SWEEP_COLUMNS.iter().zip(readings) {
            records.push(record(
                figure,
                format!("{ds}/lambda={l:.1}/{column}"),
                &[(name, value(m))],
            ));
            row.push(cell(value(m)));
        }
        rows.push(row);
    }
    let mut header = vec!["lambda"];
    header.extend(SWEEP_COLUMNS);
    print_table(title, &header, &rows);
    records
}

fn fig09(s: &mut Session) -> Vec<Record> {
    let mut records = Vec::new();
    for ds in [Dataset::Skewed, Dataset::Osm1] {
        records.extend(sweep_figure(
            s,
            "fig09",
            &format!("Fig. 9 — Build time (s) vs lambda on {ds}"),
            ds,
            "build_s",
            |m| m.build_s,
            fmt_secs,
        ));
    }
    records
}

fn fig11(s: &mut Session) -> Vec<Record> {
    let mut records = Vec::new();
    for ds in [Dataset::Osm1, Dataset::TpcH] {
        records.extend(sweep_figure(
            s,
            "fig11",
            &format!("Fig. 11 — Point query time (µs) vs lambda on {ds}"),
            ds,
            "point_us",
            |m| m.point_us,
            |v| format!("{v:.2}"),
        ));
    }
    records
}

/// (a) vs λ at 0.01% windows; (b) vs window size (0.0006%..0.16% of the
/// data space) at the default λ, against the sweep's kept references.
fn fig13(s: &mut Session) -> Vec<Record> {
    let mut records = sweep_figure(
        s,
        "fig13",
        "Fig. 13(a) — Window query time (µs) vs lambda on OSM1 (0.01% windows)",
        Dataset::Osm1,
        "window_us",
        |m| m.window_us,
        |v| format!("{v:.0}"),
    );

    let ctx = s.scored_ctx();
    let pts = Dataset::Osm1.generate_scaled(ctx.n, 42);
    let built = LEARNED.map(|k| ctx.build(k, &BuilderKind::Selector, pts.clone()).0);
    let sweep = s.lambda_sweep(Dataset::Osm1);
    let indices = built.iter().chain([&sweep.rstar.0, &sweep.rsmi_og.0]);
    let mut rows = Vec::new();
    for area in [6e-6, 2.5e-5, 1e-4, 4e-4, 1.6e-3] {
        let windows = gen::window_queries(&pts, 100, area, 9);
        let mut row = vec![format!("{:.4}%", area * 100.0)];
        for (column, idx) in SWEEP_COLUMNS.iter().zip(indices.clone()) {
            let (micros, _) = window_query_stats(idx.as_ref(), &pts, &windows);
            records.push(record(
                "fig13",
                format!("OSM1/window={:.4}%/{column}", area * 100.0),
                &[("window_us", micros)],
            ));
            row.push(format!("{micros:.0}"));
        }
        rows.push(row);
    }
    let mut header = vec!["window"];
    header.extend(SWEEP_COLUMNS);
    print_table(
        "Fig. 13(b) — Window query time (µs) vs window size on OSM1",
        &header,
        &rows,
    );
    records
}

type StepCell = fn(&UpdateStep) -> String;

/// The tables of Figs. 15/16: a row per insertion ratio, a column per
/// variant, one table per `(title, cell)` pair; the records carry `values`.
fn insertion_figure(
    s: &mut Session,
    figure: &'static str,
    tables: &[(&str, StepCell)],
    values: fn(&UpdateStep) -> Vec<(&'static str, f64)>,
) -> Vec<Record> {
    let runs = s.insertions();
    let mut header = vec!["inserted"];
    header.extend(VARIANTS.iter().map(|v| v.0));
    for (title, cell) in tables {
        let rows: Vec<Vec<String>> = (0..INSERT_RATIOS.len())
            .map(|i| {
                let mut row = vec![format!("{:.0}%", INSERT_RATIOS[i] * 100.0)];
                row.extend(runs.iter().map(|steps| cell(&steps[i])));
                row
            })
            .collect();
        print_table(title, &header, &rows);
    }
    VARIANTS
        .iter()
        .zip(runs)
        .flat_map(|(v, steps)| {
            steps.iter().map(move |step| {
                record(
                    figure,
                    format!("{}/inserted={:.0}%", v.0, step.ratio * 100.0),
                    &values(step),
                )
            })
        })
        .collect()
}

fn fig15(s: &mut Session) -> Vec<Record> {
    insertion_figure(
        s,
        "fig15",
        &[
            (
                "Fig. 15(a) — Average insertion time (µs) vs insertion ratio",
                |s| format!("{:.1}", s.insert_micros),
            ),
            (
                "Fig. 15(b) — Point query time (µs) vs insertion ratio",
                |s| format!("{:.2}", s.point_micros),
            ),
            (
                "Fig. 15 (aux) — Full rebuilds triggered by the rebuild predictor",
                |s| s.rebuilds.to_string(),
            ),
        ],
        |s| {
            vec![
                ("insert_us", s.insert_micros),
                ("point_us", s.point_micros),
                ("rebuilds", s.rebuilds as f64),
            ]
        },
    )
}

fn fig16(s: &mut Session) -> Vec<Record> {
    insertion_figure(
        s,
        "fig16",
        &[
            (
                "Fig. 16(a) — Window query time (µs) vs insertion ratio",
                |s| format!("{:.0}", s.window_micros),
            ),
            (
                "Fig. 16(b) — Window query recall vs insertion ratio",
                |s| format!("{:.3}", s.window_recall),
            ),
        ],
        |s| {
            vec![
                ("window_us", s.window_micros),
                ("window_recall", s.window_recall),
            ]
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_names_every_paper_artefact_once() {
        let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
        let expected = [
            "fig06", "fig07", "table1", "table2", "fig08", "fig09", "fig10", "fig11", "fig12",
            "fig13", "fig14", "fig15", "fig16",
        ];
        assert_eq!(names, expected, "Figs. 6-16 and Tables I-II, each once");

        let all = select("all").map(|figures| figures.len());
        assert_eq!(all, Ok(FIGURES.len()));
        for name in expected {
            let picked = select(name).unwrap_or_default();
            assert_eq!(picked.iter().map(|f| f.name).collect::<Vec<_>>(), [name]);
        }
        let problem = select("fig99").map(|f| f.len()).unwrap_err();
        assert!(
            problem.contains("fig99") && problem.contains("fig06, fig07, table1"),
            "an unknown name lists the valid ones: {problem}"
        );
        assert!(select("").is_err());
    }

    #[test]
    fn a_failing_entry_is_reported_and_the_rest_still_run() {
        fn entry(name: &'static str, run: fn(&mut Session) -> Vec<Record>) -> Figure {
            Figure {
                name,
                title: "test entry",
                run,
            }
        }
        let figures = [
            entry("panics", |_| panic!("deliberate failure")),
            entry("empty", |_| Vec::new()),
            entry("fine", |s| {
                vec![record("fine", "n".into(), &[("n", s.n as f64)])]
            }),
        ];
        let figures: Vec<&Figure> = figures.iter().collect();
        let (records, failed) = run(&figures, &mut Session::new(7, 1));
        assert_eq!(failed, ["panics", "empty"]);
        assert_eq!(
            records,
            [record("fine", "n".into(), &[("n", 7.0)])],
            "the entry after the failures still ran"
        );
    }

    #[test]
    fn records_render_unmeasured_readings_as_null() {
        let json = record(
            "fig08",
            "odd\"label".into(),
            &[("a_us", f64::NAN), ("b_s", 0.5)],
        )
        .to_json()
        .write();
        assert_eq!(
            json,
            r#"{"figure":"fig08","label":"odd\"label","values":{"a_us":null,"b_s":0.5}}"#
        );
        assert!(Json::parse(&json).is_ok());
    }

    /// One session at smoke scale over every entry that reads shared state
    /// (Figs. 6/7 and Table I prepare their own and dominate a debug-build
    /// run): each yields finite records, and what they share is built once.
    #[test]
    fn one_session_shares_the_preparation_between_entries() {
        let sharing: Vec<&Figure> = FIGURES
            .iter()
            .filter(|f| !["fig06", "fig07", "table1"].contains(&f.name))
            .collect();
        let mut session = Session::new(1000, 2);
        let (records, failed) = run(&sharing, &mut session);
        // `run` fails an entry without records, so each has at least one.
        assert!(failed.is_empty(), "failed: {failed:?}");
        for r in &records {
            assert!(
                r.values.iter().all(|(_, v)| v.is_finite()),
                "unmeasured reading: {r:?}"
            );
        }
        assert_eq!(session.scorer_preparations, 1);
        assert_eq!(session.insertion_runs, 1);
    }
}
