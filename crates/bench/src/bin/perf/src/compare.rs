//! `--collect` folds run documents into sets (median and quartiles per
//! workload and metric); `--compare` holds one set against another with
//! the bounds `BENCHMARK.json` fixes.

use crate::spec::Spec;
use crate::stats::{median_and_spread, quartiles};
use elsi_store::Json;
use std::collections::BTreeMap;

/// Median, quartiles and spread (IQR / median) of one metric over a set's
/// runs of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub unit: String,
    pub runs: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub spread: f64,
}

/// `workload → metric → cell`.
pub type RunSet = BTreeMap<String, BTreeMap<String, Cell>>;

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Folds run documents (the `--out` files) into one set.
pub fn collect_set(runs: &[Json]) -> Result<RunSet, String> {
    let mut values: BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>> = BTreeMap::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run document has no `workload`")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run document has no `metrics`")?;
        for (name, m) in metrics {
            let (Some(v), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) else {
                return Err(format!("metric `{name}` has no value or unit"));
            };
            let slot = values
                .entry(workload.to_string())
                .or_default()
                .entry(name.clone())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            slot.1.push(v);
        }
    }
    Ok(values
        .into_iter()
        .map(|(workload, metrics)| {
            let cells = metrics
                .into_iter()
                .map(|(name, (unit, xs))| {
                    let (median, spread) = median_and_spread(&xs);
                    let (q1, q3) = quartiles(&xs).unwrap_or((median, median));
                    let cell = Cell {
                        unit,
                        runs: xs.len(),
                        median,
                        q1,
                        q3,
                        spread,
                    };
                    (name, cell)
                })
                .collect();
            (workload, cells)
        })
        .collect())
}

fn set_to_json(set: &RunSet) -> Json {
    Json::Obj(
        set.iter()
            .map(|(workload, cells)| {
                let cells = cells
                    .iter()
                    .map(|(name, c)| {
                        let fields = vec![
                            ("median", Json::Num(c.median)),
                            ("q1", Json::Num(c.q1)),
                            ("q3", Json::Num(c.q3)),
                            ("spread", Json::Num(c.spread)),
                            ("runs", Json::int(c.runs)),
                            ("unit", Json::str(c.unit.clone())),
                        ];
                        (name.clone(), Json::obj(fields))
                    })
                    .collect();
                (workload.clone(), Json::Obj(cells))
            })
            .collect(),
    )
}

fn set_from_json(doc: &Json) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (workload, cells) in doc.as_obj().ok_or("a set is not an object")? {
        let mut out = BTreeMap::new();
        for (name, c) in cells.as_obj().ok_or("a workload is not an object")? {
            let num = |key: &str| {
                c.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{workload}/{name}: no `{key}`"))
            };
            out.insert(
                name.clone(),
                Cell {
                    unit: c
                        .get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                    runs: c.get("runs").and_then(Json::as_usize).unwrap_or(0),
                    median: num("median")?,
                    q1: num("q1")?,
                    q3: num("q3")?,
                    spread: num("spread")?,
                },
            );
        }
        set.insert(workload.clone(), out);
    }
    Ok(set)
}

/// `--collect <out> <run>... [--set <run>...]`: writes `{"host", "sets"}`,
/// one set per `--set`-separated group of run documents.
pub fn collect_command(args: &[String]) -> Result<(), String> {
    let (out, rest) = args.split_first().ok_or("--collect needs an output file")?;
    let mut sets = Vec::new();
    let mut host = Json::Null;
    for group in rest.split(|a| a == "--set").filter(|g| !g.is_empty()) {
        let runs: Vec<Json> = group
            .iter()
            .map(|p| read_json(p))
            .collect::<Result<_, _>>()?;
        if let Some(h) = runs.first().and_then(|r| r.get("host")) {
            host = h.clone();
        }
        sets.push(set_to_json(&collect_set(&runs)?));
    }
    if sets.is_empty() {
        return Err("--collect needs run documents".to_string());
    }
    let doc = Json::obj(vec![("host", host), ("sets", Json::Arr(sets))]);
    std::fs::write(out, doc.write_pretty()).map_err(|e| format!("{out}: {e}"))
}

/// Outcome of one workload × metric row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is no worse than the baseline's by more than
    /// the bound.
    Ok,
    /// It is worse by more than the bound.
    Regressed,
    /// Either side's own runs spread wider than the bound: the comparison
    /// cannot tell a change from noise.
    Unresolved,
    /// A side has no finite median for this workload and metric: a run
    /// crashed, or dropped the metric. Nothing was compared.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Relative change of the candidate against the baseline, signed so that
/// positive is worse.
pub fn worsening(base: f64, cand: f64, higher_is_better: bool) -> f64 {
    let rel = (cand - base) / base.abs().max(f64::MIN_POSITIVE);
    if higher_is_better {
        -rel
    } else {
        rel
    }
}

pub fn verdict_of(base: &Cell, cand: &Cell, higher_is_better: bool, bound: f64) -> Verdict {
    if !(base.median.is_finite() && cand.median.is_finite()) {
        Verdict::Missing
    } else if base.spread > bound || cand.spread > bound {
        Verdict::Unresolved
    } else if worsening(base.median, cand.median, higher_is_better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn cell_in<'a>(set: &'a RunSet, workload: &str, metric: &str) -> Option<&'a Cell> {
    set.get(workload).and_then(|cells| cells.get(metric))
}

/// One row per workload × end-to-end metric `BENCHMARK.json` names; a cell
/// either side lacks is a `missing` row, not a skipped one.
pub fn compare_sets(spec: &Spec, base: &RunSet, cand: &RunSet) -> Vec<(String, Verdict)> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for m in &spec.end_to_end {
            let cell_of = |set| cell_in(set, workload, &m.name);
            let (Some(b), Some(c), Some(bound)) = (cell_of(base), cell_of(cand), m.bound) else {
                let line = format!(
                    "{workload:15} {:26} not measured on both sides  missing",
                    m.name
                );
                rows.push((line, Verdict::Missing));
                continue;
            };
            let v = verdict_of(b, c, m.higher_is_better, bound);
            rows.push((
                format!(
                    "{workload:15} {:26} {:>14.6} -> {:>14.6} {:8} {:+7.2}% (bound {:.0}%, spreads {:.1}% / {:.1}%)  {}",
                    m.name,
                    b.median,
                    c.median,
                    m.unit,
                    100.0 * worsening(b.median, c.median, m.higher_is_better),
                    100.0 * bound,
                    100.0 * b.spread,
                    100.0 * c.spread,
                    v.label()
                ),
                v,
            ));
        }
    }
    rows
}

/// The first two sets of one collected file, or the first set of each of
/// two files.
fn two_sets(paths: &[String]) -> Result<(RunSet, RunSet), String> {
    let sets_of = |path: &String| -> Result<Vec<RunSet>, String> {
        read_json(path)?
            .get("sets")
            .and_then(Json::as_arr)
            .ok_or(format!("{path}: no `sets`"))?
            .iter()
            .map(set_from_json)
            .collect()
    };
    let mut sets = match paths {
        [both] => sets_of(both)?,
        [a, b] => {
            let mut firsts = sets_of(a)?;
            firsts.truncate(1);
            firsts.extend(sets_of(b)?.into_iter().take(1));
            firsts
        }
        _ => Vec::new(),
    }
    .into_iter();
    match (sets.next(), sets.next()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err("--compare needs two sets: one file holding two, or two files".to_string()),
    }
}

/// `--compare <a.json> [<b.json>]`: prints the rows; an error (non-zero
/// exit) when any row regressed or is missing.
pub fn compare_command(spec: &Spec, paths: &[String]) -> Result<(), String> {
    let (base, cand) = two_sets(paths)?;
    let rows = compare_sets(spec, &base, &cand);
    for (line, _) in &rows {
        println!("{line}");
    }
    let count = |v: Verdict| rows.iter().filter(|(_, r)| *r == v).count();
    println!(
        "{} rows: {} ok, {} regressed, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    match (count(Verdict::Regressed), count(Verdict::Missing)) {
        (0, 0) => Ok(()),
        (r, m) => Err(format!(
            "{r} metric(s) regressed beyond their bound, {m} not measured on both sides"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(median: f64, spread: f64) -> Cell {
        Cell {
            unit: "us".to_string(),
            runs: 5,
            median,
            q1: median * (1.0 - spread / 2.0),
            q3: median * (1.0 + spread / 2.0),
            spread,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = cell(100.0, 0.02);
        // Lower is better: +4 % is inside a 5 % bound, +6 % is not.
        assert_eq!(
            verdict_of(&base, &cell(104.0, 0.02), false, 0.05),
            Verdict::Ok
        );
        assert_eq!(
            verdict_of(&base, &cell(106.0, 0.02), false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&base, &cell(50.0, 0.02), false, 0.05),
            Verdict::Ok
        );
        // Higher is better: the signs swap.
        assert_eq!(
            verdict_of(&base, &cell(94.0, 0.02), true, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            verdict_of(&base, &cell(150.0, 0.02), true, 0.05),
            Verdict::Ok
        );
        // A spread wider than the bound on either side decides nothing.
        assert_eq!(
            verdict_of(&base, &cell(200.0, 0.08), false, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict_of(&cell(100.0, 0.3), &cell(100.0, 0.0), false, 0.05),
            Verdict::Unresolved
        );
        // A median that is not a number was not measured.
        assert_eq!(
            verdict_of(&base, &cell(f64::NAN, 0.0), false, 0.05),
            Verdict::Missing
        );
        assert!((worsening(100.0, 110.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, true) + 0.1).abs() < 1e-12);
    }

    /// A run document reporting every end-to-end metric at `value`.
    fn run_doc(spec: &Spec, workload: &str, value: f64) -> Json {
        let metrics = spec
            .end_to_end
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::str(m.unit.clone())),
                ];
                (m.name.clone(), Json::obj(fields))
            })
            .collect();
        Json::obj(vec![
            ("workload", Json::str(workload)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// Five runs of every workload, 0.2 % apart, around `centre`.
    fn runs_around(spec: &Spec, centre: f64) -> Vec<Json> {
        let mut runs = Vec::new();
        for i in 0..5 {
            for w in &spec.workloads {
                runs.push(run_doc(spec, w, centre * (1.0 + 0.002 * i as f64)));
            }
        }
        runs
    }

    #[test]
    fn collected_sets_round_trip_and_compare() -> Result<(), String> {
        let spec = Spec::committed()?;
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound);
        let bound = widest.fold(0.0, f64::max);
        let base = collect_set(&runs_around(&spec, 5.0))?;
        let cell = base
            .get("read-small")
            .and_then(|w| w.get("point_p50_us"))
            .ok_or("no cell")?;
        assert_eq!(cell.runs, 5);
        assert!((cell.median - 5.02).abs() < 1e-9);
        assert_eq!(set_from_json(&set_to_json(&base))?, base);

        let cells = spec.workloads.len() * spec.end_to_end.len();
        let same = compare_sets(&spec, &base, &collect_set(&runs_around(&spec, 5.01))?);
        assert_eq!(same.len(), cells);
        assert!(same.iter().all(|(_, v)| *v == Verdict::Ok));
        // Twice the widest bound off: whichever direction is worse for a
        // metric, one of the two candidates regressed on it.
        let slower = collect_set(&runs_around(&spec, 5.0 * (1.0 + 2.0 * bound)))?;
        let faster = collect_set(&runs_around(&spec, 5.0 * (1.0 - 2.0 * bound)))?;
        let verdicts = compare_sets(&spec, &base, &slower)
            .into_iter()
            .chain(compare_sets(&spec, &base, &faster));
        let regressed = verdicts.filter(|(_, v)| *v == Verdict::Regressed).count();
        assert_eq!(regressed, cells);
        Ok(())
    }

    #[test]
    fn a_cell_one_side_lacks_is_a_missing_row() -> Result<(), String> {
        let spec = Spec::committed()?;
        let all: Vec<Json> = spec
            .workloads
            .iter()
            .map(|w| run_doc(&spec, w, 5.0))
            .collect();
        let full = collect_set(&all)?;
        // The candidate lost its last workload, and one metric of its first.
        let mut short = collect_set(all.get(..all.len() - 1).unwrap_or(&[]))?;
        let first = spec.workloads.first().ok_or("no workloads")?;
        let lost = spec.end_to_end.last().ok_or("no metrics")?;
        short
            .get_mut(first)
            .and_then(|cells| cells.remove(&lost.name));
        let rows = compare_sets(&spec, &full, &short);
        assert_eq!(rows.len(), spec.workloads.len() * spec.end_to_end.len());
        let missing = rows.iter().filter(|(_, v)| *v == Verdict::Missing).count();
        assert_eq!(missing, spec.end_to_end.len() + 1);
        // The same holes on the baseline side, and an empty candidate.
        let rows = compare_sets(&spec, &short, &full);
        assert_eq!(
            rows.iter().filter(|(_, v)| *v == Verdict::Missing).count(),
            missing
        );
        let none = compare_sets(&spec, &full, &RunSet::new());
        assert!(none.iter().all(|(_, v)| *v == Verdict::Missing));
        assert_eq!(none.len(), rows.len());
        Ok(())
    }
}
