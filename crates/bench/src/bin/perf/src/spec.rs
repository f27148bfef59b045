//! `BENCHMARK.json`, compiled in: the workload names, which metrics a run
//! reports end to end and which per layer, and each end-to-end metric's
//! unit, direction and regression bound. The harness holds no second copy
//! of any of these.

use elsi_store::Json;

/// The repository's `BENCHMARK.json` as committed beside the sources.
const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text_field(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string `{key}`"))
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing list `{key}`"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text_field(m, "name")?,
                unit: text_field(m, "unit")?,
                higher_is_better: text_field(m, "better")? == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse_text(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: missing list `workloads`")?
            .iter()
            .map(|w| text_field(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing `run_seconds`")?,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    pub fn committed() -> Result<Spec, String> {
        Self::parse_text(BENCHMARK_JSON)
    }

    #[cfg(test)]
    pub fn end_to_end_named(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end.iter().find(|m| m.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_spec_meets_the_contract_limits() -> Result<(), String> {
        let spec = Spec::committed()?;
        assert_eq!(
            spec.workloads,
            [
                "build-learned",
                "read-small",
                "read-wide",
                "read-batch",
                "ingest-durable"
            ]
        );
        assert!((1.0..=60.0).contains(&spec.run_seconds));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let setup = spec.end_to_end_named("setup_s").ok_or("no setup_s")?;
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .chain(spec.workloads.iter().map(String::as_str))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &spec.end_to_end {
            let b = m.bound.ok_or(format!("{} has no bound", m.name))?;
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            assert!(
                setup.bound >= Some(b),
                "setup_s must carry the largest bound"
            );
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        Ok(())
    }
}
