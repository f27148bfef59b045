//! The metric ledger of one run and its three renderings: `name value unit`
//! lines, the full JSON document, and the one-line result the driver reads.

use crate::spec::MetricSpec;
use elsi_store::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a timing (0 for counts and single measurements).
    pub samples: usize,
    /// For a tail latency, the percentile its sample count supported: a
    /// `*_p99_*` reading is the p99 only from 1 000 samples up.
    pub percentile: Option<f64>,
}

/// Every measurement of a run, in the order taken.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    readings: Vec<Reading>,
}

impl Ledger {
    pub fn put_reading(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_sampled(name, value, unit, 0);
    }

    pub fn put_sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.readings.push(Reading {
            name: name.to_string(),
            value,
            unit,
            samples,
            percentile: None,
        });
    }

    /// A tail latency with the percentile actually taken.
    pub fn put_percentile(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        percentile: f64,
    ) {
        self.put_sampled(name, value, unit, samples);
        if let Some(r) = self.readings.last_mut() {
            r.percentile = Some(percentile);
        }
    }

    pub fn reading_named(&self, name: &str) -> Option<&Reading> {
        self.readings.iter().find(|r| r.name == name)
    }

    #[cfg(test)]
    pub fn all_readings(&self) -> &[Reading] {
        &self.readings
    }

    /// The `name value unit` lines.
    pub fn render_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.readings {
            out.push_str(&format!("{} {} {}", r.name, r.value, r.unit));
            if r.samples > 0 {
                out.push_str(&format!(" n={}", r.samples));
            }
            if let Some(p) = r.percentile {
                out.push_str(&format!(" p={p}"));
            }
            out.push('\n');
        }
        out
    }

    /// `{name: {value, unit[, samples][, percentile]}}` for every reading.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.readings
                .iter()
                .map(|r| {
                    let mut fields =
                        vec![("value", Json::Num(r.value)), ("unit", Json::str(r.unit))];
                    if r.samples > 0 {
                        fields.push(("samples", Json::int(r.samples)));
                    }
                    if let Some(p) = r.percentile {
                        fields.push(("percentile", Json::Num(p)));
                    }
                    (r.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }
}

/// Operations attempted and failed (errors and oracle misses alike).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn note(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The driver's result line: exactly the metrics `wanted` names, each with
/// the unit `BENCHMARK.json` declares. A wanted metric the run did not
/// produce, or produced under another unit, is an error.
pub fn result_line(ledger: &Ledger, tally: Tally, wanted: &[MetricSpec]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        let r = ledger
            .reading_named(&m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if r.unit != m.unit {
            return Err(format!(
                "metric `{}` measured in `{}` but declared in `{}`",
                m.name, r.unit, m.unit
            ));
        }
        if !r.value.is_finite() {
            return Err(format!("metric `{}` is not finite", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::obj(vec![
                ("value", Json::Num(r.value)),
                ("unit", Json::str(r.unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
    .write())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_of(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.to_string(),
            unit: unit.to_string(),
            higher_is_better: false,
            bound: Some(0.1),
        }
    }

    #[test]
    fn json_round_trips_through_the_store_parser() -> Result<(), String> {
        let mut l = Ledger::default();
        l.put_sampled("point_p50_us", 5.482_193_772_1, "us", 2048);
        l.put_reading("peak_rss_mb", 412.0, "MB");
        l.put_percentile("update_batch_p99_ms", 31.5, "ms", 400, 95.0);
        let text = l.to_json().write_pretty();
        let back = Json::parse(&text).map_err(|e| e.to_string())?;
        assert_eq!(back, l.to_json());
        let v = back
            .get("point_p50_us")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(v, Some(5.482_193_772_1));

        let line = result_line(
            &l,
            Tally {
                attempted: 10,
                failed: 0,
            },
            &[spec_of("point_p50_us", "us")],
        )?;
        let parsed = Json::parse(&line).map_err(|e| e.to_string())?;
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_usize), Some(10));
        assert_eq!(
            parsed.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
            Some(1)
        );
        assert!(result_line(&l, Tally::default(), &[spec_of("missing", "us")]).is_err());
        assert!(result_line(&l, Tally::default(), &[spec_of("peak_rss_mb", "GB")]).is_err());
        let lines = l.render_lines();
        assert!(lines.contains("point_p50_us 5.4821937721 us n=2048\n"));
        assert!(lines.contains("update_batch_p99_ms 31.5 ms n=400 p=95\n"));
        let p = back
            .get("update_batch_p99_ms")
            .and_then(|m| m.get("percentile"));
        assert_eq!(p.and_then(Json::as_f64), Some(95.0));
        Ok(())
    }
}
