//! Cross-index query correctness: every index (learned and traditional),
//! built by ELSI's build processor, is checked against brute force on
//! shared workloads. Exact indices must match exactly; RSMI and LISA
//! (approximate by design, paper §VII-G2) must return no false positives
//! and keep window recall at the table's floor. Every kNN is exact.

#[path = "support/mod.rs"]
mod support;

use elsi::{Elsi, ElsiConfig};
use elsi_data::{gen, Dataset};
use elsi_indices::PwlBuilder;
use support::*;

/// Every `kinds` index over 2 500 points of each dataset: lookups of every
/// 31st point, 15 windows and the 10 nearest of 10 points.
fn check_on(datasets: &[Dataset], kinds: &[Kind]) {
    let zoo = Zoo::new(50, Elsi::new(ElsiConfig::fast_test()).builder());
    for ds in datasets {
        let points = ds.generate(2_500, 77);
        let qs = Queries {
            points: points.iter().step_by(31).copied().collect(),
            windows: gen::window_queries(&points, 15, 0.004, 5),
            ..Queries::knn(gen::knn_queries(&points, 10, 6), vec![10])
        };
        let oracle = Oracle::new(&points);
        for &kind in kinds {
            check(&zoo.subject(kind, State::Built, &points, &[]), &oracle, &qs);
        }
    }
}

#[test]
fn traditional_indices_are_exact_on_all_datasets() {
    let kinds = [Kind::Grid, Kind::Kdb, Kind::Hrr, Kind::RStar];
    check_on(&[Dataset::Uniform, Dataset::Skewed, Dataset::Nyc], &kinds);
}

#[test]
fn zm_and_ml_are_exact() {
    let kinds = [Kind::Zm, Kind::Ml, Kind::Flood];
    check_on(&[Dataset::Uniform, Dataset::Osm1], &kinds);
}

#[test]
fn rsmi_and_lisa_no_false_positives_and_high_recall() {
    check_on(
        &[Dataset::Uniform, Dataset::Osm1],
        &[Kind::Rsmi, Kind::Lisa],
    );
}

/// Every kind as `IndexKind::build` configures it, with PWL models: at a
/// size below every clamp, and at one where ZM's fanout, LISA's shard size,
/// RSMI's leaf capacity and Flood's columns all leave their lower clamps.
#[test]
fn the_zoo_configs_answer_like_the_oracle() {
    for n in [1_500, 70_000] {
        let points = Dataset::Osm1.generate(n, 13);
        let qs = Queries {
            points: points.iter().step_by(n / 60).copied().collect(),
            windows: gen::window_queries(&points, 12, 0.002, 5),
            ..Queries::knn(gen::knn_queries(&points, 6, 6), vec![1, 25])
        };
        let oracle = Oracle::new(&points);
        for kind in Kind::ALL {
            let index = kind.build(points.clone(), &PwlBuilder::default());
            check(&Subject::new(kind, State::Built, index), &oracle, &qs);
        }
    }
}
