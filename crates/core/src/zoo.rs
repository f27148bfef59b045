//! The index zoo of the evaluation (§VII-A): the nine kinds, how each is
//! configured at size n, and which building methods LISA accepts — decided
//! here once for the CLI, the figure runner and the conformance tests.

use crate::build::ElsiBuilder;
use crate::methods::Method;
use elsi_indices::*;
use elsi_spatial::Point;
use IndexKind::*;

/// One of the nine index kinds: four traditional, five learned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Grid file.
    Grid,
    /// KDB-tree.
    Kdb,
    /// Hilbert-packed R-tree.
    Hrr,
    /// Revised R*-tree.
    RStar,
    /// Z-order model index.
    Zm,
    /// ML-Index.
    Ml,
    /// Flood.
    Flood,
    /// RSMI.
    Rsmi,
    /// LISA.
    Lisa,
}

impl IndexKind {
    /// Every kind, traditional first.
    pub const ALL: [IndexKind; 9] = [Grid, Kdb, Hrr, RStar, Zm, Ml, Flood, Rsmi, Lisa];

    /// The kinds whose models a [`ModelBuilder`] trains.
    pub const LEARNED: [IndexKind; 5] = [Zm, Ml, Flood, Rsmi, Lisa];

    /// Display name, as the paper's figures print it.
    pub fn name(&self) -> &'static str {
        match self {
            Grid => "Grid",
            Kdb => "KDB",
            Hrr => "HRR",
            RStar => "RR*",
            Zm => "ZM",
            Ml => "ML",
            Flood => "Flood",
            Rsmi => "RSMI",
            Lisa => "LISA",
        }
    }

    /// Refuses a fixed `method` this kind cannot train with: LISA's cells
    /// hold stored points only, so a method that synthesises points is
    /// inapplicable to it (paper §VII-A).
    pub fn check_method(self, method: Method) -> Result<(), String> {
        if self == Lisa && method.synthesises_points() {
            return Err(format!(
                "method {method} is inapplicable to LISA (synthesises points)"
            ));
        }
        Ok(())
    }

    /// `builder` as this kind trains with it: LISA's selector picks only
    /// among the methods [`IndexKind::check_method`] accepts.
    pub fn mask(self, builder: ElsiBuilder) -> ElsiBuilder {
        if self == Lisa {
            builder.for_lisa()
        } else {
            builder
        }
    }

    /// An index of this kind over `points`, its models trained by `models`
    /// (the traditional kinds train none). The configuration scales with
    /// `points.len()`.
    pub fn build(self, points: Vec<Point>, models: &dyn ModelBuilder) -> Box<dyn SpatialIndex> {
        let n = points.len().max(1);
        match self {
            Grid => Box::new(GridIndex::build(points, &GridConfig::default())),
            Kdb => Box::new(KdbIndex::build(points, &KdbConfig::default())),
            Hrr => Box::new(HrrIndex::build(points, &HrrConfig::default())),
            RStar => Box::new(RStarIndex::build(points, &RStarConfig::default())),
            Zm => Box::new(zm(points, models)),
            Ml => Box::new(MlIndex::build(points, &MlConfig::default(), models)),
            Flood => {
                let columns = (n / 2_000).clamp(4, 64);
                Box::new(FloodIndex::build(points, &FloodConfig { columns }, models))
            }
            Rsmi => {
                let cfg = RsmiConfig {
                    leaf_capacity: (n / 32).clamp(1024, 8192),
                    ..RsmiConfig::default()
                };
                Box::new(RsmiIndex::build(points, &cfg, models))
            }
            Lisa => {
                let cfg = LisaConfig {
                    shard_size: (n / 200).clamp(100, 1000),
                    ..LisaConfig::default()
                };
                Box::new(LisaIndex::build(points, &cfg, models))
            }
        }
    }
}

/// The zoo's ZM index over `points`, typed: Table I reads its per-model
/// build statistics.
pub fn zm(points: Vec<Point>, models: &dyn ModelBuilder) -> ZmIndex {
    let fanout = (points.len().max(1) / 12_500).clamp(4, 16);
    ZmIndex::build(points, &ZmConfig { fanout }, models)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Elsi, ElsiConfig};

    #[test]
    fn lisa_alone_refuses_synthesising_methods() {
        for kind in IndexKind::ALL {
            for m in Method::all() {
                let refused = kind == Lisa && matches!(m, Method::Cl | Method::Rl);
                assert_eq!(kind.check_method(m).is_err(), refused, "{kind:?} {m}");
            }
        }
    }

    #[test]
    fn the_mask_keeps_a_fixed_method_lisa_accepts() {
        let elsi = Elsi::new(ElsiConfig::fast_test());
        let pts = elsi_data::gen::uniform(600, 2);
        for m in [Method::Rsp, Method::Rs] {
            let builder = Lisa.mask(elsi.fixed_builder(m));
            let idx = Lisa.build(pts.clone(), &builder);
            assert_eq!(idx.len(), 600);
            for (chosen, count) in builder.chosen_counts() {
                assert!(chosen == m || count == 0, "{m}: {chosen} chosen");
            }
        }
    }
}
