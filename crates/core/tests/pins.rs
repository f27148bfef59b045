//! Pins the bytes of RS-built learned indices.
//!
//! `elsi-ml`'s `tests/pins.rs` holds the trainer to fixed parameters; these
//! pins hold whole build paths. The ZM pin hashes one deployment shard's
//! encoded state — its points in Morton order, the RS reduction, nine
//! `[1, 16, 1]` rank models and their bounds. The ML-Index, RSMI and LISA pins hash each
//! model's pre-order `(method, training_set_size, err_span)` and the
//! index's point and window answers over fixed probes. The builds take
//! `ElsiConfig`'s serving regime, 0 epochs: each model is the CDF
//! interpolant of its RS set at the set's ranks in the partition. So a
//! change to a key mapping, the reduction, the interpolant's knots or
//! targets, the fold or the order models are built in that moves a byte
//! fails here; `elsi-ml`'s pins hold the trained path. The input is
//! `gen::uniform`, which uses no libm transcendental, so the pins hold in
//! every build profile.

use elsi::{Elsi, ElsiConfig, Method};
use elsi_data::gen::uniform;
use elsi_indices::{
    BuildStats, LisaConfig, LisaIndex, MlConfig, MlIndex, RsmiConfig, RsmiIndex, SpatialIndex,
    ZmConfig, ZmIndex,
};
use elsi_spatial::{Point, Rect};

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    fnv(0xcbf2_9ce4_8422_2325, bytes)
}

fn point_bytes(h: u64, p: &Point) -> u64 {
    let h = fnv(h, &p.id.to_le_bytes());
    let h = fnv(h, &p.x.to_bits().to_le_bytes());
    fnv(h, &p.y.to_bits().to_le_bytes())
}

/// The pre-order build statistics (timings excluded), then the answers to
/// point lookups of every 97th stored point and of absent locations, then
/// the answers to a fixed set of windows, in the order the index returns
/// them.
fn fingerprint(stats: &[BuildStats], idx: &dyn SpatialIndex, data: &[Point]) -> u64 {
    let mut h = checksum(&[]);
    for s in stats {
        h = fnv(h, s.method.as_bytes());
        h = fnv(h, &(s.training_set_size as u64).to_le_bytes());
        h = fnv(h, &s.err_span.to_le_bytes());
    }
    let stored = data.iter().step_by(97).copied();
    let absent = (0..64).map(|i| Point::at(f64::from(i) / 64.0 + 1e-9, 0.5 - 1e-7));
    for q in stored.chain(absent) {
        match idx.point_query(q) {
            Some(p) => h = point_bytes(fnv(h, &[1]), &p),
            None => h = fnv(h, &[0]),
        }
    }
    for i in 0..40 {
        let (x, y) = (f64::from(i % 8) / 8.0, f64::from(i / 8) / 5.0);
        let side = 0.004 * f64::from(1 + i % 5);
        let hits = idx.window_query(&Rect::new(x, y, x + side, y + side));
        h = fnv(h, &(hits.len() as u64).to_le_bytes());
        h = hits.iter().fold(h, point_bytes);
    }
    h
}

#[test]
fn rs_built_zm_shard_state_pins() {
    // One shard of the 16-shard deployment: ≈ 15.6 k points, the RS
    // builder at the size-scaled configuration, a root and eight leaves.
    let n = 15_625;
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let builder = elsi.fixed_builder(Method::Rs);
    let zm = ZmIndex::build(uniform(n, 37), &ZmConfig { fanout: 8 }, &builder);
    let state = zm.encode_state();
    let got = checksum(&state);
    assert_eq!(
        got,
        0xde5b_ae2c_4d7c_3358,
        "ZM shard state ({} bytes) hashes to {got:#018x}",
        state.len()
    );
}

#[test]
fn a_build_depends_on_the_point_set_alone() {
    // Every 40th point has a twin at its coordinates under a fresh id, so
    // equal keys must be ordered by more than their arrival.
    let n = 15_625;
    let mut points = uniform(n, 37);
    let twins: Vec<Point> = points
        .iter()
        .step_by(40)
        .map(|p| Point::new(p.id + n as u64, p.x, p.y))
        .collect();
    points.extend(twins);
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let builder = elsi.fixed_builder(Method::Rs);
    let build = |pts: Vec<Point>| ZmIndex::build(pts, &ZmConfig { fanout: 8 }, &builder);
    let mut shuffled = points.clone();
    shuffled.reverse();
    shuffled.rotate_left(n / 3);
    assert!(build(points).encode_state() == build(shuffled).encode_state());
}

#[test]
fn rs_built_ml_index_pins() {
    let n = 12_000;
    let data = uniform(n, 41);
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let ml = MlIndex::build(
        data.clone(),
        &MlConfig::default(),
        &elsi.fixed_builder(Method::Rs),
    );
    let got = fingerprint(ml.build_stats(), &ml, &data);
    assert_eq!(got, 0x4504_d00e_5274_4e4d, "ML-Index hashes to {got:#018x}");
}

#[test]
fn rs_built_rsmi_pins() {
    // Three levels: a root, eight internal children of 1 500 points and
    // 64 leaves, so internal models train beside their subtrees.
    let n = 12_000;
    let data = uniform(n, 43);
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let cfg = RsmiConfig {
        leaf_capacity: 1024,
        ..RsmiConfig::default()
    };
    let rsmi = RsmiIndex::build(data.clone(), &cfg, &elsi.fixed_builder(Method::Rs));
    assert_eq!(rsmi.num_models(), 73);
    let got = fingerprint(rsmi.build_stats(), &rsmi, &data);
    assert_eq!(got, 0x7e13_14ce_b6ef_7d75, "RSMI hashes to {got:#018x}");
}

#[test]
fn rs_built_lisa_pins() {
    let n = 12_000;
    let data = uniform(n, 47);
    let elsi = Elsi::new(ElsiConfig::scaled_for(n));
    let builder = elsi.fixed_builder(Method::Rs).for_lisa();
    let lisa = LisaIndex::build(data.clone(), &LisaConfig::default(), &builder);
    let got = fingerprint(lisa.build_stats(), &lisa, &data);
    assert_eq!(got, 0x1d8d_5037_476d_30a6, "LISA hashes to {got:#018x}");
}
