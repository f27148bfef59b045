//! Binary codec helpers for durable index state.
//!
//! The byte-level vocabulary comes from `elsi_store` ([`ByteWriter`] /
//! [`ByteReader`]: little-endian, bounds-checked, allocation-safe on
//! corrupt lengths); this module speaks it for point columns and the
//! learned-model layer ([`RankModel`] over FFN or PWL rank functions).
//! Index snapshot codecs such as [`crate::zm::ZmStateCodec`] compose
//! these helpers into whole-index encodings.
//!
//! Every `decode_*` is the exact inverse of its `encode_*` and returns a
//! clean [`StoreError`] on any malformed input — truncation, length
//! mismatches between parallel columns, impossible model shapes — and
//! never panics. Floats are stored as IEEE-754 bit patterns, so a round
//! trip is bit-exact and a recovered model predicts bit-identically.

use crate::model::{RankFn, RankModel};
use elsi_ml::{Ffn, PwlModel};
use elsi_spatial::Point;
use elsi_store::{ByteReader, ByteWriter, StoreError};

/// Appends three parallel point columns as `n ‖ ids ‖ xs ‖ ys` — the one
/// writer of the layout every stored point set uses.
pub fn encode_columns(
    w: &mut ByteWriter,
    ids: impl ExactSizeIterator<Item = u64>,
    xs: impl Iterator<Item = f64>,
    ys: impl Iterator<Item = f64>,
) {
    w.put_usize(ids.len());
    ids.for_each(|id| w.put_u64(id));
    xs.for_each(|x| w.put_f64(x));
    ys.for_each(|y| w.put_f64(y));
}

/// Appends a point set in the [`encode_columns`] layout.
pub fn encode_points(w: &mut ByteWriter, points: &[Point]) {
    let (ids, xs, ys) = (
        points.iter().map(|p| p.id),
        points.iter().map(|p| p.x),
        points.iter().map(|p| p.y),
    );
    encode_columns(w, ids, xs, ys);
}

/// Cuts the three raw columns of an [`encode_columns`] layout, as bit
/// patterns — the one reader of the layout. `get_len` validates the total
/// size up front, so each column is one raw cut plus a straight-line
/// conversion loop: this is the hot loop of snapshot restore, which
/// decodes every shard's point columns.
fn cut_columns<'a>(
    r: &mut ByteReader<'a>,
) -> Result<[impl Iterator<Item = u64> + 'a; 3], StoreError> {
    let n = r.get_len(24)?;
    let mut column = || {
        let raw = r.get_raw(n * 8)?;
        Ok(raw.chunks_exact(8).map(|c| {
            let mut a = [0u8; 8];
            a.copy_from_slice(c);
            u64::from_le_bytes(a)
        }))
    };
    Ok([column()?, column()?, column()?])
}

/// Decoded point columns: `(ids, xs, ys)`.
type Columns = (Vec<u64>, Vec<f64>, Vec<f64>);

/// Reads the `(ids, xs, ys)` columns written by [`encode_columns`].
pub fn decode_columns(r: &mut ByteReader<'_>) -> Result<Columns, StoreError> {
    let [ids, xs, ys] = cut_columns(r)?;
    let (xs, ys) = (xs.map(f64::from_bits), ys.map(f64::from_bits));
    Ok((ids.collect(), xs.collect(), ys.collect()))
}

/// Reads a point set written by [`encode_points`].
pub fn decode_points(r: &mut ByteReader<'_>) -> Result<Vec<Point>, StoreError> {
    let [ids, xs, ys] = cut_columns(r)?;
    let points = ids.zip(xs).zip(ys).map(|((id, x), y)| Point {
        id,
        x: f64::from_bits(x),
        y: f64::from_bits(y),
    });
    Ok(points.collect())
}

const RANK_FN_FFN: u8 = 0;
const RANK_FN_PWL: u8 = 1;

/// Appends a trained [`RankModel`]: the rank-function family (FFN layer
/// sizes + flat parameters, or PWL segments + ε + fitted length) and the
/// empirical error bounds derived at build time.
pub fn encode_rank_model(w: &mut ByteWriter, model: &RankModel) {
    match model.rank_fn() {
        RankFn::Ffn(ffn) => {
            w.put_u8(RANK_FN_FFN);
            w.put_usizes(ffn.sizes());
            w.put_f64s(&ffn.params_flat());
        }
        RankFn::Pwl(pwl) => {
            w.put_u8(RANK_FN_PWL);
            w.put_usize(pwl.epsilon());
            w.put_usize(pwl.len());
            let parts = pwl.segment_parts();
            w.put_usize(parts.len());
            for (start_key, slope, intercept) in parts {
                w.put_f64(start_key);
                w.put_f64(slope);
                w.put_f64(intercept);
            }
        }
    }
    w.put_usize(model.len());
    w.put_i64(model.err_lo());
    w.put_i64(model.err_hi());
}

/// Reads a [`RankModel`] written by [`encode_rank_model`], restoring the
/// trained parameters and error bounds without any retraining or
/// bound-derivation pass.
pub fn decode_rank_model(r: &mut ByteReader<'_>) -> Result<RankModel, StoreError> {
    let f = match r.get_u8()? {
        RANK_FN_FFN => {
            let sizes = r.get_usizes()?;
            let flat = r.get_f64s()?;
            RankFn::Ffn(decode_ffn(&sizes, &flat)?)
        }
        RANK_FN_PWL => {
            let epsilon = r.get_usize()?;
            let fitted = r.get_usize()?;
            let n_segments = r.get_len(24)?;
            let mut parts = Vec::with_capacity(n_segments);
            for _ in 0..n_segments {
                let start_key = r.get_f64()?;
                let slope = r.get_f64()?;
                let intercept = r.get_f64()?;
                parts.push((start_key, slope, intercept));
            }
            RankFn::Pwl(PwlModel::from_parts(&parts, epsilon, fitted))
        }
        other => {
            return Err(StoreError::corrupt(
                "rank model",
                format!("unknown rank-function tag {other}"),
            ))
        }
    };
    let n = r.get_usize()?;
    let err_lo = r.get_i64()?;
    let err_hi = r.get_i64()?;
    Ok(RankModel::from_parts(f, n, err_lo, err_hi))
}

/// Rebuilds an FFN from its layer sizes and flat parameter vector,
/// verifying the shape before any construction so that corrupt sizes
/// surface as [`StoreError::Corrupt`] instead of a panic or a huge
/// allocation attempt inside `Ffn::new`.
fn decode_ffn(sizes: &[usize], flat: &[f64]) -> Result<Ffn, StoreError> {
    if sizes.len() < 2 || sizes.contains(&0) {
        return Err(StoreError::corrupt("ffn", "impossible layer sizes"));
    }
    let mut expected = 0usize;
    for (fan_in, &fan_out) in sizes.iter().zip(sizes.iter().skip(1)) {
        let grown = fan_in
            .checked_add(1)
            .and_then(|fi| fi.checked_mul(fan_out))
            .and_then(|layer| expected.checked_add(layer));
        expected = grown.ok_or_else(|| StoreError::corrupt("ffn", "parameter count overflow"))?;
    }
    if expected != flat.len() {
        return Err(StoreError::corrupt(
            "ffn",
            format!("{} parameters for a shape needing {expected}", flat.len()),
        ));
    }
    let mut ffn = Ffn::new(sizes, 0);
    ffn.set_params_flat(flat);
    Ok(ffn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{BuildInput, ModelBuilder, OgBuilder, PwlBuilder};
    use elsi_spatial::MortonMapper;

    fn pts(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    i as u64,
                    (i as f64 * 0.37).fract(),
                    (i as f64 * 0.61).fract(),
                )
            })
            .collect()
    }

    fn decode_all<T>(
        bytes: &[u8],
        f: impl FnOnce(&mut ByteReader<'_>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut r = ByteReader::new(bytes, "test");
        let v = f(&mut r)?;
        r.expect_end()?;
        Ok(v)
    }

    #[test]
    fn points_round_trip_bit_exactly() {
        let mut points = pts(57);
        points.push(Point::new(u64::MAX, -0.0, f64::NAN));
        let mut w = ByteWriter::new();
        encode_points(&mut w, &points);
        let got = decode_all(w.as_slice(), decode_points).unwrap();
        assert_eq!(got.len(), points.len());
        for (g, p) in got.iter().zip(&points) {
            assert_eq!(g.id, p.id);
            assert_eq!(g.x.to_bits(), p.x.to_bits());
            assert_eq!(g.y.to_bits(), p.y.to_bits());
        }
    }

    #[test]
    fn truncated_points_are_a_clean_error() -> Result<(), StoreError> {
        let mut w = ByteWriter::new();
        encode_points(&mut w, &pts(10));
        let bytes = w.into_vec();
        for cut in 0..bytes.len() {
            assert!(
                decode_all(&bytes[..cut], decode_points).is_err(),
                "cut {cut} decoded"
            );
            assert!(
                decode_all(&bytes[..cut], decode_columns).is_err(),
                "cut {cut} decoded as columns"
            );
        }
        // Whole, the two readers of the layout see the same points.
        let (ids, xs, ys) = decode_all(&bytes, decode_columns)?;
        let zipped: Vec<Point> = (0..ids.len())
            .map(|i| Point::new(ids[i], xs[i], ys[i]))
            .collect();
        assert_eq!(decode_all(&bytes, decode_points)?, zipped);
        Ok(())
    }

    fn built_model(builder: &dyn ModelBuilder, n: usize) -> RankModel {
        let keys: Vec<f64> = (0..n)
            .map(|i| (i as f64 / (n - 1) as f64).powi(2))
            .collect();
        let points: Vec<Point> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| Point::new(i as u64, k, k))
            .collect();
        builder
            .build_model(&BuildInput {
                points: &points,
                keys: &keys,
                mapper: &MortonMapper,
                seed: 7,
            })
            .model
    }

    #[test]
    fn ffn_rank_model_round_trips_bit_identically() {
        let model = built_model(&OgBuilder::with_epochs(60), 400);
        let mut w = ByteWriter::new();
        encode_rank_model(&mut w, &model);
        let got = decode_all(w.as_slice(), decode_rank_model).unwrap();
        assert_eq!(got.len(), model.len());
        assert_eq!(got.err_lo(), model.err_lo());
        assert_eq!(got.err_hi(), model.err_hi());
        for i in 0..1000 {
            let k = i as f64 / 999.0;
            assert_eq!(got.predict(k), model.predict(k), "key {k}");
        }
    }

    #[test]
    fn pwl_rank_model_round_trips_bit_identically() {
        let model = built_model(&PwlBuilder { epsilon: 8 }, 800);
        let mut w = ByteWriter::new();
        encode_rank_model(&mut w, &model);
        let got = decode_all(w.as_slice(), decode_rank_model).unwrap();
        for i in 0..1000 {
            let k = i as f64 / 999.0;
            assert_eq!(got.predict(k), model.predict(k), "key {k}");
            assert_eq!(got.search_range(k), model.search_range(k));
        }
    }

    #[test]
    fn rank_model_decode_rejects_damage() {
        let model = built_model(&OgBuilder::with_epochs(20), 100);
        let mut w = ByteWriter::new();
        encode_rank_model(&mut w, &model);
        let clean = w.into_vec();

        // Unknown family tag.
        let mut bad_tag = clean.clone();
        bad_tag[0] = 9;
        assert!(matches!(
            decode_all(&bad_tag, decode_rank_model),
            Err(StoreError::Corrupt { .. })
        ));

        // A zero layer size must not reach Ffn::new's assertions.
        let mut zero_size = clean.clone();
        // Layout: tag (1B), sizes count (8B), first size (8B).
        zero_size[9..17].copy_from_slice(&0u64.to_le_bytes());
        assert!(decode_all(&zero_size, decode_rank_model).is_err());

        // Every truncation point is an error, never a panic.
        for cut in 0..clean.len() {
            assert!(
                decode_all(&clean[..cut], decode_rank_model).is_err(),
                "cut {cut} decoded"
            );
        }
    }

    #[test]
    fn ffn_shape_parameter_mismatch_is_corrupt() {
        let err = decode_ffn(&[1, 4, 1], &[0.0; 3]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { .. }));
        assert!(decode_ffn(&[1], &[]).is_err(), "single-layer shape");
        // Overflowing shape is rejected before any allocation.
        assert!(decode_ffn(&[usize::MAX, usize::MAX], &[]).is_err());
    }
}
