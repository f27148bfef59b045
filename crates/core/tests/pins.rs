//! Pins the bytes of a built ZM shard: sorted columns, trained rank models
//! and error bounds, as `ZmIndex::encode_state` writes them.
//!
//! `elsi-ml`'s `tests/pins.rs` holds the trainer to fixed parameters; this
//! pin holds the whole build path of one deployment shard — Morton keys,
//! the RS reduction, nine `[1, 16, 1]` rank models and their bounds — so a
//! change anywhere in it that moves a byte of a saved shard fails here. The
//! input is `gen::uniform`, which uses no libm transcendental, so the pin
//! holds in every build profile.

use elsi::{Elsi, ElsiConfig, Method};
use elsi_data::gen::uniform;
use elsi_indices::{ZmConfig, ZmIndex};

/// FNV-1a over `bytes`.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
        0x1e35_c9db_2bbd_956a,
        "ZM shard state ({} bytes) hashes to {got:#018x}",
        state.len()
    );
}
