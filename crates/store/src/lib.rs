//! # elsi-store
//!
//! Durable state for ELSI: the persistence subsystem every other crate's
//! save/recover path is built on. Hand-rolled in the workspace's
//! dependency-free style (like the bench JSON emitter and the analysis
//! lexer it replaces/serves) — no serde, no third-party codecs, `std`
//! only.
//!
//! The pieces, bottom up:
//!
//! * [`crc`] — CRC-32 (IEEE), the checksum under every section and record.
//! * [`codec`] — little-endian [`ByteWriter`]/[`ByteReader`] primitives
//!   plus the [`IndexCodec`] seam by which built index state (trained
//!   models, sorted columns) is captured so recovery can skip training.
//! * [`snapshot`] — the versioned, sectioned, checksummed snapshot
//!   container, written with temp-file + atomic-rename semantics.
//! * [`wal`] — the length-framed, per-record-checksummed write-ahead
//!   log, with torn-tail prefix recovery.
//! * [`json`] — the workspace's one hand-rolled JSON reader/writer
//!   (serving-directory manifests, bench results, the analysis baseline).
//! * [`fault`] — the fault-injecting writer the crash proptests use.
//! * [`error`] — [`StoreError`], one variant per failure mode so tests
//!   can pin exactly how each kind of damage surfaces.
//!
//! What this crate deliberately does *not* know: the shapes of points,
//! updates, indices or routers. Type-specific codecs live with their
//! types (`elsi-spatial` for blocks, `elsi` for processor state,
//! `elsi-serve` for manifests/routers); this crate owns bytes, framing,
//! checksums and files.

#![warn(clippy::all)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod error;
pub mod fault;
pub mod json;
pub mod snapshot;
pub mod wal;

pub use codec::{ByteReader, ByteWriter, IndexCodec, NoCodec};
pub use crc::{crc32, Crc32};
pub use error::StoreError;
pub use fault::FailingWriter;
pub use json::{esc, Json, JsonError};
pub use snapshot::{sync_parent_dir, Snapshot, SnapshotWriter, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use wal::{read_wal, read_wal_bytes, WalReplay, WalWriter, WAL_HEADER_LEN, WAL_VERSION};
