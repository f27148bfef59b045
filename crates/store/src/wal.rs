//! The write-ahead log: length-framed, per-record-checksummed appends.
//!
//! Layout (little-endian):
//!
//! ```text
//! [magic 8B = "ELSIWAL\0"] [version 4B] [header CRC32 4B]
//! then per record: [len 4B] [payload CRC32 4B] [payload len bytes]
//! ```
//!
//! Records are opaque byte payloads — the update-batch encoding lives
//! with the update types, not here. The reader distinguishes two kinds of
//! damage:
//!
//! * **Torn tail** — the file ends mid-frame or mid-payload (a crash
//!   during an append). Every complete record before the tear is
//!   returned; [`WalReplay::torn`] reports the tear and
//!   [`WalReplay::valid_len`] says where the intact prefix ends so the
//!   writer can truncate it away before appending again.
//! * **Checksum mismatch** — a *complete* record whose payload fails its
//!   CRC32 (in-place damage). This is not recoverable-by-prefix at the
//!   tail's discretion: it surfaces as [`StoreError::WalChecksum`] and
//!   the record is never handed to replay.
//!
//! Replay idempotence is the caller's contract: each record is one update
//! batch, and replaying batches in order through the processor's
//! `apply_batch` reproduces the exact post-append state (every record
//! was written by one such call, so replay is the write path run again).

use crate::crc::crc32;
use crate::error::StoreError;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic bytes every WAL file starts with.
pub const WAL_MAGIC: [u8; 8] = *b"ELSIWAL\0";

/// WAL format version this build reads and writes.
pub const WAL_VERSION: u32 = 1;

/// Size of the WAL file header in bytes.
pub const WAL_HEADER_LEN: u64 = 16;

/// Per-record frame overhead in bytes (`len` + `crc`).
pub const WAL_FRAME_LEN: u64 = 8;

/// The result of scanning a WAL: every verified record, plus where (and
/// whether) the intact prefix ends early.
#[derive(Debug)]
pub struct WalReplay {
    /// Verified record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// File offset at which the intact prefix ends (end of the last
    /// complete, verified record — or of the header when none exist).
    pub valid_len: u64,
    /// Whether bytes after `valid_len` were a torn (incomplete) record.
    pub torn: bool,
}

/// Serialises one record frame (length, checksum, payload).
pub fn frame_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + WAL_FRAME_LEN as usize);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

fn wal_header() -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..8].copy_from_slice(&WAL_MAGIC);
    h[8..12].copy_from_slice(&WAL_VERSION.to_le_bytes());
    let crc = crc32(&h[..12]);
    h[12..16].copy_from_slice(&crc.to_le_bytes());
    h
}

/// Scans and verifies a WAL file (see the module docs for the damage
/// taxonomy). Never panics on any input.
pub fn read_wal(path: &Path) -> Result<WalReplay, StoreError> {
    let mut f = File::open(path).map_err(|e| StoreError::io("open", path, e))?;
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes)
        .map_err(|e| StoreError::io("read", path, e))?;
    read_wal_bytes(&bytes, path)
}

/// [`read_wal`] over an in-memory image (the corruption-matrix tests
/// drive this directly).
pub fn read_wal_bytes(bytes: &[u8], path: &Path) -> Result<WalReplay, StoreError> {
    let header = bytes
        .get(..WAL_HEADER_LEN as usize)
        .ok_or(StoreError::Truncated {
            section: "WAL header".to_string(),
            offset: bytes.len(),
        })?;
    if header[..8] != WAL_MAGIC {
        let mut found = [0u8; 8];
        found.copy_from_slice(&header[..8]);
        return Err(StoreError::BadMagic {
            path: path.to_path_buf(),
            found,
        });
    }
    let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    if version != WAL_VERSION {
        return Err(StoreError::BadVersion {
            found: version,
            expected: WAL_VERSION,
        });
    }
    let stored = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
    if crc32(&header[..12]) != stored {
        return Err(StoreError::Checksum {
            section: "WAL header".to_string(),
        });
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    loop {
        if pos == bytes.len() {
            return Ok(WalReplay {
                records,
                valid_len: pos as u64,
                torn: false,
            });
        }
        let frame = match bytes.get(pos..pos + WAL_FRAME_LEN as usize) {
            Some(f) => f,
            None => {
                // Mid-frame tear: the crash hit during an append.
                return Ok(WalReplay {
                    records,
                    valid_len: pos as u64,
                    torn: true,
                });
            }
        };
        let len = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]) as usize;
        let crc = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]);
        let start = pos + WAL_FRAME_LEN as usize;
        let payload = match start.checked_add(len).and_then(|end| bytes.get(start..end)) {
            Some(p) => p,
            None => {
                // Mid-payload tear (or a length field damaged into
                // claiming more bytes than exist — indistinguishable
                // from a tear, and prefix recovery drops it either way).
                return Ok(WalReplay {
                    records,
                    valid_len: pos as u64,
                    torn: true,
                });
            }
        };
        if crc32(payload) != crc {
            return Err(StoreError::WalChecksum {
                record: records.len(),
            });
        }
        records.push(payload.to_vec());
        pos = start + len;
    }
}

/// Appender over a WAL file.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    records: u64,
}

impl WalWriter {
    /// Creates a fresh, empty WAL at `path` (truncating any previous
    /// file) and makes its header durable.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::create(path).map_err(|e| StoreError::io("create", path, e))?;
        file.write_all(&wal_header())
            .map_err(|e| StoreError::io("write", path, e))?;
        file.sync_all()
            .map_err(|e| StoreError::io("sync", path, e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            records: 0,
        })
    }

    /// Reopens an existing WAL for appending after a scan: truncates the
    /// file to the intact prefix `replay` found (dropping a torn tail)
    /// and positions at its end.
    pub fn open_append(path: &Path, replay: &WalReplay) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| StoreError::io("open", path, e))?;
        file.set_len(replay.valid_len)
            .map_err(|e| StoreError::io("truncate", path, e))?;
        let mut w = Self {
            file,
            path: path.to_path_buf(),
            records: replay.records.len() as u64,
        };
        w.file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io("seek", &w.path, e))?;
        Ok(w)
    }

    /// Appends one record (framed and checksummed) and flushes it to the
    /// OS. Call [`WalWriter::sync`] to force it to stable storage.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let frame = frame_record(payload);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &self.path, e))?;
        self.file
            .flush()
            .map_err(|e| StoreError::io("flush", &self.path, e))?;
        self.records += 1;
        Ok(())
    }

    /// Forces appended records to stable storage (`fdatasync`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file
            .sync_data()
            .map_err(|e| StoreError::io("sync", &self.path, e))
    }

    /// Number of records this writer believes the file holds.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("elsi_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("basic.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"first").unwrap();
        w.append(b"").unwrap();
        w.append(&[0xFFu8; 1000]).unwrap();
        w.sync().unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], b"first");
        assert_eq!(replay.records[1], b"");
        assert_eq!(replay.records[2], vec![0xFFu8; 1000]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_recovers_the_prefix_and_truncates() {
        let path = tmp("torn.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"keep me").unwrap();
        w.append(b"torn away").unwrap();
        drop(w);
        // Crash mid-append: chop 3 bytes off the final record.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0], b"keep me");
        // Reopen truncates the tear; a fresh append then replays cleanly.
        let mut w = WalWriter::open_append(&path, &replay).unwrap();
        assert_eq!(w.records(), 1);
        w.append(b"after recovery").unwrap();
        let replay = read_wal(&path).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1], b"after recovery");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_payload_byte_is_a_checksum_error() {
        let path = tmp("flip.wal");
        let mut w = WalWriter::create(&path).unwrap();
        w.append(b"record zero").unwrap();
        w.append(b"record one").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside record 0's payload.
        let idx = WAL_HEADER_LEN as usize + WAL_FRAME_LEN as usize + 2;
        bytes[idx] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        match read_wal(&path) {
            Err(StoreError::WalChecksum { record: 0 }) => {}
            other => panic!("expected WalChecksum for record 0, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    /// Builds the in-memory image of a small WAL plus the byte ranges of
    /// each record's frame and payload.
    fn matrix_image() -> (Vec<u8>, Vec<(usize, usize, usize)>) {
        let payloads: [&[u8]; 4] = [b"alpha", b"", b"gamma-gamma", &[0xA5; 37]];
        let mut image = wal_header().to_vec();
        let mut spans = Vec::new();
        for p in payloads {
            let start = image.len();
            image.extend_from_slice(&frame_record(p));
            spans.push((start, start + WAL_FRAME_LEN as usize, image.len()));
        }
        (image, spans)
    }

    /// The records of `matrix_image()`, for prefix comparison.
    fn matrix_payloads() -> Vec<Vec<u8>> {
        vec![
            b"alpha".to_vec(),
            Vec::new(),
            b"gamma-gamma".to_vec(),
            vec![0xA5; 37],
        ]
    }

    #[test]
    fn truncation_matrix_recovers_the_exact_prefix_at_every_offset() {
        let (image, spans) = matrix_image();
        let want = matrix_payloads();
        let path = PathBuf::from("matrix.wal");
        for cut in 0..=image.len() {
            let result = read_wal_bytes(&image[..cut], &path);
            if cut < WAL_HEADER_LEN as usize {
                // Not even a header: clean truncation error, by variant.
                match result {
                    Err(StoreError::Truncated { .. }) => {}
                    other => panic!("cut {cut}: expected Truncated, got {other:?}"),
                }
                continue;
            }
            let replay = match result {
                Ok(r) => r,
                Err(e) => panic!("cut {cut}: prefix recovery must not fail, got {e:?}"),
            };
            // The intact prefix is exactly the records that end at or
            // before the cut; everything else is a reported tear.
            let complete = spans.iter().take_while(|&&(_, _, end)| end <= cut).count();
            assert_eq!(replay.records, want[..complete], "cut {cut}");
            let boundary = spans
                .get(complete.wrapping_sub(1))
                .map_or(WAL_HEADER_LEN, |&(_, _, end)| end as u64);
            assert_eq!(replay.valid_len, boundary, "cut {cut}");
            assert_eq!(replay.torn, cut as u64 != boundary, "cut {cut}");
        }
    }

    #[test]
    fn bit_flip_matrix_never_panics_and_never_yields_a_corrupt_record() {
        let (image, spans) = matrix_image();
        let want = matrix_payloads();
        let path = PathBuf::from("matrix.wal");
        let record_of = |pos: usize| spans.iter().position(|&(s, _, e)| pos >= s && pos < e);
        for pos in 0..image.len() {
            for bit in 0..8 {
                let mut bytes = image.clone();
                bytes[pos] ^= 1 << bit;
                let result = read_wal_bytes(&bytes, &path);
                match pos {
                    0..=7 => match result {
                        Err(StoreError::BadMagic { .. }) => {}
                        other => panic!("flip {pos}.{bit}: expected BadMagic, got {other:?}"),
                    },
                    8..=11 => match result {
                        Err(StoreError::BadVersion { .. }) => {}
                        other => panic!("flip {pos}.{bit}: expected BadVersion, got {other:?}"),
                    },
                    12..=15 => match result {
                        Err(StoreError::Checksum { .. }) => {}
                        other => panic!("flip {pos}.{bit}: expected Checksum, got {other:?}"),
                    },
                    _ => {
                        let rec = record_of(pos).expect("pos inside a record span");
                        let (start, payload_at, _) = spans[rec];
                        let in_len_field = pos < start + 4;
                        match result {
                            // Damage inside record `rec` must surface as a
                            // checksum rejection of exactly that record…
                            Err(StoreError::WalChecksum { record }) => {
                                assert_eq!(record, rec, "flip {pos}.{bit}");
                            }
                            // …except a damaged length field, which can
                            // claim more bytes than the file holds — that
                            // is indistinguishable from a torn append and
                            // recovers the prefix before the damage.
                            Ok(replay) if in_len_field => {
                                assert!(replay.torn, "flip {pos}.{bit}");
                                assert_eq!(replay.records, want[..rec], "flip {pos}.{bit}");
                            }
                            other => panic!(
                                "flip {pos}.{bit} (record {rec}, payload_at {payload_at}): \
                                 unexpected outcome {other:?}"
                            ),
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn missing_or_foreign_header_is_rejected() {
        let path = tmp("hdr.wal");
        std::fs::write(&path, b"short").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::Truncated { .. })));
        std::fs::write(&path, b"NOTAWAL!padpadpadpad").unwrap();
        assert!(matches!(read_wal(&path), Err(StoreError::BadMagic { .. })));
        std::fs::remove_file(&path).ok();
    }
}
