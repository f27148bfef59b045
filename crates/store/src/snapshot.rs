//! The snapshot container: a versioned, sectioned, checksummed file.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [magic  8B = "ELSISNAP"]
//! [version 4B]
//! [n_sections 4B]
//! [header CRC32 4B]              — over the 16 header bytes above
//! n_sections ×:
//!   [tag 4B] [len 8B] [CRC32 4B] [payload len bytes]
//! ```
//!
//! Crash consistency: [`SnapshotWriter::write_file`] writes the entire
//! image to `<path>.tmp`, `fsync`s it, then atomically renames it over
//! `<path>` and `fsync`s the parent directory. A crash at any byte leaves
//! either the complete old file or the complete new file visible at
//! `<path>` — never a torn mixture; a leftover `.tmp` is ignored by
//! readers. The per-section CRCs catch damage from everything rename
//! cannot defend against (partial temp writes read by accident, bit rot,
//! truncation), turning it into a clean [`StoreError`].

use crate::crc::crc32;
use crate::error::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Magic bytes every snapshot file starts with.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"ELSISNAP";

/// Snapshot format version this build reads and writes. It governs the
/// layout of every section, so a section layout change bumps it: 2 = blobs
/// without version words, ZM without its derived key column and leaf
/// offsets, one router layout.
pub const SNAPSHOT_VERSION: u32 = 2;

const HEADER_LEN: usize = 8 + 4 + 4;

/// Builds a snapshot image section by section.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SnapshotWriter {
    /// An empty snapshot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one section. Tags may repeat; readers see sections in
    /// write order.
    pub fn add_section(&mut self, tag: u32, payload: Vec<u8>) {
        self.sections.push((tag, payload));
    }

    /// Serialises the complete file image.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            HEADER_LEN
                + 4
                + self
                    .sections
                    .iter()
                    .map(|(_, p)| p.len() + 16)
                    .sum::<usize>(),
        );
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());
        for (tag, payload) in &self.sections {
            // The CRC covers the frame (tag + length) as well as the
            // payload, so a damaged tag or length is caught too.
            let mut crc = crate::crc::Crc32::new();
            crc.update(&tag.to_le_bytes());
            crc.update(&(payload.len() as u64).to_le_bytes());
            crc.update(payload);
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&crc.finish().to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }

    /// Streams the file image into any writer — the seam the
    /// fault-injection tests use to crash a save at an arbitrary byte.
    pub fn write_to(&self, w: &mut dyn Write) -> std::io::Result<()> {
        w.write_all(&self.to_bytes())
    }

    /// Durably replaces `path` with this snapshot: write to `<path>.tmp`,
    /// `fsync`, atomic rename, `fsync` the directory.
    pub fn write_file(&self, path: &Path) -> Result<(), StoreError> {
        let tmp = tmp_path(path);
        let image = self.to_bytes();
        let mut f = File::create(&tmp).map_err(|e| StoreError::io("create", &tmp, e))?;
        f.write_all(&image)
            .map_err(|e| StoreError::io("write", &tmp, e))?;
        f.sync_all().map_err(|e| StoreError::io("sync", &tmp, e))?;
        drop(f);
        fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", path, e))?;
        sync_parent_dir(path)?;
        Ok(())
    }
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// `fsync`s the directory containing `path`, making a completed rename
/// durable. Best effort on platforms where directories cannot be synced.
pub fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = OpenOptions::new().read(true).open(dir) {
            d.sync_all()
                .map_err(|e| StoreError::io("sync_dir", dir, e))?;
        }
    }
    Ok(())
}

/// A parsed, checksum-verified snapshot.
///
/// Owns the raw image and indexes sections as ranges into it, so parsing
/// verifies checksums without copying payloads — restore-path section
/// access is a slice borrow, not a second pass over the file's bytes.
#[derive(Debug)]
pub struct Snapshot {
    buf: Vec<u8>,
    sections: Vec<(u32, core::ops::Range<usize>)>,
}

impl Snapshot {
    /// Parses and verifies a complete snapshot image from a borrowed
    /// buffer (copies it; [`Snapshot::from_vec`] avoids the copy).
    pub fn from_bytes(bytes: &[u8], path: &Path) -> Result<Self, StoreError> {
        Self::from_vec(bytes.to_vec(), path)
    }

    /// Parses and verifies a complete snapshot image, taking ownership of
    /// the buffer.
    pub fn from_vec(buf: Vec<u8>, path: &Path) -> Result<Self, StoreError> {
        let bytes = buf.as_slice();
        let header = bytes.get(..HEADER_LEN).ok_or(StoreError::Truncated {
            section: "snapshot header".to_string(),
            offset: bytes.len(),
        })?;
        if header[..8] != SNAPSHOT_MAGIC {
            let mut found = [0u8; 8];
            found.copy_from_slice(&header[..8]);
            return Err(StoreError::BadMagic {
                path: path.to_path_buf(),
                found,
            });
        }
        let version = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if version != SNAPSHOT_VERSION {
            return Err(StoreError::BadVersion {
                found: version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let n_sections = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let stored_crc = bytes
            .get(HEADER_LEN..HEADER_LEN + 4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .ok_or(StoreError::Truncated {
                section: "snapshot header".to_string(),
                offset: bytes.len(),
            })?;
        if crc32(header) != stored_crc {
            return Err(StoreError::Checksum {
                section: "snapshot header".to_string(),
            });
        }
        let mut pos = HEADER_LEN + 4;
        let mut sections = Vec::with_capacity(n_sections as usize);
        for i in 0..n_sections {
            let frame = bytes.get(pos..pos + 16).ok_or(StoreError::Truncated {
                section: format!("snapshot section {i} frame"),
                offset: bytes.len(),
            })?;
            let tag = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
            let len = u64::from_le_bytes([
                frame[4], frame[5], frame[6], frame[7], frame[8], frame[9], frame[10], frame[11],
            ]);
            let crc = u32::from_le_bytes([frame[12], frame[13], frame[14], frame[15]]);
            pos += 16;
            let len = usize::try_from(len).map_err(|_| {
                StoreError::corrupt(&format!("snapshot section {i}"), "length exceeds usize")
            })?;
            let payload = bytes
                .get(pos..pos.saturating_add(len))
                .ok_or(StoreError::Truncated {
                    section: format!("snapshot section {i} payload"),
                    offset: bytes.len(),
                })?;
            let mut check = crate::crc::Crc32::new();
            check.update(&frame[..12]);
            check.update(payload);
            if check.finish() != crc {
                return Err(StoreError::Checksum {
                    section: format!("snapshot section {i} (tag {tag:#x})"),
                });
            }
            sections.push((tag, pos..pos + len));
            pos += len;
        }
        if pos != bytes.len() {
            return Err(StoreError::corrupt(
                "snapshot",
                format!("{} trailing bytes after last section", bytes.len() - pos),
            ));
        }
        Ok(Self { buf, sections })
    }

    /// Reads and verifies a snapshot file.
    pub fn read_file(path: &Path) -> Result<Self, StoreError> {
        let mut f = File::open(path).map_err(|e| StoreError::io("open", path, e))?;
        let mut bytes = Vec::new();
        f.read_to_end(&mut bytes)
            .map_err(|e| StoreError::io("read", path, e))?;
        Self::from_vec(bytes, path)
    }

    /// The first section with `tag`, if present.
    pub fn section(&self, tag: u32) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, r)| &self.buf[r.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample() -> SnapshotWriter {
        let mut w = SnapshotWriter::new();
        w.add_section(0x10, vec![1, 2, 3, 4, 5]);
        w.add_section(0x20, Vec::new());
        w.add_section(0x30, (0..=255u8).collect());
        w
    }

    #[test]
    fn sections_round_trip() {
        let bytes = sample().to_bytes();
        let snap = Snapshot::from_bytes(&bytes, &PathBuf::from("mem")).unwrap();
        assert_eq!(snap.section(0x10), Some(&[1u8, 2, 3, 4, 5][..]));
        assert_eq!(snap.section(0x20), Some(&[][..]));
        assert_eq!(snap.section(0x30).map(|s| s.len()), Some(256));
        assert_eq!(snap.section(0x99), None);
    }

    #[test]
    fn every_truncation_point_is_a_clean_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let res = Snapshot::from_bytes(&bytes[..cut], &PathBuf::from("mem"));
            assert!(res.is_err(), "prefix of {cut} bytes parsed");
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let clean = sample().to_bytes();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x01;
            let res = Snapshot::from_bytes(&bytes, &PathBuf::from("mem"));
            // A flip in a length field may masquerade as truncation; a
            // flip in magic as BadMagic; anywhere else as a checksum
            // mismatch. It must never parse as clean data.
            assert!(res.is_err(), "flip at byte {i} went undetected");
        }
    }

    #[test]
    fn write_file_is_atomic_replace() {
        let dir = std::env::temp_dir().join(format!("elsi_snap_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.snap");
        sample().write_file(&path).unwrap();
        let first = Snapshot::read_file(&path).unwrap();
        assert_eq!(first.section(0x10), Some(&[1u8, 2, 3, 4, 5][..]));
        // Overwrite with different content; the temp file must be gone.
        let mut w2 = SnapshotWriter::new();
        w2.add_section(0x11, vec![9]);
        w2.write_file(&path).unwrap();
        let second = Snapshot::read_file(&path).unwrap();
        assert_eq!(second.section(0x11), Some(&[9u8][..]));
        assert_eq!(second.section(0x10), None);
        assert!(!tmp_path(&path).exists(), "temp file left behind");
        std::fs::remove_dir_all(&dir).ok();
    }
}
