//! Single-file append-only segment backend.
//!
//! All blocks of one device live in one segment file; an in-memory
//! `key -> (offset, len)` index is rebuilt by scanning the segment on
//! open. Puts and deletes append records; a put of an existing key
//! shadows the old record (last writer wins on scan), a delete appends
//! a tombstone. Nothing is ever updated in place, matching the
//! archival write-once model.
//!
//! Record wire format (all integers little-endian):
//!
//! ```text
//! [kind u8][id u64][node u32][len u32][payload len bytes][fnv u64]
//! ```
//!
//! `kind` is 1 (put) or 2 (tombstone, `len == 0`); the trailing 8-lane
//! block digest (`tornado_codec::checksum`) covers header and
//! payload.
//!
//! The scan on open trusts a record's kind and length to find the next
//! one. A record whose kind is valid and whose whole length lies inside
//! the file, but whose digest fails, has rotted where it lies: the scan
//! skips it, and its block is absent — an erasure the store repairs like
//! any other. Where the file ends inside a record, or a kind byte is
//! garbage, the scan stops and truncates the file there: a torn append can
//! only be the tail. So rot in a length field still truncates from its
//! record on (the length sends the scan past the file's end, or to a
//! garbage kind), and a rotted tombstone, skipped, leaves its block's
//! earlier record live: an orphan the store, having deleted the object,
//! never serves.
//!
//! Reads and appends are positioned (`read_exact_at`, `write_all_at`): the
//! file has no cursor to move, and a read needs only `&self`.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;
use tornado_codec::kernels::Ahead;

use crate::backend::{
    appended_since, metrics, sync_file, Appended, BlockBackend, BlockKey, IndexMap,
};

const KIND_PUT: u8 = 1;
const KIND_TOMBSTONE: u8 = 2;
const HEADER_LEN: usize = 1 + 8 + 4 + 4;
const TRAILER_LEN: usize = 8;

/// Append-only single-file store; see the module docs for the format.
#[derive(Debug)]
pub struct SegmentBackend {
    file: File,
    /// Offset one past the last valid record — the append point.
    end: u64,
    /// `key -> (payload offset, payload len)` of the live record.
    index: IndexMap<BlockKey, (u64, u32)>,
    fsync: bool,
}

impl SegmentBackend {
    /// Opens (creating if needed) the segment at `path`, rebuilding the
    /// index by a full scan. A rotted record is skipped; a torn tail is
    /// truncated away (see the module docs).
    pub fn open(path: &Path, fsync: bool) -> io::Result<Self> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let file_len = file.metadata()?.len();
        let mut index = IndexMap::default();
        let mut pos = 0u64;
        let mut record = vec![0u8; HEADER_LEN];
        while file_len - pos >= (HEADER_LEN + TRAILER_LEN) as u64 {
            record.resize(HEADER_LEN, 0);
            file.read_exact_at(&mut record, pos)?;
            let kind = record[0];
            let id = u64::from_le_bytes(record[1..9].try_into().unwrap());
            let node = u32::from_le_bytes(record[9..13].try_into().unwrap());
            let len = u32::from_le_bytes(record[13..17].try_into().unwrap()) as usize;
            let record_len = (HEADER_LEN + len + TRAILER_LEN) as u64;
            if !(kind == KIND_PUT || kind == KIND_TOMBSTONE) || file_len - pos < record_len {
                break; // garbage kind or torn payload
            }
            record.resize(HEADER_LEN + len + TRAILER_LEN, 0);
            file.read_exact_at(&mut record[HEADER_LEN..], pos + HEADER_LEN as u64)?;
            let (body, trailer) = record.split_at(HEADER_LEN + len);
            if tornado_codec::checksum(body) == u64::from_le_bytes(trailer.try_into().unwrap()) {
                if kind == KIND_PUT {
                    index.insert((id, node), (pos + HEADER_LEN as u64, len as u32));
                } else {
                    index.remove(&(id, node));
                }
            }
            pos += record_len;
        }
        metrics().scan_bytes.add(pos);
        if pos < file_len {
            file.set_len(pos)?;
            sync_file(&file)?;
        }
        Ok(Self {
            file,
            end: pos,
            index,
            fsync,
        })
    }

    fn append(&mut self, kind: u8, key: BlockKey, payload: &[u8]) -> io::Result<u64> {
        let mut rec = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
        rec.push(kind);
        rec.extend_from_slice(&key.0.to_le_bytes());
        rec.extend_from_slice(&key.1.to_le_bytes());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(payload);
        let sum = tornado_codec::checksum(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all_at(&rec, self.end)?;
        let payload_off = self.end + HEADER_LEN as u64;
        self.end += rec.len() as u64;
        if self.fsync {
            sync_file(&self.file)?;
        }
        Ok(payload_off)
    }
}

impl BlockBackend for SegmentBackend {
    fn put(&mut self, key: BlockKey, data: &[u8]) -> io::Result<()> {
        let off = self.append(KIND_PUT, key, data)?;
        self.index.insert(key, (off, data.len() as u32));
        Ok(())
    }

    fn read_into(
        &self,
        key: &BlockKey,
        out: &mut Vec<u8>,
        next: Ahead,
    ) -> io::Result<Option<Appended>> {
        let Some(&(off, len)) = self.index.get(key) else {
            return Ok(None);
        };
        let start = out.len();
        out.resize(start + len as usize, 0);
        self.file.read_exact_at(&mut out[start..], off)?;
        Ok(Some(appended_since(out, start, next)))
    }

    fn locate(&self, key: &BlockKey) -> Option<Ahead> {
        self.index.contains_key(key).then_some(Ahead::NONE)
    }

    fn delete(&mut self, key: &BlockKey) -> io::Result<bool> {
        if !self.index.contains_key(key) {
            return Ok(false);
        }
        self.append(KIND_TOMBSTONE, *key, &[])?;
        self.index.remove(key);
        Ok(true)
    }

    fn block_count(&self) -> usize {
        self.index.len()
    }

    fn flush(&mut self) -> io::Result<()> {
        sync_file(&self.file)
    }

    fn destroy(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.end = 0;
        self.index.clear();
        sync_file(&self.file)
    }

    fn kind(&self) -> &'static str {
        "segment"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::tests::get;
    use std::io::{Read, Seek, SeekFrom, Write};

    fn tmpseg(tag: &str) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!(
            "tornado-segbackend-{tag}-{}.seg",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn roundtrip_shadow_delete_reopen() {
        let path = tmpseg("roundtrip");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), &[1, 2, 3]).unwrap();
            b.put((1, 0), &[9, 9]).unwrap(); // shadows
            b.put((2, 4), &[7; 64]).unwrap();
            b.put((3, 1), &[5]).unwrap();
            b.delete(&(3, 1)).unwrap();
            assert_eq!(get(&b, &(1, 0)).unwrap().unwrap(), vec![9, 9]);
        }
        let b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(get(&b, &(1, 0)).unwrap().unwrap(), vec![9, 9]);
        assert_eq!(get(&b, &(2, 4)).unwrap().unwrap(), vec![7; 64]);
        assert!(get(&b, &(3, 1)).unwrap().is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_truncated_earlier_records_survive() {
        let path = tmpseg("torn");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), &[1, 2, 3, 4]).unwrap();
            b.put((2, 0), &[5, 6, 7, 8]).unwrap();
        }
        // Tear the file mid-way through the second record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 5).unwrap();
        drop(f);
        let mut b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 1);
        assert_eq!(get(&b, &(1, 0)).unwrap().unwrap(), vec![1, 2, 3, 4]);
        // The torn tail was truncated: appends land on a clean boundary.
        b.put((2, 0), &[5, 6, 7, 8]).unwrap();
        drop(b);
        let b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 2);
        assert_eq!(get(&b, &(2, 0)).unwrap().unwrap(), vec![5, 6, 7, 8]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flipped_bit_in_tail_record_is_dropped() {
        let path = tmpseg("rot");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            b.put((1, 0), &[1; 32]).unwrap();
            b.put((2, 0), &[2; 32]).unwrap();
        }
        // Flip one payload byte of the *last* record on disk.
        let len = std::fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        f.seek(SeekFrom::Start(len - 20)).unwrap();
        let mut byte = [0u8; 1];
        f.read_exact(&mut byte).unwrap();
        byte[0] ^= 0x40;
        f.seek(SeekFrom::Start(len - 20)).unwrap();
        f.write_all(&byte).unwrap();
        drop(f);
        let b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 1);
        assert!(b.locate(&(1, 0)).is_some());
        assert!(b.locate(&(2, 0)).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_rotted_record_mid_segment_is_skipped_and_the_rest_survive() {
        let path = tmpseg("midrot");
        {
            let mut b = SegmentBackend::open(&path, false).unwrap();
            for i in 0..10u64 {
                b.put((i, 0), &[i as u8; 32]).unwrap();
            }
        }
        // Flip one payload byte of the *first* record on disk.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new()
            .read(true)
            .write(true)
            .open(&path)
            .unwrap();
        let mut byte = [0u8; 1];
        f.read_exact_at(&mut byte, HEADER_LEN as u64).unwrap();
        f.write_all_at(&[byte[0] ^ 0x40], HEADER_LEN as u64)
            .unwrap();
        drop(f);
        let mut b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 9, "only the rotted record's block is gone");
        assert!(b.locate(&(0, 0)).is_none());
        for i in 1..10u64 {
            assert_eq!(get(&b, &(i, 0)).unwrap().unwrap(), vec![i as u8; 32]);
        }
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            len,
            "not shortened"
        );
        // The store rewrites the lost block; it shadows nothing and survives.
        b.put((0, 0), &[0; 32]).unwrap();
        drop(b);
        let b = SegmentBackend::open(&path, false).unwrap();
        assert_eq!(b.block_count(), 10);
        assert_eq!(get(&b, &(0, 0)).unwrap().unwrap(), vec![0; 32]);
        let _ = std::fs::remove_file(&path);
    }
}
