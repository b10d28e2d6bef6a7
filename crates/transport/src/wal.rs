//! A replica's write-ahead log of committed slots: one `minsync-wire`
//! frame ([`encode_frame`]) per slot, in slot order, so a record's position
//! is its slot (the first record is slot 1).
//!
//! [`Wal::open`] replays every whole record and cuts the file back after
//! the last one. A crash mid-append leaves a torn record at the tail; cut
//! back, the next append starts on a record boundary instead of extending
//! the torn bytes. The torn slot was never acked (see
//! `ReplicaNode::with_commit_log`), so losing it is safe. An append is one
//! `write`: the record survives a SIGKILL (the page cache has it) but not
//! power loss, since nothing calls `sync_data`.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;

use minsync_wire::{decode_frame, encode_frame, split_frame, DEFAULT_MAX_FRAME};
use minsync_workload::Batch;

/// An open write-ahead log (see the module docs).
#[derive(Debug)]
pub struct Wal {
    file: File,
}

impl Wal {
    /// Opens the log at `path`, creating it if absent, and returns it with
    /// the committed prefix it holds (`prefix[i]` is slot `i + 1`). Bytes
    /// after the last whole record are truncated away.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, reading or truncating the file.
    pub fn open(path: &Path) -> io::Result<(Wal, Vec<Batch>)> {
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (mut prefix, mut whole) = (Vec::new(), 0);
        while let Ok(Some((payload, used))) = split_frame(&bytes[whole..], DEFAULT_MAX_FRAME) {
            let Ok(batch) = decode_frame(payload) else {
                break;
            };
            prefix.push(batch);
            whole += used;
        }
        file.set_len(whole as u64)?;
        Ok((Wal { file }, prefix))
    }

    /// Appends the next slot's batch as one record.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the record, or `InvalidInput` if the batch
    /// does not fit a frame.
    pub fn append(&mut self, batch: &Batch) -> io::Result<()> {
        let mut frame = Vec::new();
        encode_frame(batch, &mut frame, DEFAULT_MAX_FRAME)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.file.write_all(&frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A restart after a crash at any byte of an append keeps every
    /// earlier slot, and re-appending the lost slot and restarting again
    /// yields the whole log: the torn bytes never merge with the next
    /// record.
    #[test]
    fn a_restart_at_every_cut_of_an_append_recovers_every_slot() {
        let slots: Vec<Batch> = (1..=5u64)
            .map(|slot| Batch((0..slot).map(|c| 50 + 10 * slot + c).collect()))
            .collect();
        let path = std::env::temp_dir().join(format!("minsync-wal-cuts-{}", std::process::id()));
        let mut head = Vec::new();
        for batch in &slots[..4] {
            encode_frame(batch, &mut head, DEFAULT_MAX_FRAME).unwrap();
        }
        let mut last = Vec::new();
        encode_frame(&slots[4], &mut last, DEFAULT_MAX_FRAME).unwrap();
        for cut in 0..=last.len() {
            std::fs::write(&path, [&head[..], &last[..cut]].concat()).unwrap();
            let (mut wal, prefix) = Wal::open(&path).unwrap();
            let kept = if cut == last.len() { 5 } else { 4 };
            assert_eq!(prefix, slots[..kept], "cut at {cut}");
            for batch in &slots[prefix.len()..] {
                wal.append(batch).unwrap();
            }
            drop(wal);
            let (_, recovered) = Wal::open(&path).unwrap();
            assert_eq!(recovered, slots, "restart after a cut at {cut}");
        }
        std::fs::remove_file(&path).unwrap();
    }
}
