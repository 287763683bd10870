//! On-disk formats for the DistGNN reproduction.
//!
//! Real deployments partition a billion-edge graph once and train many
//! times; Dist-DGL ships explicit `partition`/`load_partition` steps
//! and DistGNN's DGL code does the same with its Libra output. This
//! crate provides the equivalent persistence layer:
//!
//! - **edge lists** — the interchange format (`.el`, text: header line
//!   `num_vertices num_edges`, then one `src dst` pair per line, the
//!   same shape as OGB's CSVs);
//! - **matrices** — features and parameters (`.mat`, little-endian
//!   binary with a dims header);
//! - **datasets** — a directory bundling graph, features, labels and
//!   splits;
//! - **partitionings** — Libra's edge assignment, so a partition can be
//!   computed once and reused across runs and modes;
//! - **checkpoints** — versioned [`checkpoint::TrainState`] snapshots
//!   (model params, Adam moments, DRPA caches, in-flight messages) for
//!   crash recovery, plus the flat parameter dump.
//!
//! All formats round-trip exactly (bit-exact for f32 payloads) and are
//! validated on load with descriptive errors. Every saver writes
//! through [`atomic::atomic_write`] (temp file + rename), and binary
//! payloads carry CRC32 checksums so corruption surfaces as
//! [`IoError::Corrupt`] instead of silently poisoned training state.

pub mod async_writer;
pub mod atomic;
pub mod checkpoint;
pub mod dataset;
pub mod edgelist;
pub mod matrix;
pub mod partition;

pub use async_writer::{AsyncCheckpointWriter, CheckpointWriterReport};
pub use atomic::{atomic_write, crc32};
pub use checkpoint::{
    encode_train_state, encode_train_state_mode, latest_checkpoint, list_checkpoints,
    load_cluster_state, load_params, load_train_state, save_cluster_manifest, save_params,
    save_train_state, save_train_state_mode, CheckpointMode, DrpaState, PendingWire,
    RouteCacheState, TrainState,
};
pub use dataset::{load_dataset, save_dataset};
pub use edgelist::{load_edge_list, save_edge_list};
pub use matrix::{load_matrix, save_matrix};
pub use partition::{load_partitioning, save_partitioning};

use std::fmt;
use std::io;

/// Errors for every loader/saver in this crate.
#[derive(Debug)]
pub enum IoError {
    Io(io::Error),
    /// The file parsed but violated the format (message explains how).
    Format(String),
    /// The file matched the format but its contents are damaged —
    /// truncated payload or checksum mismatch (bit rot, torn write).
    Corrupt(String),
}

impl fmt::Display for IoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::Format(m) => write!(f, "format error: {m}"),
            IoError::Corrupt(m) => write!(f, "corrupt file: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

pub(crate) fn format_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Format(msg.into()))
}

pub(crate) fn corrupt_err<T>(msg: impl Into<String>) -> Result<T, IoError> {
    Err(IoError::Corrupt(msg.into()))
}

/// A fresh unique path under the system temp dir (test helper).
#[doc(hidden)]
pub fn temp_path(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "distgnn-io-{}-{}-{}",
        std::process::id(),
        tag,
        n
    ))
}
