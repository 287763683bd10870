//! Versioned training-state checkpoints for crash recovery.
//!
//! A consistent distributed checkpoint is one [`TrainState`] per rank
//! (all captured at the same epoch barrier) plus a cluster `MANIFEST`.
//! Restoring every piece and replaying from the checkpoint epoch
//! reproduces a never-killed run bit-for-bit, which pins down exactly
//! what must be captured:
//!
//! - **model parameters** — the obvious part;
//! - **Adam moments and step count** — bias correction depends on the
//!   step count, so a resumed optimizer that reset `t` would take
//!   differently-sized steps;
//! - **cd-r DRPA caches** — each `(layer, peer)` route cache with its
//!   per-bin refresh epochs, so the resumed run replays the same
//!   staleness trajectory;
//! - **in-flight tagged messages** — the `cd-r` pipeline keeps up to
//!   `r` epochs of partial aggregates in the mail; they die with the
//!   crashed cluster and must be re-posted on restore.
//!
//! On disk, each rank's `rank-<r>.state` file carries a section table
//! (name, length, CRC32 per section) in its header, and the header
//! itself — magic through section table — is sealed by its own CRC32,
//! so no byte of the file escapes validation; the `MANIFEST`
//! lists every rank file with its whole-file CRC32. All writes are
//! atomic (temp + rename), and the checkpoint *directory* itself is
//! committed by renaming `ckpt-<epoch>.tmp/` to `ckpt-<epoch>/` — a
//! crash mid-checkpoint leaves no directory a loader would accept.

use crate::atomic::{atomic_write, crc32};
use crate::matrix::{load_matrix, save_matrix};
use crate::{corrupt_err, format_err, IoError};
use distgnn_nn::AdamState;
use distgnn_tensor::half::{f32_from_bf16, f32_to_bf16};
use distgnn_tensor::Matrix;
use std::path::{Path, PathBuf};

/// Current checkpoint format version; loaders reject anything else.
/// Version 2 added the `residual` section (error-feedback state), the
/// DRPA codec mirrors, and the header's encoding-mode flag. Version 3
/// added the membership generation — in the header and on each pending
/// outbox message — so an elastically resumed world can tell its own
/// traffic from a dead generation's.
pub const CHECKPOINT_VERSION: u32 = 3;

/// How the weight-bearing sections (`params`, `adam` moments) are
/// encoded on disk. The mode is stamped into the header, so a loader
/// always knows how to read the file back — but only
/// [`CheckpointMode::Lossless`] guarantees bit-exact resume; the bf16
/// mode halves those sections at a bounded relative rounding error
/// (|x − x̂| ≤ 2⁻⁸·|x|) and is strictly opt-in. Structural sections
/// (DRPA caches, outbox, residuals) are always lossless: they are
/// small, and corrupting comm state buys nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckpointMode {
    #[default]
    Lossless,
    /// Parameters and Adam moments stored as bf16 (2 bytes/value).
    LossyBf16,
}

impl CheckpointMode {
    fn flag(self) -> u32 {
        match self {
            CheckpointMode::Lossless => 0,
            CheckpointMode::LossyBf16 => 1,
        }
    }

    fn from_flag(flag: u32) -> Result<Self, IoError> {
        match flag {
            0 => Ok(CheckpointMode::Lossless),
            1 => Ok(CheckpointMode::LossyBf16),
            other => format_err(format!("unknown checkpoint mode flag {other}")),
        }
    }
}

const STATE_MAGIC: &[u8; 8] = b"DGNNCKPT";
const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_HEADER: &str = "distgnn-checkpoint-manifest v1";

/// One cached DRPA route (the partial-aggregate rows one peer holds
/// for another), as serialized state: row-major data, per-row validity,
/// and the epoch each bin was last refreshed in.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RouteCacheState {
    pub data: Vec<f32>,
    pub valid: Vec<bool>,
    pub bin_refresh: Vec<Option<u64>>,
}

/// The cd-r aggregator's cross-epoch state: `[layer][peer]` route
/// caches for the root-bound and leaf-bound directions. Empty for
/// `cd-0` / `0c` runs (those modes keep no cross-epoch comm state).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DrpaState {
    pub root: Vec<Vec<RouteCacheState>>,
    pub leaf: Vec<Vec<RouteCacheState>>,
    /// Delta-codec sender mirrors, `[phase][layer][peer]` — the
    /// accumulated decoded deltas already shipped to each peer. Empty
    /// unless a lossy wire codec is active.
    pub codec_sent: Vec<Vec<Vec<Vec<f32>>>>,
    /// Delta-codec receiver accumulators, same shape as `codec_sent`.
    pub codec_recv: Vec<Vec<Vec<Vec<f32>>>>,
}

/// One in-flight tagged message, with its visibility delay re-based to
/// the checkpoint instant (see `comm`'s outbox export).
#[derive(Clone, Debug, PartialEq)]
pub struct PendingWire {
    pub dst: u64,
    pub tag: u64,
    pub remaining_delay: u64,
    /// Membership generation the message was posted under. A restore
    /// into a different generation (elastic resize, rank adoption)
    /// drops the message rather than deliver cross-world traffic.
    pub generation: u64,
    pub payload: Vec<f32>,
}

/// Everything one rank needs to resume training mid-run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrainState {
    /// The next epoch to run (epochs `0..epoch` are complete).
    pub epoch: u64,
    pub rank: u32,
    pub ranks: u32,
    /// Membership generation of the world that wrote this state. Starts
    /// at 0 for a fresh cluster and increments on every membership
    /// change (elastic resize, rank adoption), so a resumed world never
    /// mistakes another generation's comm state for its own.
    pub generation: u64,
    pub params: Vec<f32>,
    pub adam: AdamState,
    pub drpa: DrpaState,
    pub outbox: Vec<PendingWire>,
    /// Error-feedback residuals: one buffer, as long as the flat
    /// gradient, for the one compressed gradient stream. Empty when no
    /// lossy codec is active. Resuming without these would silently
    /// drop the compression error carried forward from the checkpoint
    /// epoch, forking the trajectory.
    pub residuals: Vec<Vec<f32>>,
}

// ---------------------------------------------------------------------
// Flat little-endian encoding helpers.

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if self.pos + n > self.buf.len() {
            return corrupt_err(format!(
                "{} truncated: wanted {n} bytes at offset {}, have {}",
                self.what,
                self.pos,
                self.buf.len() - self.pos
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32, IoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, IoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// A length prefix that must be satisfiable by the remaining bytes
    /// (guards against allocating absurd sizes from corrupt headers).
    fn len(&mut self, unit: usize) -> Result<usize, IoError> {
        let n = self.u64()? as usize;
        if n.saturating_mul(unit) > self.buf.len() - self.pos {
            return corrupt_err(format!(
                "{}: length prefix {n} exceeds remaining bytes",
                self.what
            ));
        }
        Ok(n)
    }

    fn f32s(&mut self, n: usize) -> Result<Vec<f32>, IoError> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn bf16s(&mut self, n: usize) -> Result<Vec<f32>, IoError> {
        let bytes = self.take(n * 2)?;
        Ok(bytes
            .chunks_exact(2)
            .map(|c| f32_from_bf16(u16::from_le_bytes([c[0], c[1]])))
            .collect())
    }

    fn bools(&mut self, n: usize) -> Result<Vec<bool>, IoError> {
        self.take(n)?
            .iter()
            .map(|&b| match b {
                0 => Ok(false),
                1 => Ok(true),
                other => corrupt_err(format!("{}: invalid bool byte {other}", self.what)),
            })
            .collect()
    }

    fn done(&self) -> Result<(), IoError> {
        if self.pos != self.buf.len() {
            return corrupt_err(format!(
                "{}: {} trailing bytes after the payload",
                self.what,
                self.buf.len() - self.pos
            ));
        }
        Ok(())
    }
}

fn put_f32s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

fn put_bf16s(buf: &mut Vec<u8>, xs: &[f32]) {
    buf.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    for &x in xs {
        buf.extend_from_slice(&f32_to_bf16(x).to_le_bytes());
    }
}

/// `put_f32s` or `put_bf16s` per the checkpoint mode.
fn put_weights(buf: &mut Vec<u8>, xs: &[f32], mode: CheckpointMode) {
    match mode {
        CheckpointMode::Lossless => put_f32s(buf, xs),
        CheckpointMode::LossyBf16 => put_bf16s(buf, xs),
    }
}

fn read_weights(r: &mut Reader, mode: CheckpointMode) -> Result<Vec<f32>, IoError> {
    match mode {
        CheckpointMode::Lossless => {
            let n = r.len(4)?;
            r.f32s(n)
        }
        CheckpointMode::LossyBf16 => {
            let n = r.len(2)?;
            r.bf16s(n)
        }
    }
}

// ---------------------------------------------------------------------
// Section payloads.

fn encode_params(params: &[f32], mode: CheckpointMode) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + params.len() * 4);
    put_weights(&mut buf, params, mode);
    buf
}

fn decode_params(bytes: &[u8], mode: CheckpointMode) -> Result<Vec<f32>, IoError> {
    let mut r = Reader::new(bytes, "params section");
    let params = read_weights(&mut r, mode)?;
    r.done()?;
    Ok(params)
}

fn encode_adam(adam: &AdamState, mode: CheckpointMode) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&adam.t.to_le_bytes());
    buf.extend_from_slice(&(adam.slots.len() as u64).to_le_bytes());
    for slot in &adam.slots {
        match slot {
            None => buf.push(0),
            Some((m, v)) => {
                buf.push(1);
                put_weights(&mut buf, m, mode);
                put_weights(&mut buf, v, mode);
            }
        }
    }
    buf
}

fn decode_adam(bytes: &[u8], mode: CheckpointMode) -> Result<AdamState, IoError> {
    let mut r = Reader::new(bytes, "adam section");
    let t = r.u64()?;
    let nslots = r.len(1)?;
    let mut slots = Vec::with_capacity(nslots);
    for _ in 0..nslots {
        let present = r.take(1)?[0];
        slots.push(match present {
            0 => None,
            1 => {
                let m = read_weights(&mut r, mode)?;
                let v = read_weights(&mut r, mode)?;
                if v.len() != m.len() {
                    return corrupt_err("adam section: m/v moment lengths differ");
                }
                Some((m, v))
            }
            other => return corrupt_err(format!("adam section: invalid slot flag {other}")),
        });
    }
    r.done()?;
    Ok(AdamState { t, slots })
}

fn encode_route_caches(buf: &mut Vec<u8>, caches: &[Vec<RouteCacheState>]) {
    buf.extend_from_slice(&(caches.len() as u64).to_le_bytes());
    for layer in caches {
        buf.extend_from_slice(&(layer.len() as u64).to_le_bytes());
        for c in layer {
            put_f32s(buf, &c.data);
            buf.extend_from_slice(&(c.valid.len() as u64).to_le_bytes());
            buf.extend(c.valid.iter().map(|&b| b as u8));
            buf.extend_from_slice(&(c.bin_refresh.len() as u64).to_le_bytes());
            for bin in &c.bin_refresh {
                match bin {
                    None => buf.push(0),
                    Some(e) => {
                        buf.push(1);
                        buf.extend_from_slice(&e.to_le_bytes());
                    }
                }
            }
        }
    }
}

fn decode_route_caches(r: &mut Reader) -> Result<Vec<Vec<RouteCacheState>>, IoError> {
    let nlayers = r.len(8)?;
    let mut out = Vec::with_capacity(nlayers);
    for _ in 0..nlayers {
        let npeers = r.len(1)?;
        let mut layer = Vec::with_capacity(npeers);
        for _ in 0..npeers {
            let ndata = r.len(4)?;
            let data = r.f32s(ndata)?;
            let nvalid = r.len(1)?;
            let valid = r.bools(nvalid)?;
            let nbins = r.len(1)?;
            let mut bin_refresh = Vec::with_capacity(nbins);
            for _ in 0..nbins {
                bin_refresh.push(match r.take(1)?[0] {
                    0 => None,
                    1 => Some(r.u64()?),
                    other => {
                        return corrupt_err(format!("drpa section: invalid bin flag {other}"))
                    }
                });
            }
            layer.push(RouteCacheState { data, valid, bin_refresh });
        }
        out.push(layer);
    }
    Ok(out)
}

fn encode_codec_mirrors(buf: &mut Vec<u8>, mirrors: &[Vec<Vec<Vec<f32>>>]) {
    buf.extend_from_slice(&(mirrors.len() as u64).to_le_bytes());
    for phase in mirrors {
        buf.extend_from_slice(&(phase.len() as u64).to_le_bytes());
        for layer in phase {
            buf.extend_from_slice(&(layer.len() as u64).to_le_bytes());
            for peer in layer {
                put_f32s(buf, peer);
            }
        }
    }
}

fn decode_codec_mirrors(r: &mut Reader) -> Result<Vec<Vec<Vec<Vec<f32>>>>, IoError> {
    let nphases = r.len(8)?;
    let mut out = Vec::with_capacity(nphases);
    for _ in 0..nphases {
        let nlayers = r.len(8)?;
        let mut phase = Vec::with_capacity(nlayers);
        for _ in 0..nlayers {
            let npeers = r.len(8)?;
            let mut layer = Vec::with_capacity(npeers);
            for _ in 0..npeers {
                let n = r.len(4)?;
                layer.push(r.f32s(n)?);
            }
            phase.push(layer);
        }
        out.push(phase);
    }
    Ok(out)
}

fn encode_drpa(drpa: &DrpaState) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_route_caches(&mut buf, &drpa.root);
    encode_route_caches(&mut buf, &drpa.leaf);
    encode_codec_mirrors(&mut buf, &drpa.codec_sent);
    encode_codec_mirrors(&mut buf, &drpa.codec_recv);
    buf
}

fn decode_drpa(bytes: &[u8]) -> Result<DrpaState, IoError> {
    let mut r = Reader::new(bytes, "drpa section");
    let root = decode_route_caches(&mut r)?;
    let leaf = decode_route_caches(&mut r)?;
    let codec_sent = decode_codec_mirrors(&mut r)?;
    let codec_recv = decode_codec_mirrors(&mut r)?;
    r.done()?;
    Ok(DrpaState { root, leaf, codec_sent, codec_recv })
}

fn encode_outbox(outbox: &[PendingWire]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(outbox.len() as u64).to_le_bytes());
    for m in outbox {
        buf.extend_from_slice(&m.dst.to_le_bytes());
        buf.extend_from_slice(&m.tag.to_le_bytes());
        buf.extend_from_slice(&m.remaining_delay.to_le_bytes());
        buf.extend_from_slice(&m.generation.to_le_bytes());
        put_f32s(&mut buf, &m.payload);
    }
    buf
}

fn decode_outbox(bytes: &[u8]) -> Result<Vec<PendingWire>, IoError> {
    let mut r = Reader::new(bytes, "outbox section");
    let n = r.len(32)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let dst = r.u64()?;
        let tag = r.u64()?;
        let remaining_delay = r.u64()?;
        let generation = r.u64()?;
        let np = r.len(4)?;
        out.push(PendingWire { dst, tag, remaining_delay, generation, payload: r.f32s(np)? });
    }
    r.done()?;
    Ok(out)
}

fn encode_residuals(residuals: &[Vec<f32>]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(residuals.len() as u64).to_le_bytes());
    for r in residuals {
        put_f32s(&mut buf, r);
    }
    buf
}

fn decode_residuals(bytes: &[u8]) -> Result<Vec<Vec<f32>>, IoError> {
    let mut r = Reader::new(bytes, "residual section");
    let n = r.len(8)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.len(4)?;
        out.push(r.f32s(len)?);
    }
    r.done()?;
    Ok(out)
}

const SECTION_NAMES: [&[u8; 8]; 5] =
    [b"params\0\0", b"adam\0\0\0\0", b"drpa\0\0\0\0", b"outbox\0\0", b"residual"];

fn section_name(i: usize) -> String {
    String::from_utf8_lossy(SECTION_NAMES[i])
        .trim_end_matches('\0')
        .to_string()
}

// ---------------------------------------------------------------------
// Rank state files.

/// Writes one rank's [`TrainState`] atomically: magic, version, run
/// coordinates, a section table carrying each section's length and
/// CRC32, then the section payloads.
pub fn save_train_state(path: &Path, state: &TrainState) -> Result<(), IoError> {
    atomic_write(path, &encode_train_state(state))
}

/// [`save_train_state`] with an explicit [`CheckpointMode`].
pub fn save_train_state_mode(
    path: &Path,
    state: &TrainState,
    mode: CheckpointMode,
) -> Result<(), IoError> {
    atomic_write(path, &encode_train_state_mode(state, mode))
}

/// Serializes one rank's state to the checkpoint wire format without
/// touching the filesystem. The async checkpoint writer encodes on the
/// rank thread (cheap, deterministic) and ships the bytes to a
/// background thread for the write+fsync (expensive, off the critical
/// path); `encode` + [`atomic_write`] is byte-identical to
/// [`save_train_state`].
pub fn encode_train_state(state: &TrainState) -> Vec<u8> {
    encode_train_state_mode(state, CheckpointMode::Lossless)
}

/// [`encode_train_state`] with an explicit [`CheckpointMode`]; the mode
/// is stamped into the header so loaders decode symmetrically.
pub fn encode_train_state_mode(state: &TrainState, mode: CheckpointMode) -> Vec<u8> {
    let sections = [
        encode_params(&state.params, mode),
        encode_adam(&state.adam, mode),
        encode_drpa(&state.drpa),
        encode_outbox(&state.outbox),
        encode_residuals(&state.residuals),
    ];
    let mut buf = Vec::new();
    buf.extend_from_slice(STATE_MAGIC);
    buf.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
    buf.extend_from_slice(&mode.flag().to_le_bytes());
    buf.extend_from_slice(&state.epoch.to_le_bytes());
    buf.extend_from_slice(&state.rank.to_le_bytes());
    buf.extend_from_slice(&state.ranks.to_le_bytes());
    buf.extend_from_slice(&state.generation.to_le_bytes());
    buf.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (name, payload) in SECTION_NAMES.iter().zip(&sections) {
        buf.extend_from_slice(*name);
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
    }
    // Seal the header itself: epoch/rank/ranks and the section table
    // are what route every later read, and the section CRCs cannot
    // vouch for them.
    buf.extend_from_slice(&crc32(&buf).to_le_bytes());
    for payload in &sections {
        buf.extend_from_slice(payload);
    }
    buf
}

/// Loads and fully validates one rank's state: bad magic and version
/// mismatches are format errors, any truncation or checksum mismatch is
/// [`IoError::Corrupt`] naming the damaged section.
pub fn load_train_state(path: &Path) -> Result<TrainState, IoError> {
    let bytes = std::fs::read(path)?;
    let mut r = Reader::new(&bytes, "checkpoint header");
    let magic = r
        .take(8)
        .map_err(|_| IoError::Format("file too short for a checkpoint magic".into()))?;
    if magic != STATE_MAGIC {
        return format_err("not a DGNNCKPT file");
    }
    let version = r.u32()?;
    if version != CHECKPOINT_VERSION {
        return format_err(format!(
            "unsupported checkpoint version {version} (supported: {CHECKPOINT_VERSION})"
        ));
    }
    let mode = CheckpointMode::from_flag(r.u32()?)?;
    let epoch = r.u64()?;
    let rank = r.u32()?;
    let ranks = r.u32()?;
    let generation = r.u64()?;
    let nsections = r.u32()? as usize;
    if nsections != SECTION_NAMES.len() {
        return format_err(format!(
            "expected {} sections, found {nsections}",
            SECTION_NAMES.len()
        ));
    }
    let mut table = Vec::with_capacity(nsections);
    for (i, expected) in SECTION_NAMES.iter().enumerate() {
        let name = r.take(8)?;
        if name != *expected {
            return format_err(format!("section {i} is not `{}`", section_name(i)));
        }
        let len = r.u64()? as usize;
        let crc = r.u32()?;
        table.push((len, crc));
    }
    let header_end = r.pos;
    let stored_header_crc = r.u32()?;
    let actual_header_crc = crc32(&bytes[..header_end]);
    if stored_header_crc != actual_header_crc {
        return corrupt_err(format!(
            "header checksum mismatch: stored {stored_header_crc:#010x}, \
             computed {actual_header_crc:#010x}"
        ));
    }
    let mut payloads = Vec::with_capacity(nsections);
    for (i, &(len, crc)) in table.iter().enumerate() {
        let payload = r
            .take(len)
            .map_err(|_| IoError::Corrupt(format!("section `{}` truncated", section_name(i))))?;
        let actual = crc32(payload);
        if actual != crc {
            return corrupt_err(format!(
                "section `{}` checksum mismatch: stored {crc:#010x}, computed {actual:#010x}",
                section_name(i)
            ));
        }
        payloads.push(payload);
    }
    r.done()?;
    Ok(TrainState {
        epoch,
        rank,
        ranks,
        generation,
        params: decode_params(payloads[0], mode)?,
        adam: decode_adam(payloads[1], mode)?,
        drpa: decode_drpa(payloads[2])?,
        outbox: decode_outbox(payloads[3])?,
        residuals: decode_residuals(payloads[4])?,
    })
}

// ---------------------------------------------------------------------
// Cluster manifests and checkpoint directories.

/// Writes the cluster `MANIFEST` into `dir`, recording the epoch, rank
/// count, and each rank file's size and CRC32. The manifest is the
/// loader's source of truth: a directory without a valid one is
/// treated as an incomplete (crashed) checkpoint.
pub fn save_cluster_manifest(dir: &Path, epoch: u64, ranks: usize) -> Result<(), IoError> {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{MANIFEST_HEADER}");
    let _ = writeln!(s, "epoch {epoch}");
    let _ = writeln!(s, "ranks {ranks}");
    for r in 0..ranks {
        let name = format!("rank-{r}.state");
        let bytes = std::fs::read(dir.join(&name))?;
        let _ = writeln!(s, "file {name} bytes {} crc {:08x}", bytes.len(), crc32(&bytes));
    }
    atomic_write(&dir.join(MANIFEST_NAME), s.as_bytes())
}

struct Manifest {
    epoch: u64,
    files: Vec<(String, usize, u32)>,
}

fn load_manifest(dir: &Path) -> Result<Manifest, IoError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME))?;
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return format_err("not a distgnn checkpoint manifest");
    }
    let field = |line: Option<&str>, key: &str| -> Result<u64, IoError> {
        line.and_then(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().parse().ok())
            .ok_or_else(|| IoError::Format(format!("manifest missing `{}` line", key.trim())))
    };
    let epoch = field(lines.next(), "epoch ")?;
    let ranks = field(lines.next(), "ranks ")? as usize;
    let mut files: Vec<(String, usize, u32)> = Vec::with_capacity(ranks);
    let mut seen = vec![false; ranks];
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let parts: Vec<&str> = line.split_whitespace().collect();
        match parts.as_slice() {
            ["file", name, "bytes", len, "crc", crc] => {
                // Each entry must be `rank-<r>.state` for a unique r in
                // 0..ranks; anything else (a foreign file, a duplicate,
                // an out-of-range rank) makes the manifest untrustworthy
                // as a loader's source of truth.
                let rank: usize = name
                    .strip_prefix("rank-")
                    .and_then(|s| s.strip_suffix(".state"))
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        IoError::Format(format!("manifest entry `{name}` is not a rank file"))
                    })?;
                if rank >= ranks {
                    return format_err(format!(
                        "manifest entry `{name}`: rank {rank} out of range for {ranks} ranks"
                    ));
                }
                if std::mem::replace(&mut seen[rank], true) {
                    return format_err(format!("manifest lists rank {rank} twice"));
                }
                files.push((
                    name.to_string(),
                    len.parse()
                        .map_err(|_| IoError::Format(format!("bad manifest size `{len}`")))?,
                    u32::from_str_radix(crc, 16)
                        .map_err(|_| IoError::Format(format!("bad manifest crc `{crc}`")))?,
                ));
            }
            _ => return format_err(format!("bad manifest line `{line}`")),
        }
    }
    if files.len() != ranks {
        return format_err(format!(
            "manifest promises {ranks} rank files, lists {}",
            files.len()
        ));
    }
    // Uniqueness + range established above, so sorting by parsed rank id
    // puts entries in exact rank order whatever order they were listed.
    files.sort_by_key(|(name, _, _)| {
        name["rank-".len()..name.len() - ".state".len()]
            .parse::<usize>()
            .expect("validated above")
    });
    Ok(Manifest { epoch, files })
}

/// Loads a complete cluster checkpoint directory: validates the
/// manifest, every rank file's size and CRC, and cross-file consistency
/// (same epoch and generation, ranks numbered `0..k`). Returns the
/// states in rank order.
pub fn load_cluster_state(dir: &Path) -> Result<Vec<TrainState>, IoError> {
    let manifest = load_manifest(dir)?;
    let mut states: Vec<TrainState> = Vec::with_capacity(manifest.files.len());
    for (i, (name, len, crc)) in manifest.files.iter().enumerate() {
        let path = dir.join(name);
        let bytes = std::fs::read(&path)?;
        if bytes.len() != *len {
            return corrupt_err(format!(
                "{name}: manifest promises {len} bytes, file has {}",
                bytes.len()
            ));
        }
        let actual = crc32(&bytes);
        if actual != *crc {
            return corrupt_err(format!(
                "{name}: manifest crc {crc:08x}, file hashes to {actual:08x}"
            ));
        }
        let state = load_train_state(&path)?;
        if state.epoch != manifest.epoch {
            return format_err(format!(
                "{name} is from epoch {}, manifest says {}",
                state.epoch, manifest.epoch
            ));
        }
        if state.rank as usize != i || state.ranks as usize != manifest.files.len() {
            return format_err(format!(
                "{name} claims rank {}/{}, expected {i}/{}",
                state.rank,
                state.ranks,
                manifest.files.len()
            ));
        }
        if let Some(first) = states.first() {
            if state.generation != first.generation {
                return format_err(format!(
                    "{name} is from membership generation {}, rank 0 from {}",
                    state.generation, first.generation
                ));
            }
        }
        states.push(state);
    }
    Ok(states)
}

/// Committed checkpoint directories under `root` (`ckpt-<epoch>/` with
/// a `MANIFEST`), ascending by epoch. Incomplete or foreign directories
/// are skipped; a missing `root` is just an empty list.
pub fn list_checkpoints(root: &Path) -> Vec<(u64, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(root) else {
        return Vec::new();
    };
    let mut out: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            let epoch: u64 = name.strip_prefix("ckpt-")?.parse().ok()?;
            let path = e.path();
            path.join(MANIFEST_NAME).exists().then_some((epoch, path))
        })
        .collect();
    out.sort();
    out
}

/// The newest committed checkpoint under `root`, if any.
pub fn latest_checkpoint(root: &Path) -> Option<(u64, PathBuf)> {
    list_checkpoints(root).pop()
}

// ---------------------------------------------------------------------
// Flat parameter dumps (the pre-recovery checkpoint format).

/// Saves a flat parameter buffer (one row, `params.len()` cols).
pub fn save_params(path: &Path, params: &[f32]) -> Result<(), IoError> {
    save_matrix(path, &Matrix::from_vec(1, params.len(), params.to_vec()))
}

/// Loads a flat parameter buffer written by [`save_params`].
pub fn load_params(path: &Path) -> Result<Vec<f32>, IoError> {
    let m = load_matrix(path)?;
    if m.rows() != 1 {
        return format_err(format!("parameter dump should be one row, has {}", m.rows()));
    }
    Ok(m.as_slice().to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temp_path;

    fn sample_state(rank: u32) -> TrainState {
        TrainState {
            epoch: 6,
            rank,
            ranks: 2,
            generation: 4,
            params: vec![0.5, -1.25, f32::MIN_POSITIVE, 3.0e7],
            adam: AdamState {
                t: 6,
                slots: vec![None, Some((vec![0.1, 0.2], vec![0.3, 0.4])), None],
            },
            drpa: DrpaState {
                root: vec![vec![RouteCacheState {
                    data: vec![1.0, 2.0, 3.0, 4.0],
                    valid: vec![true, false],
                    bin_refresh: vec![Some(5), None, Some(0)],
                }]],
                leaf: vec![vec![RouteCacheState::default()]],
                codec_sent: vec![vec![vec![vec![0.5, -2.0], vec![]]]],
                codec_recv: vec![vec![vec![vec![1.0], vec![7.5, 0.0, -0.25]]]],
            },
            outbox: vec![PendingWire {
                dst: 1,
                tag: 0x1234,
                remaining_delay: 2,
                generation: 4,
                payload: vec![9.0, -9.0],
            }],
            residuals: vec![vec![0.125, -4.5e-3], vec![], vec![1.0e9]],
        }
    }

    #[test]
    fn train_state_round_trips_bit_exactly() {
        let state = sample_state(0);
        let p = temp_path("state");
        save_train_state(&p, &state).unwrap();
        assert_eq!(load_train_state(&p).unwrap(), state);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn empty_state_round_trips() {
        let state = TrainState { epoch: 0, rank: 0, ranks: 1, ..TrainState::default() };
        let p = temp_path("state-empty");
        save_train_state(&p, &state).unwrap();
        assert_eq!(load_train_state(&p).unwrap(), state);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn lossy_mode_bounds_weight_error_and_shrinks_the_file() {
        let state = sample_state(0);
        let p_exact = temp_path("state-exact");
        let p_lossy = temp_path("state-lossy");
        save_train_state(&p_exact, &state).unwrap();
        save_train_state_mode(&p_lossy, &state, CheckpointMode::LossyBf16).unwrap();
        let exact_len = std::fs::metadata(&p_exact).unwrap().len();
        let lossy_len = std::fs::metadata(&p_lossy).unwrap().len();
        assert!(lossy_len < exact_len, "bf16 mode must shrink: {lossy_len} vs {exact_len}");
        let loaded = load_train_state(&p_lossy).unwrap();
        // Weights round through bf16: bounded relative error, not exact.
        assert_eq!(loaded.params.len(), state.params.len());
        for (a, b) in loaded.params.iter().zip(&state.params) {
            assert!((a - b).abs() <= b.abs() * (1.0 / 256.0) + f32::MIN_POSITIVE);
        }
        // Structural sections stay bit-exact even in lossy mode.
        assert_eq!(loaded.drpa, state.drpa);
        assert_eq!(loaded.outbox, state.outbox);
        assert_eq!(loaded.residuals, state.residuals);
        assert_eq!(loaded.adam.t, state.adam.t);
        std::fs::remove_file(&p_exact).ok();
        std::fs::remove_file(&p_lossy).ok();
    }

    #[test]
    fn rejects_unknown_mode_flag() {
        let p = temp_path("state-mode");
        save_train_state(&p, &sample_state(0)).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[12] = 7; // low byte of the little-endian mode flag
        std::fs::write(&p, &bytes).unwrap();
        match load_train_state(&p) {
            Err(IoError::Format(m)) => assert!(m.contains("mode"), "got `{m}`"),
            other => panic!("expected a mode Format error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_version_mismatch() {
        let p = temp_path("state-version");
        save_train_state(&p, &sample_state(0)).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[8] = 99; // low byte of the little-endian version field
        std::fs::write(&p, &bytes).unwrap();
        match load_train_state(&p) {
            Err(IoError::Format(m)) => assert!(m.contains("version"), "got `{m}`"),
            other => panic!("expected a version Format error, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_bit_flips_naming_the_section() {
        let p = temp_path("state-flip");
        save_train_state(&p, &sample_state(0)).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        let idx = bytes.len() - 5; // inside the residual payload
        bytes[idx] ^= 0x80;
        std::fs::write(&p, &bytes).unwrap();
        match load_train_state(&p) {
            Err(IoError::Corrupt(m)) => assert!(m.contains("residual"), "got `{m}`"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn rejects_truncation() {
        let p = temp_path("state-trunc");
        save_train_state(&p, &sample_state(0)).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        for keep in [bytes.len() - 3, bytes.len() / 2, 20] {
            std::fs::write(&p, &bytes[..keep]).unwrap();
            assert!(
                matches!(load_train_state(&p), Err(IoError::Corrupt(_))),
                "prefix of {keep} bytes must be Corrupt"
            );
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn cluster_checkpoint_round_trips_through_manifest() {
        let dir = temp_path("ckpt-dir");
        std::fs::create_dir_all(&dir).unwrap();
        let states = [sample_state(0), sample_state(1)];
        for s in &states {
            save_train_state(&dir.join(format!("rank-{}.state", s.rank)), s).unwrap();
        }
        save_cluster_manifest(&dir, 6, 2).unwrap();
        let loaded = load_cluster_state(&dir).unwrap();
        assert_eq!(loaded.as_slice(), states.as_slice());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_catches_rank_file_corruption() {
        let dir = temp_path("ckpt-dir-bad");
        std::fs::create_dir_all(&dir).unwrap();
        for r in 0..2u32 {
            save_train_state(&dir.join(format!("rank-{r}.state")), &sample_state(r)).unwrap();
        }
        save_cluster_manifest(&dir, 6, 2).unwrap();
        // Corrupt rank 1 after the manifest was taken.
        let p = dir.join("rank-1.state");
        let mut bytes = std::fs::read(&p).unwrap();
        let idx = bytes.len() - 9;
        bytes[idx] ^= 0x01;
        std::fs::write(&p, &bytes).unwrap();
        assert!(matches!(load_cluster_state(&dir), Err(IoError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes states + a hand-crafted manifest listing `entries`
    /// (file-name strings; sizes and CRCs are taken from the real files
    /// when they exist, zeros otherwise).
    fn write_manifest_lines(dir: &std::path::Path, ranks: usize, entries: &[&str]) {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "{MANIFEST_HEADER}");
        let _ = writeln!(s, "epoch 6");
        let _ = writeln!(s, "ranks {ranks}");
        for name in entries {
            let (len, crc) = match std::fs::read(dir.join(name)) {
                Ok(bytes) => (bytes.len(), crc32(&bytes)),
                Err(_) => (0, 0),
            };
            let _ = writeln!(s, "file {name} bytes {len} crc {crc:08x}");
        }
        std::fs::write(dir.join(MANIFEST_NAME), s).unwrap();
    }

    #[test]
    fn manifest_rejects_duplicate_rank_entries() {
        let dir = temp_path("ckpt-dup");
        std::fs::create_dir_all(&dir).unwrap();
        save_train_state(&dir.join("rank-0.state"), &sample_state(0)).unwrap();
        write_manifest_lines(&dir, 2, &["rank-0.state", "rank-0.state"]);
        match load_cluster_state(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("twice"), "got `{m}`"),
            other => panic!("expected a duplicate-rank Format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_rejects_out_of_range_ranks_and_foreign_names() {
        let dir = temp_path("ckpt-range");
        std::fs::create_dir_all(&dir).unwrap();
        write_manifest_lines(&dir, 2, &["rank-0.state", "rank-5.state"]);
        match load_cluster_state(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("out of range"), "got `{m}`"),
            other => panic!("expected an out-of-range Format error, got {other:?}"),
        }
        write_manifest_lines(&dir, 2, &["rank-0.state", "weights.bin"]);
        match load_cluster_state(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("not a rank file"), "got `{m}`"),
            other => panic!("expected a foreign-name Format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_entries_load_in_rank_order_even_when_listed_backwards() {
        let dir = temp_path("ckpt-reorder");
        std::fs::create_dir_all(&dir).unwrap();
        for r in 0..2u32 {
            save_train_state(&dir.join(format!("rank-{r}.state")), &sample_state(r)).unwrap();
        }
        write_manifest_lines(&dir, 2, &["rank-1.state", "rank-0.state"]);
        let states = load_cluster_state(&dir).unwrap();
        assert_eq!(states.len(), 2);
        assert_eq!(states[0].rank, 0);
        assert_eq!(states[1].rank, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_checkpoint_dir_is_an_io_error_not_a_panic() {
        let dir = temp_path("ckpt-empty");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(load_cluster_state(&dir), Err(IoError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_rank_file_set_fails_to_load() {
        let dir = temp_path("ckpt-partial");
        std::fs::create_dir_all(&dir).unwrap();
        for r in 0..2u32 {
            save_train_state(&dir.join(format!("rank-{r}.state")), &sample_state(r)).unwrap();
        }
        save_cluster_manifest(&dir, 6, 2).unwrap();
        std::fs::remove_file(dir.join("rank-1.state")).unwrap();
        assert!(matches!(load_cluster_state(&dir), Err(IoError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mixed_generation_rank_files_are_rejected() {
        let dir = temp_path("ckpt-gen-mix");
        std::fs::create_dir_all(&dir).unwrap();
        save_train_state(&dir.join("rank-0.state"), &sample_state(0)).unwrap();
        let stale = TrainState { generation: 3, ..sample_state(1) };
        save_train_state(&dir.join("rank-1.state"), &stale).unwrap();
        save_cluster_manifest(&dir, 6, 2).unwrap();
        match load_cluster_state(&dir) {
            Err(IoError::Format(m)) => assert!(m.contains("generation"), "got `{m}`"),
            other => panic!("expected a generation Format error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn listing_orders_by_epoch_and_skips_uncommitted() {
        let root = temp_path("ckpt-root");
        for epoch in [9u64, 3, 6] {
            let dir = root.join(format!("ckpt-{epoch}"));
            std::fs::create_dir_all(&dir).unwrap();
            save_train_state(
                &dir.join("rank-0.state"),
                &TrainState { epoch, rank: 0, ranks: 1, ..TrainState::default() },
            )
            .unwrap();
            save_cluster_manifest(&dir, epoch, 1).unwrap();
        }
        // An uncommitted (tmp) directory and junk are ignored.
        std::fs::create_dir_all(root.join("ckpt-12.tmp")).unwrap();
        std::fs::create_dir_all(root.join("scratch")).unwrap();
        let epochs: Vec<u64> = list_checkpoints(&root).into_iter().map(|(e, _)| e).collect();
        assert_eq!(epochs, vec![3, 6, 9]);
        assert_eq!(latest_checkpoint(&root).unwrap().0, 9);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_root_lists_empty() {
        assert!(list_checkpoints(&temp_path("ckpt-nowhere")).is_empty());
        assert!(latest_checkpoint(&temp_path("ckpt-nowhere2")).is_none());
    }

    #[test]
    fn flat_params_round_trip_through_a_model() {
        use distgnn_core::{GraphSage, SageConfig};
        let cfg = SageConfig::standard_shape(10, 4, 8, 3);
        let a = GraphSage::new(&cfg);
        let path = temp_path("ckpt-flat");
        save_params(&path, &a.write_params()).unwrap();
        let mut b = GraphSage::new(&SageConfig { seed: 99, ..cfg });
        assert_ne!(a.write_params(), b.write_params());
        let loaded = load_params(&path).unwrap();
        b.read_params(&loaded);
        assert_eq!(a.write_params(), b.write_params());
        std::fs::remove_file(&path).ok();
    }
}
