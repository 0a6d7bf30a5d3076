//! Workload replay: capture [`Op`] streams into versioned `.baops` files
//! and replay them byte-identically across schemes, modes, and versions.
//!
//! Every cross-scheme or cross-version comparison in this workspace is
//! only as trustworthy as its ability to feed two configurations the
//! *exact same* operation sequence. Generators are already deterministic
//! under a fixed seed, but determinism is a property of the current code:
//! any future change to a generator, the Zipf sampler, or the RNG tree
//! silently changes what "seed 2014" means. A capture file freezes the
//! stream itself, so experiments become reproducible artifacts:
//!
//! * [`ReplayFile::capture`] pulls a scenario's ops once and wraps them
//!   with a header (format version, scenario name, master seed, keyspace,
//!   op count) and a trailing checksum;
//! * [`ReplayFile::encode`] / [`ReplayFile::decode`] are the `.baops`
//!   codec — ops are delta/varint encoded, so million-op captures stay
//!   small, and every way a file can be malformed maps to a typed
//!   [`ReplayError`], never a panic;
//! * [`ReplayWorkload`] implements [`Workload`], so a decoded capture
//!   drops into [`drive`] or an engine unchanged;
//! * [`differential_replay`] applies one capture across `{schemes} ×
//!   {ChoiceMode} × {WorkerMode}` and diffs the final engine shard states
//!   and [`EngineStats`](ba_engine::EngineStats) — worker modes must agree
//!   bit-for-bit, and the report renders the per-cell outcomes side by
//!   side.
//!
//! # File format (version 1)
//!
//! ```text
//! magic   b"BAOPS"                          5 bytes
//! version u16 LE                            2 bytes
//! name    u16 LE length + UTF-8 bytes       variable
//! seed    u64 LE (master seed)              8 bytes
//! keyspace u64 LE                           8 bytes
//! ops     u64 LE (op count)                 8 bytes
//! body    one varint per op                 variable
//! check   u64 LE FNV-1a over all prior      8 bytes
//! ```
//!
//! Each op is one LEB128 varint of `(zigzag(key - prev_key) << 2) | tag`
//! with tag 0 = insert, 1 = delete, 2 = lookup; `prev_key` starts at 0 and
//! deltas wrap mod 2^64. Sequential and clustered key streams (bursty,
//! churn warm-up) encode in one or two bytes per op.
//!
//! # Example
//!
//! ```
//! use ba_engine::EngineConfig;
//! use ba_workload::{ReplayFile, Scenario, drive};
//! use ba_engine::Engine;
//!
//! let capture = ReplayFile::capture(&Scenario::Uniform, 1 << 12, 7, 4_096);
//! let bytes = capture.encode();
//! let reopened = ReplayFile::decode(&bytes).expect("fresh capture decodes");
//! let mut engine = Engine::by_name("double", EngineConfig::new(4, 1 << 10, 3).seed(7)).unwrap();
//! let mut workload = reopened.workload();
//! let report = drive(&mut engine, &mut workload, 4_096, 512);
//! assert_eq!(report.summary.inserts, 4_096);
//! ```

use crate::{drive, DriveReport, Scenario, Workload};
use ba_engine::{ChoiceMode, Engine, EngineConfig, Op, WorkerMode};
use ba_hash::AnyScheme;
use ba_stats::Table;
use std::fmt;
use std::path::Path;

/// The `.baops` format version this build reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Magic bytes opening every `.baops` file.
const MAGIC: &[u8; 5] = b"BAOPS";

/// Bytes of trailing checksum.
const CHECKSUM_LEN: usize = 8;

/// Fixed header bytes before the scenario name: magic + version.
const PREFIX_LEN: usize = MAGIC.len() + 2;

/// A varint for `(zigzag << 2) | tag` spans at most 66 significant bits,
/// i.e. 10 LEB128 bytes; an 11th continuation byte is malformed.
const MAX_VARINT_BYTES: usize = 10;

/// Master seed pinning the checked-in golden capture corpus.
pub const GOLDEN_SEED: u64 = 2014;

/// Keyspace (population for churn/adversarial) of the golden corpus.
pub const GOLDEN_KEYSPACE: u64 = 1024;

/// Op count of each golden capture.
pub const GOLDEN_OPS: u64 = 2048;

/// Everything that can be wrong with a `.baops` file.
///
/// Decoding never panics: truncated, bit-flipped, hand-edited, or
/// future-versioned files all land on one of these variants.
#[derive(Debug)]
pub enum ReplayError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the `BAOPS` magic.
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u16),
    /// The file ends mid-field.
    Truncated,
    /// The scenario name is not valid UTF-8.
    BadScenarioName,
    /// An op carries a tag outside `{insert, delete, lookup}`.
    BadOpTag(u8),
    /// A varint ran past its maximum width.
    OverlongVarint,
    /// A decoded key delta does not fit in 64 bits.
    KeyOutOfRange,
    /// The trailing checksum does not match the file contents.
    ChecksumMismatch {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed over the file's bytes.
        computed: u64,
    },
    /// Bytes remain after the declared op count was decoded.
    TrailingBytes(usize),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Io(e) => write!(f, "i/o error: {e}"),
            ReplayError::BadMagic => write!(f, "not a .baops file (bad magic)"),
            ReplayError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported .baops version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            ReplayError::Truncated => write!(f, "file truncated mid-field"),
            ReplayError::BadScenarioName => write!(f, "scenario name is not valid UTF-8"),
            ReplayError::BadOpTag(t) => write!(f, "unknown op tag {t}"),
            ReplayError::OverlongVarint => write!(f, "overlong varint"),
            ReplayError::KeyOutOfRange => write!(f, "decoded key delta exceeds 64 bits"),
            ReplayError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch: file says {stored:#018x}, contents hash to {computed:#018x}"
            ),
            ReplayError::TrailingBytes(n) => {
                write!(f, "{n} unexpected trailing byte(s) after the final op")
            }
        }
    }
}

impl std::error::Error for ReplayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplayError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplayError {
    fn from(e: std::io::Error) -> Self {
        ReplayError::Io(e)
    }
}

/// FNV-1a 64-bit hash — the file checksum. Multiplication by the odd FNV
/// prime is a bijection mod 2^64, so any single-byte change to the covered
/// region changes the digest.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[inline]
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn push_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn op_tag(op: Op) -> u8 {
    match op {
        Op::Insert(_) => 0,
        Op::Delete(_) => 1,
        Op::Lookup(_) => 2,
    }
}

fn op_from(tag: u8, key: u64) -> Result<Op, ReplayError> {
    Ok(match tag {
        0 => Op::Insert(key),
        1 => Op::Delete(key),
        2 => Op::Lookup(key),
        other => return Err(ReplayError::BadOpTag(other)),
    })
}

/// A bounds-checked reader over the decoded body.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ReplayError> {
        let end = self.pos.checked_add(n).ok_or(ReplayError::Truncated)?;
        if end > self.bytes.len() {
            return Err(ReplayError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u16_le(&mut self) -> Result<u16, ReplayError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u64_le(&mut self) -> Result<u64, ReplayError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes taken")))
    }

    fn varint(&mut self) -> Result<u128, ReplayError> {
        let mut value = 0u128;
        for i in 0..MAX_VARINT_BYTES {
            let byte = self.take(1)?[0];
            value |= ((byte & 0x7F) as u128) << (7 * i);
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(ReplayError::OverlongVarint)
    }
}

/// The metadata block of a `.baops` capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayHeader {
    /// Format version the file was written with.
    pub version: u16,
    /// Scenario name the stream was captured from (e.g. `"zipf"`).
    pub scenario: String,
    /// Master seed the generator was built with.
    pub seed: u64,
    /// Keyspace (population target for churn/adversarial traffic).
    pub keyspace: u64,
    /// Number of operations in the capture.
    pub op_count: u64,
}

impl ReplayHeader {
    /// The [`Scenario`] (at default parameters) this capture's name maps
    /// to, if it names one of the built-in scenarios.
    pub fn matching_scenario(&self) -> Option<Scenario> {
        Scenario::by_name(&self.scenario)
    }
}

/// A decoded (or freshly captured) `.baops` file: header plus op stream.
///
/// The header records where the stream *came from*; the ops themselves are
/// the artifact. Scenario parameters (e.g. a non-default Zipf `theta`) are
/// not stored — they are already baked into the captured ops.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayFile {
    header: ReplayHeader,
    ops: Vec<Op>,
}

impl ReplayFile {
    /// Wraps an explicit op stream in a capture.
    ///
    /// # Panics
    ///
    /// Panics if `scenario` exceeds `u16::MAX` bytes.
    pub fn from_ops(scenario: &str, seed: u64, keyspace: u64, ops: Vec<Op>) -> Self {
        assert!(
            scenario.len() <= u16::MAX as usize,
            "scenario name too long to serialize"
        );
        Self {
            header: ReplayHeader {
                version: FORMAT_VERSION,
                scenario: scenario.to_string(),
                seed,
                keyspace,
                op_count: ops.len() as u64,
            },
            ops,
        }
    }

    /// Captures `total_ops` operations from a scenario's generator.
    ///
    /// The resulting file replays the exact stream
    /// `scenario.build(keyspace, seed)` would produce today, even after
    /// the generator's implementation changes.
    pub fn capture(scenario: &Scenario, keyspace: u64, seed: u64, total_ops: u64) -> Self {
        let mut workload = scenario.build(keyspace, seed);
        let mut ops = Vec::with_capacity(total_ops as usize);
        for _ in 0..total_ops {
            ops.push(workload.next_op());
        }
        Self::from_ops(scenario.name(), seed, keyspace, ops)
    }

    /// The capture's header.
    pub fn header(&self) -> &ReplayHeader {
        &self.header
    }

    /// The captured operations, in arrival order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Serializes to `.baops` bytes (delta/varint body, trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let name = self.header.scenario.as_bytes();
        let mut out = Vec::with_capacity(PREFIX_LEN + 26 + name.len() + 2 * self.ops.len());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        out.extend_from_slice(&self.header.seed.to_le_bytes());
        out.extend_from_slice(&self.header.keyspace.to_le_bytes());
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        let mut prev = 0u64;
        for &op in &self.ops {
            let delta = op.key().wrapping_sub(prev) as i64;
            prev = op.key();
            let word = ((zigzag(delta) as u128) << 2) | op_tag(op) as u128;
            push_varint(&mut out, word);
        }
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses `.baops` bytes.
    ///
    /// # Errors
    ///
    /// Returns the specific [`ReplayError`] for any malformed input —
    /// wrong magic or version, truncation, checksum mismatch, bad op
    /// encoding, or trailing garbage. Never panics.
    pub fn decode(bytes: &[u8]) -> Result<Self, ReplayError> {
        if bytes.len() < PREFIX_LEN {
            return Err(ReplayError::Truncated);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(ReplayError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[5], bytes[6]]);
        if version != FORMAT_VERSION {
            return Err(ReplayError::UnsupportedVersion(version));
        }
        if bytes.len() < PREFIX_LEN + CHECKSUM_LEN {
            return Err(ReplayError::Truncated);
        }
        let body = &bytes[..bytes.len() - CHECKSUM_LEN];
        let stored = u64::from_le_bytes(
            bytes[bytes.len() - CHECKSUM_LEN..]
                .try_into()
                .expect("checksum slice is 8 bytes"),
        );
        let computed = fnv1a64(body);
        if stored != computed {
            return Err(ReplayError::ChecksumMismatch { stored, computed });
        }
        let mut cur = Cursor {
            bytes: body,
            pos: PREFIX_LEN,
        };
        let name_len = cur.u16_le()? as usize;
        let scenario = std::str::from_utf8(cur.take(name_len)?)
            .map_err(|_| ReplayError::BadScenarioName)?
            .to_string();
        let seed = cur.u64_le()?;
        let keyspace = cur.u64_le()?;
        let op_count = cur.u64_le()?;
        // Each op is at least one byte; a count beyond the remaining bytes
        // is truncation (and guards the allocation below).
        let remaining = body.len() - cur.pos;
        if op_count > remaining as u64 {
            return Err(ReplayError::Truncated);
        }
        let mut ops = Vec::with_capacity(op_count as usize);
        let mut prev = 0u64;
        for _ in 0..op_count {
            let word = cur.varint()?;
            let tag = (word & 0b11) as u8;
            let zig = word >> 2;
            if zig > u64::MAX as u128 {
                return Err(ReplayError::KeyOutOfRange);
            }
            let key = prev.wrapping_add(unzigzag(zig as u64) as u64);
            prev = key;
            ops.push(op_from(tag, key)?);
        }
        if cur.pos != body.len() {
            return Err(ReplayError::TrailingBytes(body.len() - cur.pos));
        }
        Ok(Self {
            header: ReplayHeader {
                version,
                scenario,
                seed,
                keyspace,
                op_count,
            },
            ops,
        })
    }

    /// Writes the encoded capture to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Io`] if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ReplayError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes a capture from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`ReplayError::Io`] if the file cannot be read, or the
    /// decoding error for malformed contents.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, ReplayError> {
        Self::decode(&std::fs::read(path)?)
    }

    /// A [`Workload`] over a copy of the captured ops, ready for
    /// [`drive`] or [`Engine::serve_replay`].
    pub fn workload(&self) -> ReplayWorkload {
        ReplayWorkload::new(&self.header.scenario, self.ops.clone())
    }

    /// Consumes the capture into a [`Workload`], avoiding the op copy.
    pub fn into_workload(self) -> ReplayWorkload {
        ReplayWorkload::new(&self.header.scenario, self.ops)
    }
}

/// A [`Workload`] that replays a captured op stream verbatim.
///
/// Dropping a `ReplayWorkload` into [`drive`] makes any
/// existing scenario/scheme comparison run over a frozen stream instead of
/// a live generator — the rest of the pipeline cannot tell the difference.
#[derive(Debug, Clone)]
pub struct ReplayWorkload {
    name: &'static str,
    ops: Vec<Op>,
    pos: usize,
}

impl ReplayWorkload {
    fn new(scenario: &str, ops: Vec<Op>) -> Self {
        // The Workload trait hands out 'static names; map the stored name
        // back to its scenario's static name, or the generic "replay".
        let name = Scenario::by_name(scenario).map_or("replay", |s| s.name());
        Self { name, ops, pos: 0 }
    }

    /// Operations not yet replayed.
    pub fn remaining(&self) -> u64 {
        (self.ops.len() - self.pos) as u64
    }
}

impl Workload for ReplayWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    /// Produces the next captured operation.
    ///
    /// # Panics
    ///
    /// Panics if the capture is exhausted — drive a replay for at most
    /// [`ReplayHeader::op_count`] (or [`ReplayWorkload::remaining`]) ops.
    fn next_op(&mut self) -> Op {
        let op = *self
            .ops
            .get(self.pos)
            .unwrap_or_else(|| panic!("replay capture exhausted after {} ops", self.pos));
        self.pos += 1;
        op
    }
}

/// The golden-corpus capture for a scenario: the pinned
/// `(GOLDEN_KEYSPACE, GOLDEN_SEED, GOLDEN_OPS)` stream that
/// `tests/golden/<scenario>.baops` must equal byte-for-byte.
pub fn golden_capture(scenario: &Scenario) -> ReplayFile {
    ReplayFile::capture(scenario, GOLDEN_KEYSPACE, GOLDEN_SEED, GOLDEN_OPS)
}

/// Replays a capture through a fresh engine for the named scheme.
///
/// Returns the drive report plus every shard's final bin loads (the
/// bit-level state the differential runner diffs). `None` for an unknown
/// scheme name.
pub fn run_replay(
    scheme: &str,
    file: &ReplayFile,
    config: EngineConfig,
    batch_size: usize,
) -> Option<(DriveReport, Vec<Vec<u32>>)> {
    let mut engine: Engine<AnyScheme> = Engine::by_name(scheme, config)?;
    let mut workload = file.workload();
    let report = drive(
        &mut engine,
        &mut workload,
        file.header().op_count,
        batch_size,
    );
    let loads = engine
        .shards()
        .iter()
        .map(|s| s.allocation().loads().to_vec())
        .collect();
    Some((report, loads))
}

/// One cell of a differential replay: a capture served by one
/// `(scheme, choice mode, worker mode)` configuration.
#[derive(Debug, Clone)]
pub struct ReplayRun {
    /// Scheme name the engine was built with.
    pub scheme: String,
    /// Choice mode the engine served under.
    pub mode: ChoiceMode,
    /// Worker mode the engine served under.
    pub workers: WorkerMode,
    /// The drive's report (summary, stats, timing).
    pub report: DriveReport,
    /// Final per-shard bin loads, indexed by shard id.
    pub shard_loads: Vec<Vec<u32>>,
}

impl ReplayRun {
    /// A 64-bit fingerprint of the final shard states: equal states hash
    /// equal, so two runs can be diffed at a glance in rendered tables.
    pub fn state_fingerprint(&self) -> u64 {
        let mut bytes = Vec::new();
        for loads in &self.shard_loads {
            bytes.extend_from_slice(&(loads.len() as u64).to_le_bytes());
            for &load in loads {
                bytes.extend_from_slice(&load.to_le_bytes());
            }
        }
        fnv1a64(&bytes)
    }
}

/// What [`differential_replay`] produced: every run plus the divergence
/// log (empty when every worker mode agreed within each scheme × mode).
#[derive(Debug, Clone)]
pub struct DifferentialOutcome {
    /// Scenario name from the capture's header.
    pub scenario: String,
    /// Every `(scheme, mode, workers)` run, in execution order.
    pub runs: Vec<ReplayRun>,
    /// Human-readable mismatches between worker modes that must agree.
    pub divergences: Vec<String>,
}

impl DifferentialOutcome {
    /// Whether every worker mode produced bit-identical shard states and
    /// stats within each scheme × choice-mode group.
    pub fn is_consistent(&self) -> bool {
        self.divergences.is_empty()
    }

    /// Renders the per-cell table plus the divergence log.
    pub fn render(&self) -> String {
        let mut table = Table::new(&[
            "scheme",
            "mode",
            "workers",
            "balls",
            "max load",
            "state fingerprint",
        ]);
        for run in &self.runs {
            table.row_owned(vec![
                run.scheme.clone(),
                mode_tag(run.mode).to_string(),
                worker_tag(run.workers).to_string(),
                run.report.stats.total_balls().to_string(),
                run.report.stats.max_load().to_string(),
                format!("{:016x}", run.state_fingerprint()),
            ]);
        }
        let mut out = format!("differential replay of `{}` capture\n", self.scenario);
        out.push_str(&table.render());
        if self.divergences.is_empty() {
            out.push_str("worker modes agree bit-for-bit within every scheme x mode\n");
        } else {
            for d in &self.divergences {
                out.push_str(&format!("DIVERGENCE: {d}\n"));
            }
        }
        out
    }
}

fn mode_tag(mode: ChoiceMode) -> &'static str {
    match mode {
        ChoiceMode::Stream => "stream",
        ChoiceMode::Keyed => "keyed",
    }
}

fn worker_tag(workers: WorkerMode) -> &'static str {
    match workers {
        WorkerMode::Sequential => "sequential",
        WorkerMode::Persistent => "persistent",
    }
}

/// Applies one capture across `{schemes} × {ChoiceMode} × {WorkerMode}`
/// and diffs the final engine shard states and stats.
///
/// Different schemes and choice modes legitimately place balls
/// differently; what must *not* differ is the outcome across worker modes
/// for a fixed scheme and mode. Each group's persistent run is therefore
/// diffed against its sequential run — bin loads, batch
/// summaries, and full [`EngineStats`](ba_engine::EngineStats) snapshots —
/// and every mismatch lands in
/// [`DifferentialOutcome::divergences`].
///
/// `base` supplies shards, bins, `d`, tie-break, seed, and RNG kind; its
/// choice and worker modes are overridden per cell. (Schemes with a fixed
/// choice count, like `"one"`, ignore the requested `d`.) Returns `None`
/// for an unknown scheme name.
pub fn differential_replay(
    file: &ReplayFile,
    schemes: &[&str],
    base: EngineConfig,
    batch_size: usize,
) -> Option<DifferentialOutcome> {
    let mut runs = Vec::new();
    let mut divergences = Vec::new();
    for &scheme in schemes {
        for mode in [ChoiceMode::Stream, ChoiceMode::Keyed] {
            let mut group: Vec<ReplayRun> = Vec::with_capacity(2);
            for workers in [WorkerMode::Sequential, WorkerMode::Persistent] {
                let config = base.clone().mode(mode).workers(workers);
                let (report, shard_loads) = run_replay(scheme, file, config, batch_size)?;
                group.push(ReplayRun {
                    scheme: scheme.to_string(),
                    mode,
                    workers,
                    report,
                    shard_loads,
                });
            }
            let baseline = &group[0];
            for other in &group[1..] {
                let tag = format!(
                    "{scheme}/{}: {} vs {}",
                    mode_tag(mode),
                    worker_tag(other.workers),
                    worker_tag(baseline.workers)
                );
                if other.shard_loads != baseline.shard_loads {
                    divergences.push(format!("{tag}: final shard bin loads differ"));
                }
                if other.report.summary != baseline.report.summary {
                    divergences.push(format!(
                        "{tag}: summaries differ ({:?} vs {:?})",
                        other.report.summary, baseline.report.summary
                    ));
                }
                for msg in baseline.report.stats.divergences(&other.report.stats) {
                    divergences.push(format!("{tag}: {msg}"));
                }
            }
            runs.extend(group);
        }
    }
    Some(DifferentialOutcome {
        scenario: file.header().scenario.clone(),
        runs,
        divergences,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<Op> {
        vec![
            Op::Insert(0),
            Op::Insert(u64::MAX),
            Op::Delete(u64::MAX),
            Op::Lookup(5),
            Op::Insert(6),
            Op::Insert(5),
            Op::Delete(0),
            Op::Lookup(1 << 63),
        ]
    }

    #[test]
    fn round_trip_is_identity() {
        let file = ReplayFile::from_ops("uniform", 7, 1 << 20, sample_ops());
        let decoded = ReplayFile::decode(&file.encode()).unwrap();
        assert_eq!(decoded, file);
        assert_eq!(decoded.header().op_count, 8);
        assert_eq!(decoded.header().version, FORMAT_VERSION);
    }

    #[test]
    fn empty_capture_round_trips() {
        let file = ReplayFile::from_ops("adversarial", 1, 2, Vec::new());
        let decoded = ReplayFile::decode(&file.encode()).unwrap();
        assert_eq!(decoded, file);
        assert_eq!(decoded.ops(), &[]);
    }

    #[test]
    fn sequential_keys_encode_compactly() {
        // Delta encoding: consecutive keys cost one byte each.
        let ops: Vec<Op> = (0..10_000u64).map(Op::Insert).collect();
        let file = ReplayFile::from_ops("churn", 1, 10_000, ops);
        let bytes = file.encode();
        let body = bytes.len() - PREFIX_LEN - CHECKSUM_LEN - 26 - "churn".len();
        assert!(body <= 10_000, "body {body} bytes for 10k sequential ops");
    }

    #[test]
    fn capture_freezes_the_generator_stream() {
        let scenario = Scenario::Zipf { theta: 0.9 };
        let file = ReplayFile::capture(&scenario, 512, 3, 1_000);
        let mut live = scenario.build(512, 3);
        let expected: Vec<Op> = (0..1_000).map(|_| live.next_op()).collect();
        assert_eq!(file.ops(), &expected[..]);
        assert_eq!(file.header().scenario, "zipf");
        assert_eq!(file.header().seed, 3);
        assert_eq!(file.header().keyspace, 512);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = ReplayFile::from_ops("uniform", 1, 2, sample_ops()).encode();
        bytes[0] = b'X';
        assert!(matches!(
            ReplayFile::decode(&bytes),
            Err(ReplayError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_rejected_before_checksum() {
        // A future-versioned file must report its version, not a checksum
        // mismatch — even though patching the version also stales the
        // checksum.
        let mut bytes = ReplayFile::from_ops("uniform", 1, 2, sample_ops()).encode();
        bytes[5] = 0x2A;
        bytes[6] = 0;
        assert!(matches!(
            ReplayFile::decode(&bytes),
            Err(ReplayError::UnsupportedVersion(0x2A))
        ));
    }

    #[test]
    fn every_truncation_point_rejected() {
        let bytes = ReplayFile::from_ops("bursty", 9, 64, sample_ops()).encode();
        for cut in 0..bytes.len() {
            assert!(
                ReplayFile::decode(&bytes[..cut]).is_err(),
                "decode accepted a {cut}-byte prefix of a {}-byte file",
                bytes.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_rejected() {
        let bytes = ReplayFile::from_ops("churn", 5, 128, sample_ops()).encode();
        for pos in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[pos] ^= 1 << bit;
                assert!(
                    ReplayFile::decode(&corrupt).is_err(),
                    "decode accepted a flip at byte {pos} bit {bit}"
                );
            }
        }
    }

    /// Builds a body with the standard header fields and a custom op
    /// section, then appends a *valid* checksum — for reaching the decode
    /// paths that sit behind the checksum gate.
    fn craft(op_count: u64, op_bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // empty scenario name
        out.extend_from_slice(&1u64.to_le_bytes()); // seed
        out.extend_from_slice(&2u64.to_le_bytes()); // keyspace
        out.extend_from_slice(&op_count.to_le_bytes());
        out.extend_from_slice(op_bytes);
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    #[test]
    fn bad_op_tag_rejected() {
        let mut op = Vec::new();
        push_varint(&mut op, (zigzag(4) as u128) << 2 | 3);
        assert!(matches!(
            ReplayFile::decode(&craft(1, &op)),
            Err(ReplayError::BadOpTag(3))
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // One op declared, two encoded: the second is trailing garbage.
        let mut ops = Vec::new();
        push_varint(&mut ops, (zigzag(1) as u128) << 2);
        let valid_one_op = ops.len();
        push_varint(&mut ops, (zigzag(1) as u128) << 2);
        let extra = ops.len() - valid_one_op;
        assert!(matches!(
            ReplayFile::decode(&craft(1, &ops)),
            Err(ReplayError::TrailingBytes(n)) if n == extra
        ));
    }

    #[test]
    fn overlong_varint_rejected() {
        let op = [0x80u8; MAX_VARINT_BYTES + 1];
        assert!(matches!(
            ReplayFile::decode(&craft(1, &op)),
            Err(ReplayError::OverlongVarint)
        ));
    }

    #[test]
    fn key_out_of_range_rejected() {
        // A 10-byte varint whose zigzag part needs 65 bits.
        let mut op = Vec::new();
        push_varint(&mut op, (u64::MAX as u128 + 1) << 2);
        assert!(matches!(
            ReplayFile::decode(&craft(1, &op)),
            Err(ReplayError::KeyOutOfRange)
        ));
    }

    #[test]
    fn op_count_beyond_body_is_truncation() {
        assert!(matches!(
            ReplayFile::decode(&craft(10, &[])),
            Err(ReplayError::Truncated)
        ));
    }

    #[test]
    fn bad_utf8_scenario_name_rejected() {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&1u16.to_le_bytes());
        out.push(0xFF); // invalid UTF-8
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(&2u64.to_le_bytes());
        out.extend_from_slice(&0u64.to_le_bytes());
        let checksum = fnv1a64(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            ReplayFile::decode(&out),
            Err(ReplayError::BadScenarioName)
        ));
    }

    #[test]
    fn replay_workload_resolves_scenario_names() {
        let file = ReplayFile::from_ops("zipf", 1, 2, vec![Op::Insert(1)]);
        assert_eq!(file.workload().name(), "zipf");
        let custom = ReplayFile::from_ops("my-trace", 1, 2, vec![Op::Insert(1)]);
        assert_eq!(custom.workload().name(), "replay");
    }

    #[test]
    fn replay_workload_streams_in_order() {
        let file = ReplayFile::from_ops("uniform", 1, 2, sample_ops());
        let mut w = file.workload();
        assert_eq!(w.remaining(), 8);
        let mut out = Vec::new();
        w.fill(&mut out, 8);
        assert_eq!(out, sample_ops());
        assert_eq!(w.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "replay capture exhausted")]
    fn exhausted_replay_panics_with_context() {
        let mut w = ReplayFile::from_ops("uniform", 1, 2, vec![Op::Insert(1)]).into_workload();
        w.next_op();
        w.next_op();
    }

    #[test]
    fn save_and_open_round_trip() {
        let file = ReplayFile::capture(&Scenario::Bursty, 256, 11, 500);
        let dir = std::env::temp_dir().join(format!("baops-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bursty.baops");
        file.save(&path).unwrap();
        let reopened = ReplayFile::open(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(reopened, file);
    }

    #[test]
    fn open_missing_file_is_io_error() {
        assert!(matches!(
            ReplayFile::open("/nonexistent/definitely/missing.baops"),
            Err(ReplayError::Io(_))
        ));
    }

    #[test]
    fn differential_replay_is_consistent_across_worker_modes() {
        let file = ReplayFile::capture(
            &Scenario::Churn {
                delete_fraction: 0.5,
            },
            256,
            13,
            4_000,
        );
        let outcome = differential_replay(
            &file,
            &["random", "double", "one"],
            EngineConfig::new(4, 128, 3).seed(13),
            512,
        )
        .unwrap();
        assert!(
            outcome.is_consistent(),
            "divergences: {:?}",
            outcome.divergences
        );
        // 3 schemes x 2 modes x 2 worker modes.
        assert_eq!(outcome.runs.len(), 12);
        let rendered = outcome.render();
        assert!(rendered.contains("churn"), "{rendered}");
        assert!(rendered.contains("agree bit-for-bit"), "{rendered}");
        // Within a scheme x mode, both fingerprints match.
        for group in outcome.runs.chunks(2) {
            assert_eq!(group[0].state_fingerprint(), group[1].state_fingerprint());
        }
    }

    #[test]
    fn differential_replay_rejects_unknown_scheme() {
        let file = ReplayFile::from_ops("uniform", 1, 2, vec![Op::Insert(1)]);
        assert!(differential_replay(&file, &["warp"], EngineConfig::new(2, 64, 3), 64).is_none());
    }

    #[test]
    fn golden_capture_is_pinned() {
        let a = golden_capture(&Scenario::Uniform);
        let b = golden_capture(&Scenario::Uniform);
        assert_eq!(a.encode(), b.encode());
        assert_eq!(a.header().op_count, GOLDEN_OPS);
        assert_eq!(a.header().seed, GOLDEN_SEED);
    }
}
