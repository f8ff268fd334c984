//! Durable, shardable campaigns over [`Study`] cell matrices.
//!
//! A *campaign* is a study run turned into an on-disk artifact. The cell
//! range is partitioned into contiguous shards; each shard's records are
//! written as a JSONL blob and committed with an FNV-1a digest into an
//! append-only manifest, so independent processes can each run a slice
//! (`repro <study> --shard i/n --out-dir D`), a killed run can pick up where
//! it left off (`--resume D`), and `repro merge D` recombines the blobs —
//! after digest verification — into a report byte-identical to a monolithic
//! run.
//!
//! Layout of a campaign directory:
//!
//! ```text
//! campaign.json     versioned header: study, params, cell count, shard
//!                   count, spec hash (written once, verified thereafter)
//! manifest.jsonl    one line per completed shard: index, range, digest
//!                   (appending the line is the shard's commit point)
//! shard-0000.jsonl  one compact-JSON record per cell of shard 0
//! ...
//! ```
//!
//! Compatibility is enforced through the **spec hash**: FNV-1a over the
//! format version, the binary version, the study name, every deterministic
//! parameter, and every cell label. Resuming against a changed spec, binary,
//! or cell matrix fails loudly instead of silently merging incompatible
//! results.

use std::fmt;
use std::io::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};

use giantsan_telemetry::{fnv1a, Fnv1a};

use crate::batch::BatchRunner;
use crate::json::Json;
use crate::study::{Record, Study, StudyOpts, StudyRegistry};

/// On-disk format version of `campaign.json` / `manifest.jsonl`.
pub const FORMAT_VERSION: u64 = 1;

/// A `--shard i/n` slice request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// 0-based shard index.
    pub index: usize,
    /// Total shard count.
    pub count: usize,
}

impl ShardSpec {
    /// Parses `i/n`, with actionable errors for the classic mistakes.
    pub fn parse(s: &str) -> Result<ShardSpec, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard `{s}`: expected i/n (e.g. --shard 0/4)"))?;
        let index: usize = i
            .parse()
            .map_err(|_| format!("bad shard index `{i}` in `{s}`: expected i/n with integer i"))?;
        let count: usize = n
            .parse()
            .map_err(|_| format!("bad shard count `{n}` in `{s}`: expected i/n with integer n"))?;
        if count == 0 {
            return Err(format!("bad shard `{s}`: shard count must be at least 1"));
        }
        if index >= count {
            return Err(format!(
                "bad shard `{s}`: shard indices are 0-based, so with {count} shards the valid \
                 range is 0/{count} through {}/{count}",
                count - 1
            ));
        }
        Ok(ShardSpec { index, count })
    }
}

/// The contiguous index range of shard `index` out of `count` over `cells`
/// cells: ranges cover `0..cells` exactly once, earlier shards take the
/// remainder, and the partition depends only on `(cells, count)`.
pub fn shard_range(cells: usize, index: usize, count: usize) -> Range<usize> {
    let base = cells / count;
    let extra = cells % count;
    let start = index * base + index.min(extra);
    let len = base + usize::from(index < extra);
    start..start + len
}

/// What went wrong with a campaign operation.
#[derive(Debug)]
pub enum CampaignError {
    /// An I/O failure on the given path.
    Io(std::io::Error, PathBuf),
    /// A malformed or internally inconsistent campaign artifact.
    Invalid(String),
    /// The on-disk campaign was produced by an incompatible spec (different
    /// study, parameters, cell matrix, or binary).
    SpecMismatch(String),
    /// The campaign has shards that never completed.
    Incomplete {
        /// The missing shard indices.
        missing: Vec<usize>,
    },
    /// One or more shards failed to commit during a resume (for example a
    /// full disk while writing a blob). Every *other* shard still ran and
    /// checkpointed; only the listed shards need a retry.
    ShardsQuarantined {
        /// `(shard index, error)` for every shard whose commit failed.
        failed: Vec<(usize, String)>,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Io(e, p) => write!(f, "{}: {e}", p.display()),
            CampaignError::Invalid(m) => write!(f, "invalid campaign: {m}"),
            CampaignError::SpecMismatch(m) => write!(f, "campaign spec mismatch: {m}"),
            CampaignError::Incomplete { missing } => write!(
                f,
                "campaign is incomplete: shard(s) {missing:?} have not been run (run them with \
                 --shard i/n or finish the campaign with --resume)"
            ),
            CampaignError::ShardsQuarantined { failed } => {
                let indices: Vec<usize> = failed.iter().map(|(s, _)| *s).collect();
                write!(
                    f,
                    "shard(s) {indices:?} failed to commit and were quarantined (first: shard \
                     {}: {}); every other shard checkpointed — re-run --resume to retry only \
                     the quarantined shard(s)",
                    failed[0].0, failed[0].1
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {}

fn io_err(e: std::io::Error, p: &Path) -> CampaignError {
    CampaignError::Io(e, p.to_path_buf())
}

/// Resume bookkeeping: which shards were reused vs run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResumeStats {
    /// Shards found complete in the manifest and loaded from their blobs.
    pub reused: Vec<usize>,
    /// Shards executed by this invocation.
    pub ran: Vec<usize>,
}

/// A study bound to concrete opts, with its cell labels and spec hash.
pub struct Campaign<'a> {
    study: &'a dyn Study,
    opts: StudyOpts,
    labels: Vec<String>,
    spec_hash: u64,
}

impl fmt::Debug for Campaign<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Campaign")
            .field("study", &self.study.name())
            .field("cells", &self.labels.len())
            .field("spec_hash", &format_args!("{:#018x}", self.spec_hash))
            .finish()
    }
}

impl<'a> Campaign<'a> {
    /// Binds `study` to `opts`, materialising the cell labels and the spec
    /// hash.
    pub fn new(study: &'a dyn Study, opts: StudyOpts) -> Result<Campaign<'a>, CampaignError> {
        let labels = study.cells(&opts).map_err(CampaignError::Invalid)?;
        let mut h = Fnv1a::new();
        h.eat(format!("giantsan-campaign-v{FORMAT_VERSION}\n").as_bytes());
        h.eat(env!("CARGO_PKG_VERSION").as_bytes());
        h.eat(b"\n");
        h.eat(study.name().as_bytes());
        h.eat(b"\n");
        for (k, v) in opts.params() {
            h.eat(format!("{k}={v}\n").as_bytes());
        }
        h.eat(&(labels.len() as u64).to_le_bytes());
        for l in &labels {
            h.eat(l.as_bytes());
            h.eat(b"\n");
        }
        Ok(Campaign {
            study,
            opts,
            labels,
            spec_hash: h.finish(),
        })
    }

    /// The bound study.
    pub fn study(&self) -> &dyn Study {
        self.study
    }

    /// The bound opts.
    pub fn opts(&self) -> &StudyOpts {
        &self.opts
    }

    /// The cell labels, in matrix order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The campaign's compatibility fingerprint.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// Runs the whole matrix in one batch (no checkpointing) — the
    /// monolithic path plain `repro <study>` takes. Sharded and resumed runs
    /// must merge to exactly these records.
    pub fn run_all(&self, runner: &BatchRunner) -> Vec<Record> {
        let payloads = self
            .study
            .run_range(&self.opts, 0..self.labels.len(), runner);
        self.records_from(0, payloads)
    }

    fn records_from(&self, start: usize, payloads: Vec<Json>) -> Vec<Record> {
        payloads
            .into_iter()
            .enumerate()
            .map(|(off, payload)| Record {
                index: start + off,
                label: self.labels[start + off].clone(),
                payload,
            })
            .collect()
    }

    fn header_json(&self, shards: usize) -> String {
        let params = self
            .opts
            .params()
            .into_iter()
            .fold(Json::obj(), |o, (k, v)| o.field(k, v));
        Json::obj()
            .field("format", FORMAT_VERSION)
            .field("binary", env!("CARGO_PKG_VERSION"))
            .field("study", self.study.name())
            .field("params", params)
            .field("cells", self.labels.len())
            .field("shards", shards)
            .field("spec_hash", Json::hex(self.spec_hash))
            .render()
    }

    /// Creates (or re-validates) the campaign directory for `shards` shards.
    ///
    /// First caller wins the header write; every later caller — the other
    /// shard processes, resumes, merges — verifies the stored spec hash and
    /// shard count against its own and fails loudly on any drift.
    pub fn init_dir(&self, dir: &Path, shards: usize) -> Result<(), CampaignError> {
        std::fs::create_dir_all(dir).map_err(|e| io_err(e, dir))?;
        let path = dir.join("campaign.json");
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => f
                .write_all(self.header_json(shards).as_bytes())
                .map_err(|e| io_err(e, &path)),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let header = read_header(dir)?;
                self.check_header(&header, dir)?;
                if header.shards != shards {
                    return Err(CampaignError::SpecMismatch(format!(
                        "campaign at {} was initialised with {} shard(s) but this invocation \
                         asked for {shards}; every shard of one campaign must use the same \
                         --shard denominator",
                        dir.display(),
                        header.shards
                    )));
                }
                Ok(())
            }
            Err(e) => Err(io_err(e, &path)),
        }
    }

    fn check_header(&self, header: &Header, dir: &Path) -> Result<(), CampaignError> {
        if header.spec_hash != self.spec_hash {
            return Err(CampaignError::SpecMismatch(format!(
                "campaign at {} was written for spec {:#018x} (study `{}`, binary {}), but this \
                 invocation computes spec {:#018x} (study `{}`, binary {}). The study flags, the \
                 binary, or the cell matrix changed; results cannot be mixed. Start a fresh \
                 --out-dir, or re-run with the original flags and binary.",
                dir.display(),
                header.spec_hash,
                header.study,
                header.binary,
                self.spec_hash,
                self.study.name(),
                env!("CARGO_PKG_VERSION"),
            )));
        }
        Ok(())
    }

    /// Runs one shard into `dir`, committing its blob to the manifest.
    ///
    /// Returns `false` if the shard was already complete (nothing ran). The
    /// blob is written in full before the manifest line — the commit point —
    /// is appended, so a crash mid-shard leaves at most an uncommitted blob
    /// that the next attempt overwrites.
    pub fn run_shard(
        &self,
        dir: &Path,
        shard: ShardSpec,
        runner: &BatchRunner,
    ) -> Result<bool, CampaignError> {
        self.init_dir(dir, shard.count)?;
        let manifest = read_manifest(dir)?;
        if manifest.iter().any(|m| m.shard == shard.index) {
            return Ok(false);
        }
        let range = shard_range(self.labels.len(), shard.index, shard.count);
        let payloads = self.study.run_range(&self.opts, range.clone(), runner);
        let records = self.records_from(range.start, payloads);
        let mut blob = String::new();
        for r in &records {
            blob.push_str(&record_line(r));
            blob.push('\n');
        }
        let blob_path = dir.join(blob_name(shard.index));
        if let Err(e) = write_blob(&blob_path, &blob) {
            // Never leave a partial blob behind a failed write: it was not
            // committed (no manifest line), but a half-written file sitting
            // at the committed name would shadow the next attempt's state.
            let _ = std::fs::remove_file(&blob_path);
            return Err(io_err(e, &blob_path));
        }
        let digest = fnv1a(blob.as_bytes());
        let line = Json::obj()
            .field("shard", shard.index)
            .field("start", range.start)
            .field("len", range.end - range.start)
            .field("digest", Json::hex(digest))
            .render_compact();
        let manifest_path = dir.join("manifest.jsonl");
        // A torn final line (crash mid-append) was never a commit; truncate
        // it before appending, or the new commit line would fuse with the
        // half-written one and corrupt both.
        repair_torn_tail(&manifest_path).map_err(|e| io_err(e, &manifest_path))?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&manifest_path)
            .map_err(|e| io_err(e, &manifest_path))?;
        writeln!(f, "{line}").map_err(|e| io_err(e, &manifest_path))?;
        Ok(true)
    }

    /// Resumes the campaign at `dir`: verifies the header, loads every
    /// completed shard from its digest-checked blob, runs the missing ones,
    /// and returns all records in cell order plus what was reused vs run.
    pub fn resume(
        &self,
        dir: &Path,
        runner: &BatchRunner,
    ) -> Result<(Vec<Record>, ResumeStats), CampaignError> {
        let header = read_header(dir)?;
        self.check_header(&header, dir)?;
        let shards = header.shards;
        let manifest = read_manifest(dir)?;
        let mut stats = ResumeStats::default();
        let mut quarantined: Vec<(usize, String)> = Vec::new();
        let mut records = Vec::with_capacity(self.labels.len());
        for shard in 0..shards {
            if manifest.iter().any(|m| m.shard == shard) {
                stats.reused.push(shard);
            } else {
                let spec = ShardSpec {
                    index: shard,
                    count: shards,
                };
                match self.run_shard(dir, spec, runner) {
                    Ok(_) => stats.ran.push(shard),
                    // An I/O failure committing one shard (disk full, torn
                    // write) quarantines that shard but does not abort the
                    // resume: the remaining shards still run and checkpoint,
                    // so the retry only has the quarantined work left.
                    Err(CampaignError::Io(e, p)) => {
                        quarantined.push((shard, format!("{}: {e}", p.display())));
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        if !quarantined.is_empty() {
            return Err(CampaignError::ShardsQuarantined {
                failed: quarantined,
            });
        }
        let manifest = read_manifest(dir)?;
        for shard in 0..shards {
            let entry = manifest
                .iter()
                .find(|m| m.shard == shard)
                .expect("shard just ran or was complete");
            records.extend(self.load_shard(dir, entry)?);
        }
        Ok((records, stats))
    }

    /// Loads a fully completed campaign's records (the `repro merge` path).
    /// Fails with [`CampaignError::Incomplete`] if any shard is missing.
    pub fn load_records(&self, dir: &Path) -> Result<Vec<Record>, CampaignError> {
        let header = read_header(dir)?;
        self.check_header(&header, dir)?;
        let manifest = read_manifest(dir)?;
        let missing: Vec<usize> = (0..header.shards)
            .filter(|s| !manifest.iter().any(|m| m.shard == *s))
            .collect();
        if !missing.is_empty() {
            return Err(CampaignError::Incomplete { missing });
        }
        let mut records = Vec::with_capacity(self.labels.len());
        for shard in 0..header.shards {
            let entry = manifest.iter().find(|m| m.shard == shard).unwrap();
            records.extend(self.load_shard(dir, entry)?);
        }
        if records.len() != self.labels.len() {
            return Err(CampaignError::Invalid(format!(
                "campaign blobs hold {} record(s) but the matrix has {} cell(s)",
                records.len(),
                self.labels.len()
            )));
        }
        Ok(records)
    }

    fn load_shard(&self, dir: &Path, entry: &ManifestEntry) -> Result<Vec<Record>, CampaignError> {
        let path = dir.join(blob_name(entry.shard));
        let blob = std::fs::read_to_string(&path).map_err(|e| io_err(e, &path))?;
        let digest = fnv1a(blob.as_bytes());
        if digest != entry.digest {
            return Err(CampaignError::Invalid(format!(
                "{}: blob digest {digest:#018x} does not match the manifest's {:#018x}; the \
                 shard file was modified or truncated after commit",
                path.display(),
                entry.digest
            )));
        }
        let expect = shard_range(self.labels.len(), entry.shard, entry.count);
        let mut records = Vec::new();
        for (i, line) in blob.lines().enumerate() {
            let v = Json::parse(line).map_err(|e| {
                CampaignError::Invalid(format!("{}:{}: {e}", path.display(), i + 1))
            })?;
            let index = v
                .get("cell")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad_record(&path, i, "missing `cell`"))?
                as usize;
            let label = v
                .get("label")
                .and_then(Json::as_str)
                .ok_or_else(|| bad_record(&path, i, "missing `label`"))?
                .to_string();
            let payload = v
                .get("payload")
                .cloned()
                .ok_or_else(|| bad_record(&path, i, "missing `payload`"))?;
            if index != entry.start + i {
                return Err(bad_record(&path, i, "cell index out of sequence"));
            }
            if self.labels.get(index) != Some(&label) {
                return Err(CampaignError::SpecMismatch(format!(
                    "{}: cell {index} is labelled `{label}` on disk but the current matrix \
                     computes `{}`; the cell matrix changed",
                    path.display(),
                    self.labels
                        .get(index)
                        .map(String::as_str)
                        .unwrap_or("<out of range>")
                )));
            }
            records.push(Record {
                index,
                label,
                payload,
            });
        }
        if records.len() != entry.len || expect.start != entry.start {
            return Err(CampaignError::Invalid(format!(
                "{}: shard covers cells {}..{} but the manifest promised {}..{}",
                path.display(),
                expect.start,
                expect.start + records.len(),
                entry.start,
                entry.start + entry.len
            )));
        }
        Ok(records)
    }
}

fn bad_record(path: &Path, line: usize, msg: &str) -> CampaignError {
    CampaignError::Invalid(format!("{}:{}: {msg}", path.display(), line + 1))
}

fn blob_name(shard: usize) -> String {
    format!("shard-{shard:04}.jsonl")
}

/// The canonical FNV-1a digest of a record list: the hash of the records
/// rendered exactly as shard-blob lines, in cell order. This is the digest
/// the service reports per job and `loadgen` verifies against a serial run —
/// equality proves zero lost, duplicated, or altered cells.
pub fn records_digest(records: &[Record]) -> u64 {
    let mut h = Fnv1a::new();
    for r in records {
        h.eat(record_line(r).as_bytes());
        h.eat(b"\n");
    }
    h.finish()
}

/// One record rendered as its shard-blob / event-stream line.
pub fn record_line(r: &Record) -> String {
    Json::obj()
        .field("cell", r.index)
        .field("label", r.label.as_str())
        .field("payload", r.payload.clone())
        .render_compact()
}

/// Deterministic write-fault injection for the campaign writer (the
/// disk-full drill). Tests and the chaos harness arm a number of failures;
/// each armed failure makes the next shard-blob write fail after writing a
/// partial prefix — exactly what a full disk does — so the recovery
/// contract can be exercised: a failed write must surface as a quarantined
/// shard, never as a silently committed partial blob.
pub mod faultpoint {
    use std::sync::atomic::{AtomicUsize, Ordering};

    static BLOB_WRITE_FAULTS: AtomicUsize = AtomicUsize::new(0);

    /// Arms `n` blob-write failures (each consumed by one failing write).
    pub fn arm_blob_write_errors(n: usize) {
        BLOB_WRITE_FAULTS.store(n, Ordering::SeqCst);
    }

    /// Consumes one armed failure; `true` means the caller must fail.
    pub(super) fn take_blob_write_error() -> bool {
        BLOB_WRITE_FAULTS
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Disarms any remaining failures (test hygiene).
    pub fn disarm() {
        BLOB_WRITE_FAULTS.store(0, Ordering::SeqCst);
    }
}

/// Writes a shard blob, honouring the [`faultpoint`] injection: an armed
/// fault writes a truncated prefix and then reports `ENOSPC`-style failure,
/// modelling a disk that filled up mid-write.
fn write_blob(path: &Path, blob: &str) -> std::io::Result<()> {
    if faultpoint::take_blob_write_error() {
        let half = blob.len() / 2;
        let _ = std::fs::write(path, &blob.as_bytes()[..half]);
        return Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected disk-full while writing shard blob",
        ));
    }
    std::fs::write(path, blob)
}

/// Parsed `campaign.json`.
#[derive(Debug, Clone)]
pub struct Header {
    /// On-disk format version.
    pub format: u64,
    /// `CARGO_PKG_VERSION` of the writing binary.
    pub binary: String,
    /// Study name.
    pub study: String,
    /// Deterministic study parameters, in written order.
    pub params: Vec<(String, String)>,
    /// Cell count.
    pub cells: usize,
    /// Shard count.
    pub shards: usize,
    /// The spec hash the writer computed.
    pub spec_hash: u64,
}

/// Reads and validates `campaign.json` from `dir`, with an actionable error
/// when the directory was never initialised.
pub fn read_header(dir: &Path) -> Result<Header, CampaignError> {
    let path = dir.join("campaign.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(CampaignError::Invalid(format!(
                "{} does not exist — `{}` is not a campaign directory. Point --resume/merge at \
                 the --out-dir of a previous sharded run (it holds campaign.json and \
                 manifest.jsonl).",
                path.display(),
                dir.display()
            )));
        }
        Err(e) => return Err(io_err(e, &path)),
    };
    let v = Json::parse(&text)
        .map_err(|e| CampaignError::Invalid(format!("{}: {e}", path.display())))?;
    let format = v
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| CampaignError::Invalid(format!("{}: missing `format`", path.display())))?;
    if format != FORMAT_VERSION {
        return Err(CampaignError::Invalid(format!(
            "{}: format version {format} is not supported by this binary (wants {FORMAT_VERSION})",
            path.display()
        )));
    }
    let field_str = |k: &str| -> Result<String, CampaignError> {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| CampaignError::Invalid(format!("{}: missing `{k}`", path.display())))
    };
    let field_u64 = |k: &str| -> Result<u64, CampaignError> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| CampaignError::Invalid(format!("{}: missing `{k}`", path.display())))
    };
    let params = match v.get("params") {
        Some(Json::Object(fields)) => fields
            .iter()
            .map(|(k, val)| {
                val.as_str()
                    .map(|s| (k.clone(), s.to_string()))
                    .ok_or_else(|| {
                        CampaignError::Invalid(format!(
                            "{}: param `{k}` is not a string",
                            path.display()
                        ))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => {
            return Err(CampaignError::Invalid(format!(
                "{}: missing `params` object",
                path.display()
            )))
        }
    };
    Ok(Header {
        format,
        binary: field_str("binary")?,
        study: field_str("study")?,
        params,
        cells: field_u64("cells")? as usize,
        shards: field_u64("shards")? as usize,
        spec_hash: v.get("spec_hash").and_then(Json::as_hex).ok_or_else(|| {
            CampaignError::Invalid(format!("{}: missing `spec_hash`", path.display()))
        })?,
    })
}

#[derive(Debug, Clone)]
struct ManifestEntry {
    shard: usize,
    start: usize,
    len: usize,
    count: usize,
    digest: u64,
}

/// Truncates a torn (newline-less) final line off a manifest file. The
/// half-written line was never a commit — [`read_manifest`] already ignores
/// it — but it must not stay on disk once another commit is appended, or
/// the two would fuse into one unparseable line.
fn repair_torn_tail(path: &Path) -> std::io::Result<()> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if text.is_empty() || text.ends_with('\n') {
        return Ok(());
    }
    let keep = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    f.set_len(keep as u64)?;
    Ok(())
}

/// Reads `manifest.jsonl`, deduplicating repeated shard lines (a shard
/// re-run after a crash-before-commit) and rejecting conflicting ones.
///
/// A **torn final line** — the file does not end in a newline and its last
/// line does not parse, the signature of a crash mid-append — is tolerated:
/// the half-written commit simply never happened, the shard reads as
/// incomplete, and the next `--resume` re-runs it. A malformed line anywhere
/// else (or a complete, newline-terminated final line that does not parse)
/// is still corruption and fails loudly.
fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, CampaignError> {
    let path = dir.join("manifest.jsonl");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(io_err(e, &path)),
    };
    let header = read_header(dir)?;
    let lines: Vec<&str> = text.lines().collect();
    let torn_tail_at = if text.ends_with('\n') {
        None
    } else {
        Some(lines.len().saturating_sub(1))
    };
    let mut entries: Vec<ManifestEntry> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let tolerate_torn = torn_tail_at == Some(i);
        let parsed = (|| -> Result<ManifestEntry, CampaignError> {
            let v = Json::parse(line).map_err(|e| {
                CampaignError::Invalid(format!("{}:{}: {e}", path.display(), i + 1))
            })?;
            let get = |k: &str| -> Result<u64, CampaignError> {
                v.get(k).and_then(Json::as_u64).ok_or_else(|| {
                    CampaignError::Invalid(format!("{}:{}: missing `{k}`", path.display(), i + 1))
                })
            };
            Ok(ManifestEntry {
                shard: get("shard")? as usize,
                start: get("start")? as usize,
                len: get("len")? as usize,
                count: header.shards,
                digest: v.get("digest").and_then(Json::as_hex).ok_or_else(|| {
                    CampaignError::Invalid(format!(
                        "{}:{}: missing `digest`",
                        path.display(),
                        i + 1
                    ))
                })?,
            })
        })();
        let entry = match parsed {
            Ok(e) => e,
            Err(_) if tolerate_torn => continue,
            Err(e) => return Err(e),
        };
        match entries.iter().find(|e| e.shard == entry.shard) {
            None => entries.push(entry),
            Some(prev) if prev.digest == entry.digest => {}
            Some(prev) => {
                return Err(CampaignError::Invalid(format!(
                    "{}: shard {} committed twice with different digests ({:#018x} vs \
                     {:#018x}); the campaign directory is corrupt",
                    path.display(),
                    entry.shard,
                    prev.digest,
                    entry.digest
                )));
            }
        }
    }
    Ok(entries)
}

/// Opens the campaign at `dir` for merging: reads the header, rebuilds the
/// study opts from the stored parameters, resolves the study in `registry`,
/// and verifies the spec hash before returning the bound campaign.
pub fn open_for_merge<'a>(
    registry: &'a StudyRegistry,
    dir: &Path,
) -> Result<Campaign<'a>, CampaignError> {
    let header = read_header(dir)?;
    let opts = StudyOpts::from_params(&header.params).map_err(CampaignError::Invalid)?;
    let study = registry.get(&header.study).ok_or_else(|| {
        CampaignError::Invalid(format!(
            "campaign study `{}` is not in this binary's registry (knows: {})",
            header.study,
            registry.names().join(", ")
        ))
    })?;
    let campaign = Campaign::new(study, opts)?;
    campaign.check_header(&header, dir)?;
    Ok(campaign)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_ranges_partition_exactly() {
        for cells in [0usize, 1, 7, 24, 1050] {
            for count in [1usize, 2, 3, 4, 7, 16] {
                let mut covered = 0;
                let mut next = 0;
                for i in 0..count {
                    let r = shard_range(cells, i, count);
                    assert_eq!(r.start, next, "cells={cells} count={count} shard={i}");
                    covered += r.len();
                    next = r.end;
                }
                assert_eq!(covered, cells);
                assert_eq!(next, cells);
            }
        }
    }

    #[test]
    fn shard_spec_errors_are_actionable() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(
            ShardSpec::parse("3/4").unwrap(),
            ShardSpec { index: 3, count: 4 }
        );
        let e = ShardSpec::parse("4/4").unwrap_err();
        assert!(e.contains("0-based"), "{e}");
        assert!(e.contains("3/4"), "{e}");
        let e = ShardSpec::parse("nope").unwrap_err();
        assert!(e.contains("i/n"), "{e}");
        let e = ShardSpec::parse("1/0").unwrap_err();
        assert!(e.contains("at least 1"), "{e}");
        assert!(ShardSpec::parse("x/2").is_err());
        assert!(ShardSpec::parse("1/y").is_err());
    }

    #[test]
    fn missing_dir_error_mentions_the_manifest() {
        let e = read_header(Path::new("/nonexistent/campaign-dir")).unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("campaign.json"), "{msg}");
        assert!(msg.contains("--out-dir"), "{msg}");
    }
}
