//! Bridge between the analysis dataset and the `webvuln-store` binary
//! snapshot store: type conversions, [`Dataset::save_store`] /
//! [`Dataset::load_store`], streaming snapshot iteration, and the
//! checkpoint/resume collector used by `study --store`.
//!
//! The store is dependency-free and speaks a plain-string record model;
//! this module is the single place that maps [`PageAnalysis`] and friends
//! into it and back. Telemetry: every commit records into `store.*`
//! counters and the `store.commit_latency_ns` histogram.

use crate::dataset::{CollectConfig, Dataset, WeekCollector, WeekSnapshot};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use webvuln_cvedb::{Date, LibraryId};
use webvuln_fingerprint::{
    DetectedInclusion, Detection, ExternalScript, FlashDetection, PageAnalysis, ResourceType,
};
use webvuln_net::{inaccessible_domains, page_is_error_or_empty, FetchSummary};
use webvuln_store::{
    AnyReader, CommitInfo, DetectionRecord, DomainRecord, FlashRecord, Genesis, PageRecord,
    ScriptRecord, ShardedStoreWriter, StoreReader, StoreWriter, WeekData, WordPressRecord,
};

pub use webvuln_store::StoreError;
use webvuln_telemetry::json::{Arr, Obj};
use webvuln_telemetry::Telemetry;
use webvuln_version::Version;
use webvuln_webgen::{Ecosystem, Timeline};

// ---------------------------------------------------------------------------
// Type conversions
// ---------------------------------------------------------------------------

fn resource_type_code(rt: ResourceType) -> u8 {
    ResourceType::ALL
        .iter()
        .position(|&candidate| candidate == rt)
        .expect("every ResourceType is in ALL") as u8
}

fn resource_type_from_code(code: u8) -> Result<ResourceType, StoreError> {
    ResourceType::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| StoreError::Mismatch(format!("unknown resource-type code {code}")))
}

fn page_to_record(page: &PageAnalysis) -> PageRecord {
    PageRecord {
        detections: page
            .detections
            .iter()
            .map(|d| DetectionRecord {
                library: d.library.slug().to_string(),
                version: d.version.as_ref().map(|v| v.to_string()),
                external_host: match &d.inclusion {
                    DetectedInclusion::Internal => None,
                    DetectedInclusion::External { host } => Some(host.clone()),
                },
                integrity: d.integrity,
                crossorigin: d.crossorigin.clone(),
                url: d.url.clone(),
            })
            .collect(),
        wordpress: match &page.wordpress {
            None => WordPressRecord::Absent,
            Some(None) => WordPressRecord::DetectedUnknownVersion,
            Some(Some(version)) => WordPressRecord::Detected(version.to_string()),
        },
        flash: page
            .flash
            .iter()
            .map(|f| FlashRecord {
                swf_url: f.swf_url.clone(),
                allow_script_access: f.allow_script_access.clone(),
            })
            .collect(),
        resource_types: page
            .resource_types
            .iter()
            .copied()
            .map(resource_type_code)
            .collect(),
        github_scripts: page
            .github_scripts
            .iter()
            .map(|s| ScriptRecord {
                host: s.host.clone(),
                url: s.url.clone(),
                integrity: s.integrity,
                crossorigin: s.crossorigin.clone(),
            })
            .collect(),
        external_scripts: page.external_scripts as u64,
        external_scripts_without_integrity: page.external_scripts_without_integrity as u64,
        crossorigin_values: page.crossorigin_values.clone(),
    }
}

fn parse_version(text: &str) -> Result<Version, StoreError> {
    Version::parse(text)
        .map_err(|e| StoreError::Mismatch(format!("stored version {text:?} unparsable: {e}")))
}

fn record_to_page(record: &PageRecord) -> Result<PageAnalysis, StoreError> {
    let detections = record
        .detections
        .iter()
        .map(|d| {
            let library = LibraryId::from_slug(&d.library).ok_or_else(|| {
                StoreError::Mismatch(format!("unknown library slug {:?}", d.library))
            })?;
            Ok(Detection {
                library,
                version: d.version.as_deref().map(parse_version).transpose()?,
                inclusion: match &d.external_host {
                    None => DetectedInclusion::Internal,
                    Some(host) => DetectedInclusion::External { host: host.clone() },
                },
                integrity: d.integrity,
                crossorigin: d.crossorigin.clone(),
                url: d.url.clone(),
            })
        })
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(PageAnalysis {
        detections,
        wordpress: match &record.wordpress {
            WordPressRecord::Absent => None,
            WordPressRecord::DetectedUnknownVersion => Some(None),
            WordPressRecord::Detected(version) => Some(Some(parse_version(version)?)),
        },
        flash: record
            .flash
            .iter()
            .map(|f| FlashDetection {
                swf_url: f.swf_url.clone(),
                allow_script_access: f.allow_script_access.clone(),
            })
            .collect(),
        resource_types: record
            .resource_types
            .iter()
            .map(|&code| resource_type_from_code(code))
            .collect::<Result<Vec<_>, StoreError>>()?,
        github_scripts: record
            .github_scripts
            .iter()
            .map(|s| ExternalScript {
                host: s.host.clone(),
                url: s.url.clone(),
                integrity: s.integrity,
                crossorigin: s.crossorigin.clone(),
            })
            .collect(),
        external_scripts: record.external_scripts as usize,
        external_scripts_without_integrity: record.external_scripts_without_integrity as usize,
        crossorigin_values: record.crossorigin_values.clone(),
    })
}

/// Converts one analysed snapshot into the store's record model. Records
/// come out sorted by host (the summaries map is a `BTreeMap`), as the
/// store's canonical encoding requires.
pub fn snapshot_to_week(snapshot: &WeekSnapshot) -> WeekData {
    WeekData {
        week: snapshot.week,
        date_days: i64::from(snapshot.date.day_number()),
        records: snapshot
            .summaries
            .iter()
            .map(|(host, summary)| DomainRecord {
                host: host.clone(),
                status: summary.status,
                body_len: summary.body_len as u64,
                page: snapshot.pages.get(host).map(page_to_record),
            })
            .collect(),
    }
}

/// Converts a decoded store week back into an analysed snapshot.
///
/// Carried-forward flags are not stored explicitly: a live crawl only
/// attaches a page to an error-or-empty fetch when carry-forward
/// degradation substituted the last usable snapshot, so the flag is
/// reconstructed from exactly that combination.
pub fn week_to_snapshot(week: &WeekData) -> Result<WeekSnapshot, StoreError> {
    let date_days = i32::try_from(week.date_days)
        .map_err(|_| StoreError::Mismatch(format!("week date {} out of range", week.date_days)))?;
    let mut pages = BTreeMap::new();
    let mut summaries = BTreeMap::new();
    let mut carried_forward = BTreeSet::new();
    for record in &week.records {
        summaries.insert(
            record.host.clone(),
            FetchSummary {
                status: record.status,
                body_len: record.body_len as usize,
            },
        );
        if let Some(page) = &record.page {
            pages.insert(record.host.clone(), record_to_page(page)?);
            if page_is_error_or_empty(record.status, record.body_len as usize) {
                carried_forward.insert(record.host.clone());
            }
        }
    }
    Ok(WeekSnapshot {
        week: week.week,
        date: Date::from_day_number(date_days),
        pages,
        summaries,
        carried_forward,
    })
}

fn genesis_for(timeline: &Timeline, names: &[String]) -> Genesis {
    Genesis {
        start_days: i64::from(timeline.start.day_number()),
        weeks_total: timeline.weeks,
        ranks: names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.clone(), (i + 1) as u64))
            .collect(),
    }
}

fn genesis_to_parts(genesis: &Genesis) -> Result<(Timeline, BTreeMap<String, usize>), StoreError> {
    let start_days = i32::try_from(genesis.start_days).map_err(|_| {
        StoreError::Mismatch(format!("start date {} out of range", genesis.start_days))
    })?;
    let timeline = Timeline {
        start: Date::from_day_number(start_days),
        weeks: genesis.weeks_total,
    };
    let ranks = genesis
        .ranks
        .iter()
        .map(|(host, rank)| (host.clone(), *rank as usize))
        .collect();
    Ok((timeline, ranks))
}

// ---------------------------------------------------------------------------
// Dataset save/load
// ---------------------------------------------------------------------------

impl Dataset {
    /// Writes the dataset to a binary snapshot store at `path` —
    /// delta-encoded, string-interned, CRC-protected; a fraction of the
    /// JSON dump's size. The inaccessibility-filter verdict is stored in
    /// the finalize segment, so [`Dataset::load_store`] round-trips
    /// exactly.
    pub fn save_store(&self, path: impl AsRef<Path>) -> Result<(), StoreError> {
        let path = path.as_ref();
        let names: Vec<String> = {
            // Recover list order from ranks (rank is 1-based list position).
            let mut by_rank: Vec<(&String, usize)> =
                self.ranks.iter().map(|(n, &r)| (n, r)).collect();
            by_rank.sort_by_key(|&(_, r)| r);
            by_rank.into_iter().map(|(n, _)| n.clone()).collect()
        };
        let mut writer = StoreWriter::create(path, genesis_for(&self.timeline, &names))?;
        for snapshot in &self.weeks {
            writer.commit_week(&snapshot_to_week(snapshot))?;
        }
        writer.finalize(&self.filtered_out)?;
        Ok(())
    }

    /// Reads a dataset from a binary snapshot store.
    ///
    /// A finalized store applies its stored filter verdict; an
    /// unfinalized (checkpoint) store recomputes the §4.1 filter over
    /// whatever weeks were committed.
    pub fn load_store(path: impl AsRef<Path>) -> Result<Dataset, StoreError> {
        dataset_from_reader(&AnyReader::open(path.as_ref())?)
    }
}

/// Materialises a [`Dataset`] from an already-opened store of either
/// layout. This is [`Dataset::load_store`] minus the open, so callers
/// holding a degraded [`AnyReader`] (the serve layer) can build the
/// dataset from whatever weeks the healthy shards can merge.
pub fn dataset_from_reader(reader: &AnyReader) -> Result<Dataset, StoreError> {
    let (timeline, ranks) = genesis_to_parts(reader.genesis())?;
    let mut weeks = Vec::with_capacity(reader.weeks_committed());
    for week in reader.iter_weeks() {
        weeks.push(week_to_snapshot(&week?)?);
    }
    let mut dataset = Dataset {
        timeline,
        ranks,
        weeks,
        filtered_out: Vec::new(),
    };
    match reader.filtered_out() {
        Some(filtered) => {
            // Finalized: the verdict is authoritative. Dropping the
            // listed domains is a no-op when the weeks were stored
            // post-filter, and completes a raw checkpoint store.
            for week in &mut dataset.weeks {
                week.pages.retain(|d, _| !filtered.contains(d));
                week.summaries.retain(|d, _| !filtered.contains(d));
                week.carried_forward.retain(|d| !filtered.contains(d));
            }
            dataset.filtered_out = filtered.to_vec();
        }
        None => dataset.apply_inaccessibility_filter(),
    }
    Ok(dataset)
}

/// Streams the snapshots of a store without materialising a [`Dataset`]:
/// each week is decoded on demand and can be dropped before the next.
pub fn stream_snapshots(
    reader: &StoreReader,
) -> impl Iterator<Item = Result<WeekSnapshot, StoreError>> + '_ {
    reader.iter_weeks().map(|week| week_to_snapshot(&week?))
}

// ---------------------------------------------------------------------------
// JSON export
// ---------------------------------------------------------------------------
//
// The dataset's JSON form — the library's analogue of the paper's public
// data release — is written here and nowhere else. Structs are objects
// with their fields in declaration order, fieldless enums are their
// variant name, a struct variant is `{"Variant":{…}}`, `None` is `null`,
// and `PageAnalysis::wordpress` is `{"detected":…,"version":…}` (a bare
// `null` could not tell `Some(None)` from `None`). Raw page bytes are not
// exported; they are reproducible from the ecosystem seed.

/// Opens the document: `{"timeline":…,"ranks":…,"weeks":[`.
pub(crate) fn json_head(out: &mut String, timeline: &Timeline, ranks: &BTreeMap<String, usize>) {
    let timeline = Obj::new()
        .raw("start", &date_json(timeline.start))
        .u64("weeks", timeline.weeks as u64)
        .finish();
    let ranks = ranks
        .iter()
        .fold(Obj::new(), |obj, (domain, &rank)| {
            obj.u64(domain, rank as u64)
        })
        .finish();
    out.push_str("{\"timeline\":");
    out.push_str(&timeline);
    out.push_str(",\"ranks\":");
    out.push_str(&ranks);
    out.push_str(",\"weeks\":[");
}

/// Appends one week's snapshot object (without a separating comma).
pub(crate) fn json_week(out: &mut String, week: &WeekSnapshot) {
    let pages = week
        .pages
        .iter()
        .fold(Obj::new(), |obj, (domain, page)| {
            obj.raw(domain, &page_json(page))
        })
        .finish();
    let summaries = week
        .summaries
        .iter()
        .fold(Obj::new(), |obj, (domain, summary)| {
            let status = summary.status.map_or("null".to_string(), |s| s.to_string());
            let summary = Obj::new()
                .raw("status", &status)
                .u64("body_len", summary.body_len as u64)
                .finish();
            obj.raw(domain, &summary)
        })
        .finish();
    out.push_str(
        &Obj::new()
            .u64("week", week.week as u64)
            .raw("date", &date_json(week.date))
            .raw("pages", &pages)
            .raw("summaries", &summaries)
            .raw("carried_forward", &strings_json(&week.carried_forward))
            .finish(),
    );
}

/// Closes the document: `],"filtered_out":[…]}`.
pub(crate) fn json_tail(out: &mut String, filtered_out: &[String]) {
    out.push_str("],\"filtered_out\":");
    out.push_str(&strings_json(filtered_out));
    out.push('}');
}

fn date_json(date: Date) -> String {
    Obj::new().i64("days", date.day_number().into()).finish()
}

fn strings_json<'a>(items: impl IntoIterator<Item = &'a String>) -> String {
    let mut arr = Arr::new();
    for item in items {
        arr.push_str(item);
    }
    arr.finish()
}

fn version_json(version: Option<&Version>) -> String {
    let Some(version) = version else {
        return "null".to_string();
    };
    let mut parts = Arr::new();
    for part in version.parts() {
        parts.push_raw(&part.to_string());
    }
    Obj::new()
        .raw("parts", &parts.finish())
        .opt_str("pre", version.pre())
        .finish()
}

fn page_json(page: &PageAnalysis) -> String {
    // Fieldless enums export as their variant name, which is what the
    // derived `Debug` prints.
    let mut detections = Arr::new();
    for d in &page.detections {
        let inclusion = match &d.inclusion {
            DetectedInclusion::Internal => "\"Internal\"".to_string(),
            DetectedInclusion::External { host } => {
                let host = Obj::new().str("host", host).finish();
                Obj::new().raw("External", &host).finish()
            }
        };
        let detection = Obj::new()
            .str("library", &format!("{:?}", d.library))
            .raw("version", &version_json(d.version.as_ref()))
            .raw("inclusion", &inclusion)
            .bool("integrity", d.integrity)
            .opt_str("crossorigin", d.crossorigin.as_deref())
            .str("url", &d.url)
            .finish();
        detections.push_raw(&detection);
    }
    let wordpress = Obj::new()
        .bool("detected", page.wordpress.is_some())
        .raw(
            "version",
            &version_json(page.wordpress.as_ref().and_then(Option::as_ref)),
        )
        .finish();
    let mut flash = Arr::new();
    for f in &page.flash {
        let entry = Obj::new()
            .str("swf_url", &f.swf_url)
            .opt_str("allow_script_access", f.allow_script_access.as_deref())
            .finish();
        flash.push_raw(&entry);
    }
    let mut resource_types = Arr::new();
    for rt in &page.resource_types {
        resource_types.push_str(&format!("{rt:?}"));
    }
    let mut github_scripts = Arr::new();
    for g in &page.github_scripts {
        let script = Obj::new()
            .str("host", &g.host)
            .str("url", &g.url)
            .bool("integrity", g.integrity)
            .opt_str("crossorigin", g.crossorigin.as_deref())
            .finish();
        github_scripts.push_raw(&script);
    }
    Obj::new()
        .raw("detections", &detections.finish())
        .raw("wordpress", &wordpress)
        .raw("flash", &flash.finish())
        .raw("resource_types", &resource_types.finish())
        .raw("github_scripts", &github_scripts.finish())
        .u64("external_scripts", page.external_scripts as u64)
        .u64(
            "external_scripts_without_integrity",
            page.external_scripts_without_integrity as u64,
        )
        .raw(
            "crossorigin_values",
            &strings_json(&page.crossorigin_values),
        )
        .finish()
}

/// Streams a store straight into `out` as `Dataset`-shaped JSON —
/// byte-identical to `Dataset::load_store(path)?.to_json()` — without
/// ever holding more than one decoded week: each snapshot is written as
/// it is decoded.
///
/// An unfinalized store takes a preliminary summaries-only pass to
/// recompute the §4.1 verdict exactly as materialization would;
/// a finalized store uses its stored verdict and streams in one pass.
pub fn export_json<W: std::io::Write>(reader: &AnyReader, out: &mut W) -> std::io::Result<()> {
    let store_err = |e: StoreError| std::io::Error::other(e.to_string());
    let (timeline, ranks) = genesis_to_parts(reader.genesis()).map_err(store_err)?;
    let filtered: Vec<String> = match reader.filtered_out() {
        Some(filtered) => filtered.to_vec(),
        None => {
            let mut weekly = Vec::with_capacity(reader.weeks_committed());
            for week in reader.iter_weeks() {
                let snapshot = week_to_snapshot(&week.map_err(store_err)?).map_err(store_err)?;
                weekly.push(snapshot.summaries);
            }
            inaccessible_domains(&weekly, webvuln_net::filter::FINAL_WEEKS)
                .into_iter()
                .collect()
        }
    };
    let drop: BTreeSet<&String> = filtered.iter().collect();
    let mut buf = String::new();
    json_head(&mut buf, &timeline, &ranks);
    out.write_all(buf.as_bytes())?;
    for (index, week) in reader.iter_weeks().enumerate() {
        let mut snapshot = week_to_snapshot(&week.map_err(store_err)?).map_err(store_err)?;
        snapshot.pages.retain(|domain, _| !drop.contains(domain));
        snapshot
            .summaries
            .retain(|domain, _| !drop.contains(domain));
        snapshot
            .carried_forward
            .retain(|domain| !drop.contains(domain));
        buf.clear();
        if index > 0 {
            buf.push(',');
        }
        json_week(&mut buf, &snapshot);
        out.write_all(buf.as_bytes())?;
    }
    buf.clear();
    json_tail(&mut buf, &filtered);
    out.write_all(buf.as_bytes())
}

// ---------------------------------------------------------------------------
// Checkpointed collection
// ---------------------------------------------------------------------------

/// What a [`Collector::run`](crate::dataset::Collector::run) did.
#[derive(Debug)]
pub struct CheckpointOutcome {
    /// Domains removed by the §4.1 inaccessibility filter, sorted — the
    /// verdict recorded in the finalized store.
    pub filtered_out: Vec<String>,
    /// Weeks actually crawled in this run.
    pub weeks_crawled: usize,
    /// Weeks restored from the store instead of crawled.
    pub weeks_recovered: usize,
    /// Torn tail bytes truncated during resume (0 for a clean store).
    pub torn_bytes_recovered: u64,
}

/// Streaming state for the §4.1 inaccessibility filter: the candidate
/// set (every domain seen in any week's summaries) and the trailing
/// [`FINAL_WEEKS`](webvuln_net::filter::FINAL_WEEKS) summary maps.
/// [`verdict`](FilterWindow::verdict) applies exactly the
/// [`inaccessible_domains`] rule — a candidate is dropped when it is
/// error/empty (or absent) in every window week — without retaining the
/// full timeline, so the collection's filter state stays O(domains),
/// not O(domains x weeks).
struct FilterWindow {
    observed: BTreeSet<String>,
    window: std::collections::VecDeque<BTreeMap<String, FetchSummary>>,
}

impl FilterWindow {
    fn new() -> FilterWindow {
        FilterWindow {
            observed: BTreeSet::new(),
            window: std::collections::VecDeque::new(),
        }
    }

    fn absorb(&mut self, summaries: &BTreeMap<String, FetchSummary>) {
        self.observed.extend(summaries.keys().cloned());
        if self.window.len() == webvuln_net::filter::FINAL_WEEKS {
            self.window.pop_front();
        }
        self.window.push_back(summaries.clone());
    }

    fn verdict(&self) -> Vec<String> {
        if self.window.is_empty() {
            return Vec::new();
        }
        self.observed
            .iter()
            .filter(|domain| {
                self.window.iter().all(|week| match week.get(*domain) {
                    None => true,
                    Some(s) => page_is_error_or_empty(s.status, s.body_len),
                })
            })
            .cloned()
            .collect()
    }
}

/// The checkpoint writer behind [`collect_checkpointed`]: a single-file
/// [`StoreWriter`] for `shards == 1`, a [`ShardedStoreWriter`] directory
/// otherwise. Selection happens once, at open; the collection loop only
/// sees the shared commit/finalize surface.
enum CheckpointWriter {
    Single(Box<StoreWriter>),
    Sharded(ShardedStoreWriter),
}

/// What [`CheckpointWriter::open`] restored from disk.
struct ResumedCheckpoint {
    writer: CheckpointWriter,
    weeks: Vec<WeekData>,
    filtered_out: Option<Vec<String>>,
    torn_bytes: u64,
}

impl CheckpointWriter {
    fn create(
        store_path: &Path,
        genesis: Genesis,
        config: &CollectConfig,
    ) -> Result<CheckpointWriter, StoreError> {
        if config.shards > 1 {
            let writer = ShardedStoreWriter::create(store_path, genesis, config.shards)?
                .threads(config.concurrency);
            Ok(CheckpointWriter::Sharded(writer))
        } else {
            Ok(CheckpointWriter::Single(Box::new(StoreWriter::create(
                store_path, genesis,
            )?)))
        }
    }

    /// Opens or creates the checkpoint store. With `resume` set and a
    /// store on disk, the layout is read back from the path (a directory
    /// is sharded, a file is not) and must agree with `config.shards`;
    /// committed weeks are restored after torn-tail recovery. A store
    /// that never got its genesis (or manifest) to disk is recreated.
    fn open(
        store_path: &Path,
        genesis: Genesis,
        config: &CollectConfig,
        resume: bool,
    ) -> Result<ResumedCheckpoint, StoreError> {
        let fresh = |writer| ResumedCheckpoint {
            writer,
            weeks: Vec::new(),
            filtered_out: None,
            torn_bytes: 0,
        };
        if !(resume && store_path.exists()) {
            return Ok(fresh(CheckpointWriter::create(
                store_path, genesis, config,
            )?));
        }
        verify_resume_store(store_path)?;
        if store_path.is_dir() {
            match ShardedStoreWriter::resume(store_path) {
                Ok(resumed) => {
                    let writer = resumed.writer.threads(config.concurrency);
                    if writer.shard_count() != config.shards {
                        return Err(StoreError::Mismatch(format!(
                            "store at {} has {} shards but the study asked for {}; \
                             rerun with --shards {} or start a fresh store",
                            store_path.display(),
                            writer.shard_count(),
                            config.shards,
                            writer.shard_count(),
                        )));
                    }
                    Ok(ResumedCheckpoint {
                        writer: CheckpointWriter::Sharded(writer),
                        weeks: resumed.weeks,
                        filtered_out: resumed.filtered_out,
                        torn_bytes: resumed.torn_bytes,
                    })
                }
                // Killed before the first manifest commit: nothing worth
                // resuming; start over.
                Err(StoreError::MissingGenesis) => Ok(fresh(CheckpointWriter::create(
                    store_path, genesis, config,
                )?)),
                Err(e) => Err(e),
            }
        } else {
            if config.shards > 1 {
                return Err(StoreError::Mismatch(format!(
                    "store at {} is a single file but the study asked for {} shards; \
                     rerun without --shards or start a fresh store",
                    store_path.display(),
                    config.shards,
                )));
            }
            match StoreWriter::resume(store_path) {
                Ok(resumed) => Ok(ResumedCheckpoint {
                    writer: CheckpointWriter::Single(Box::new(resumed.writer)),
                    weeks: resumed.weeks,
                    filtered_out: resumed.filtered_out,
                    torn_bytes: resumed.torn_bytes,
                }),
                // A crash before the genesis segment hit the disk leaves
                // nothing worth resuming; start over.
                Err(StoreError::MissingGenesis) => Ok(fresh(CheckpointWriter::create(
                    store_path, genesis, config,
                )?)),
                Err(e) => Err(e),
            }
        }
    }

    fn genesis(&self) -> &Genesis {
        match self {
            CheckpointWriter::Single(w) => w.genesis(),
            CheckpointWriter::Sharded(w) => w.genesis(),
        }
    }

    fn commit_week(&mut self, week: &WeekData) -> Result<CommitInfo, StoreError> {
        match self {
            CheckpointWriter::Single(w) => w.commit_week(week),
            CheckpointWriter::Sharded(w) => w.commit_week(week),
        }
    }

    fn finalize(&mut self, filtered_out: &[String]) -> Result<(), StoreError> {
        match self {
            CheckpointWriter::Single(w) => w.finalize(filtered_out),
            CheckpointWriter::Sharded(w) => w.finalize(filtered_out),
        }
    }
}

/// The `--resume` integrity gate: CRC-verifies and fully decodes every
/// committed week (the `store verify` pass) before the writer trusts the
/// file, so silent corruption in the committed region fails loudly —
/// with the store path in the error — instead of resuming from corrupt
/// snapshots. A torn tail is fine (the scan indexes only intact
/// segments; resume recovery truncates the rest), and a store that never
/// got its genesis segment is left for the caller's start-over path.
/// Sharded stores verify shard by shard through the same [`AnyReader`]
/// surface; a mixed-epoch group (a shard behind the manifest) fails
/// here, before the writer touches anything.
fn verify_resume_store(store_path: &Path) -> Result<(), StoreError> {
    let verified = AnyReader::open(store_path).and_then(|reader| reader.verify().map(|_| ()));
    match verified {
        Ok(()) | Err(StoreError::MissingGenesis) => Ok(()),
        Err(e) => Err(StoreError::Mismatch(format!(
            "{}: pre-resume verify failed ({e}); refusing to resume from \
             a corrupt store — delete it or restore a backup",
            store_path.display()
        ))),
    }
}

/// The checkpointed collection loop behind
/// [`Collector::run`](crate::dataset::Collector::run).
///
/// Each week is committed and then dropped: only the [`FilterWindow`]
/// (candidate domains plus the trailing-month summaries) is retained,
/// and its verdict finalizes the store.
///
/// With `resume` set and an existing store present, committed weeks are
/// restored from disk (after torn-tail recovery) and only the missing
/// weeks are crawled; the restored crawl is byte-for-byte the crawl that
/// produced them, because collection is deterministic in the ecosystem
/// seed. The store must have been created from the same ecosystem —
/// timeline and domain list are checked against the genesis segment.
pub(crate) fn collect_checkpointed(
    ecosystem: &Arc<Ecosystem>,
    config: CollectConfig,
    telemetry: &Telemetry,
    store_path: &Path,
    resume: bool,
) -> Result<CheckpointOutcome, StoreError> {
    let registry = telemetry.registry();
    let names = ecosystem.domain_names();
    let timeline = *ecosystem.timeline();
    let expected = genesis_for(&timeline, &names);

    // Open or create the store, restoring any committed weeks.
    let resumed = CheckpointWriter::open(store_path, expected.clone(), &config, resume)?;
    if resumed.writer.genesis() != &expected {
        return Err(StoreError::Mismatch(
            "store was created from a different ecosystem \
             (seed, domain count, or timeline differ)"
                .to_string(),
        ));
    }
    let torn_bytes_recovered = resumed.torn_bytes;
    let mut writer = resumed.writer;
    let weeks_recovered = resumed.weeks.len();
    registry
        .counter("store.weeks_recovered_total")
        .add(weeks_recovered as u64);
    registry
        .counter("store.torn_bytes_recovered_total")
        .add(torn_bytes_recovered);
    let emit_restored = |i: usize, snapshot: &WeekSnapshot| {
        telemetry.emit(
            "crawl",
            i as u64 + 1,
            timeline.weeks as u64,
            &format!(
                "{}: {} pages (restored from store)",
                snapshot.date,
                snapshot.collected()
            ),
        );
    };

    // A finalized store is a completed run: nothing left to crawl.
    if let Some(filtered_out) = resumed.filtered_out {
        if weeks_recovered != timeline.weeks {
            return Err(StoreError::Mismatch(format!(
                "store is finalized but holds {weeks_recovered} of {} weeks",
                timeline.weeks
            )));
        }
        for (i, week) in resumed.weeks.iter().enumerate() {
            emit_restored(i, &week_to_snapshot(week)?);
        }
        return Ok(CheckpointOutcome {
            filtered_out,
            weeks_crawled: 0,
            weeks_recovered,
            torn_bytes_recovered,
        });
    }

    // Replay the restored weeks through the collector so week-to-week
    // state — circuit breakers, carry-forward baselines, the filter
    // window — resumes exactly where the interrupted run left it.
    let mut collector = WeekCollector::new(ecosystem, config, telemetry);
    let mut filter = FilterWindow::new();
    for (i, week) in resumed.weeks.into_iter().enumerate() {
        let snapshot = week_to_snapshot(&week)?;
        emit_restored(i, &snapshot);
        collector.replay_week(&snapshot);
        filter.absorb(&snapshot.summaries);
    }
    let segments = registry.counter("store.segments_total");
    let delta_hits = registry.counter("store.delta_hits_total");
    let delta_misses = registry.counter("store.delta_misses_total");
    let raw_bytes = registry.counter("store.raw_bytes_total");
    let encoded_bytes = registry.counter("store.encoded_bytes_total");
    let commit_latency = registry.histogram("store.commit_latency_ns");
    let mut weeks_crawled = 0;
    for (week, date) in timeline.iter().skip(weeks_recovered) {
        let snapshot = collector.collect_week(week, date, telemetry);
        collector.check_failure_budget()?;
        let info = {
            let _span = telemetry.span("store");
            let week_key = week.to_string();
            let _ = webvuln_failpoint::failpoint!("checkpoint.commit", &week_key)?;
            let started = std::time::Instant::now();
            let info = writer.commit_week(&snapshot_to_week(&snapshot))?;
            commit_latency.record_duration(started.elapsed());
            info
        };
        segments.add(1);
        delta_hits.add(info.delta_hits as u64);
        delta_misses.add((info.records - info.delta_hits) as u64);
        raw_bytes.add(info.raw_bytes);
        encoded_bytes.add(info.encoded_bytes);
        telemetry.emit(
            "crawl",
            week as u64 + 1,
            timeline.weeks as u64,
            &format!("{date}: {} pages", snapshot.collected()),
        );
        filter.absorb(&snapshot.summaries);
        weeks_crawled += 1;
    }

    // All weeks present: record the verdict and finalize.
    let filtered_out = filter.verdict();
    writer.finalize(&filtered_out)?;
    Ok(CheckpointOutcome {
        filtered_out,
        weeks_crawled,
        weeks_recovered,
        torn_bytes_recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::testkit;
    use webvuln_net::{BreakerConfig, FaultPlan, RetryPolicy};
    use webvuln_webgen::EcosystemConfig;

    fn temp_store(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-storeio-{}-{tag}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn small_eco(seed: u64, domains: usize, weeks: usize) -> Arc<Ecosystem> {
        Arc::new(Ecosystem::generate(EcosystemConfig {
            seed,
            domain_count: domains,
            timeline: Timeline::truncated(weeks),
        }))
    }

    fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
        assert_eq!(a.timeline, b.timeline);
        assert_eq!(a.ranks, b.ranks);
        assert_eq!(a.filtered_out, b.filtered_out);
        assert_eq!(a.weeks.len(), b.weeks.len());
        for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
            assert_eq!(wa.week, wb.week);
            assert_eq!(wa.date, wb.date);
            assert_eq!(wa.summaries, wb.summaries);
            assert_eq!(wa.pages, wb.pages);
            assert_eq!(wa.carried_forward, wb.carried_forward);
        }
    }

    #[test]
    fn store_round_trip_preserves_the_dataset() {
        let eco = small_eco(21, 120, 6);
        let original = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("roundtrip");
        original.save_store(&path).expect("save");
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&original, &restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn store_is_much_smaller_than_json() {
        let data = testkit::small();
        let path = temp_store("size");
        data.save_store(&path).expect("save");
        let store_len = std::fs::metadata(&path).expect("stat").len();
        let json_len = data.to_json().len() as u64;
        assert!(
            store_len * 4 < json_len,
            "store {store_len} bytes vs JSON {json_len} bytes"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn streaming_json_export_matches_materialized_to_json() {
        let eco = small_eco(23, 90, 6);
        let data = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("export-json");
        data.save_store(&path).expect("save");

        // Finalized store: one streaming pass, byte-identical output.
        let reader = AnyReader::open(&path).expect("open");
        let mut streamed = Vec::new();
        export_json(&reader, &mut streamed).expect("export");
        let materialized = Dataset::load_store(&path).expect("load").to_json();
        assert_eq!(String::from_utf8(streamed).expect("utf8"), materialized);

        // Unfinalized (checkpoint) store: the verdict is recomputed and
        // the bytes still match the materialized load.
        let raw = temp_store("export-json-raw");
        let mut writer =
            StoreWriter::create(&raw, genesis_for(&data.timeline, &eco.domain_names()))
                .expect("create");
        for snapshot in &data.weeks {
            writer
                .commit_week(&snapshot_to_week(snapshot))
                .expect("commit");
        }
        drop(writer);
        let reader = AnyReader::open(&raw).expect("open raw");
        assert!(reader.filtered_out().is_none(), "store must be unfinalized");
        let mut streamed = Vec::new();
        export_json(&reader, &mut streamed).expect("export raw");
        let materialized = Dataset::load_store(&raw).expect("load raw").to_json();
        assert_eq!(String::from_utf8(streamed).expect("utf8"), materialized);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&raw);
    }

    #[test]
    fn json_export_bytes_are_pinned() {
        let jquery = PageAnalysis {
            detections: vec![
                Detection {
                    library: LibraryId::JQuery,
                    version: Some(Version::parse("1.12.4").expect("version")),
                    inclusion: DetectedInclusion::External {
                        host: "code.jquery.com".to_string(),
                    },
                    integrity: true,
                    crossorigin: Some("anonymous".to_string()),
                    url: "https://code.jquery.com/jquery.js?q=\"x\"".to_string(),
                },
                Detection {
                    library: LibraryId::Bootstrap,
                    version: None,
                    inclusion: DetectedInclusion::Internal,
                    integrity: false,
                    crossorigin: None,
                    url: String::new(),
                },
            ],
            wordpress: Some(Some(Version::parse("5.6-rc.1").expect("version"))),
            flash: vec![FlashDetection {
                swf_url: "/movie.swf".to_string(),
                allow_script_access: Some("always".to_string()),
            }],
            resource_types: vec![ResourceType::JavaScript, ResourceType::Flash],
            github_scripts: vec![ExternalScript {
                host: "x.github.io".to_string(),
                url: "https://x.github.io/a.js".to_string(),
                integrity: false,
                crossorigin: None,
            }],
            external_scripts: 2,
            external_scripts_without_integrity: 1,
            crossorigin_values: vec!["anonymous".to_string()],
        };
        let bare = PageAnalysis {
            wordpress: Some(None),
            ..PageAnalysis::default()
        };
        let summary = |status, body_len| FetchSummary { status, body_len };
        let week = |week: usize, b_status, carried: &[&str]| WeekSnapshot {
            week,
            date: Date::new(2018, 3, 5).add_days(7 * week as i32),
            pages: [("a.example", &jquery), ("b.example", &bare)]
                .into_iter()
                .map(|(domain, page)| (domain.to_string(), page.clone()))
                .collect(),
            summaries: [
                ("a.example", summary(Some(200), 5000)),
                (
                    "b.example",
                    summary(Some(b_status), 900 * usize::from(b_status == 200)),
                ),
                ("c.example", summary(None, 0)),
            ]
            .into_iter()
            .map(|(domain, s)| (domain.to_string(), s))
            .collect(),
            carried_forward: carried.iter().map(|d| d.to_string()).collect(),
        };
        let data = Dataset {
            timeline: Timeline {
                start: Date::new(2018, 3, 5),
                weeks: 2,
            },
            ranks: [("a.example", 1), ("b.example", 2), ("c.example", 3)]
                .into_iter()
                .map(|(domain, rank)| (domain.to_string(), rank))
                .collect(),
            weeks: vec![week(0, 200, &[]), week(1, 503, &["b.example"])],
            filtered_out: vec!["c.example".to_string()],
        };
        let path = temp_store("golden");
        data.save_store(&path).expect("save");
        let mut exported = Vec::new();
        export_json(&AnyReader::open(&path).expect("open"), &mut exported).expect("export");
        let _ = std::fs::remove_file(&path);

        let page_a = concat!(
            r#"{"detections":[{"library":"JQuery","version":{"parts":[1,12,4],"pre":null},"#,
            r#""inclusion":{"External":{"host":"code.jquery.com"}},"integrity":true,"#,
            r#""crossorigin":"anonymous","url":"https://code.jquery.com/jquery.js?q=\"x\""},"#,
            r#"{"library":"Bootstrap","version":null,"inclusion":"Internal","integrity":false,"#,
            r#""crossorigin":null,"url":""}],"#,
            r#""wordpress":{"detected":true,"version":{"parts":[5,6],"pre":"rc.1"}},"#,
            r#""flash":[{"swf_url":"/movie.swf","allow_script_access":"always"}],"#,
            r#""resource_types":["JavaScript","Flash"],"#,
            r#""github_scripts":[{"host":"x.github.io","url":"https://x.github.io/a.js","#,
            r#""integrity":false,"crossorigin":null}],"#,
            r#""external_scripts":2,"external_scripts_without_integrity":1,"#,
            r#""crossorigin_values":["anonymous"]}"#,
        );
        let page_b = concat!(
            r#"{"detections":[],"wordpress":{"detected":true,"version":null},"flash":[],"#,
            r#""resource_types":[],"github_scripts":[],"external_scripts":0,"#,
            r#""external_scripts_without_integrity":0,"crossorigin_values":[]}"#,
        );
        let expected = format!(
            concat!(
                r#"{{"timeline":{{"start":{{"days":17595}},"weeks":2}},"#,
                r#""ranks":{{"a.example":1,"b.example":2,"c.example":3}},"weeks":["#,
                r#"{{"week":0,"date":{{"days":17595}},"#,
                r#""pages":{{"a.example":{a},"b.example":{b}}},"#,
                r#""summaries":{{"a.example":{{"status":200,"body_len":5000}},"#,
                r#""b.example":{{"status":200,"body_len":900}}}},"carried_forward":[]}},"#,
                r#"{{"week":1,"date":{{"days":17602}},"#,
                r#""pages":{{"a.example":{a},"b.example":{b}}},"#,
                r#""summaries":{{"a.example":{{"status":200,"body_len":5000}},"#,
                r#""b.example":{{"status":503,"body_len":0}}}},"carried_forward":["b.example"]}}"#,
                r#"],"filtered_out":["c.example"]}}"#,
            ),
            a = page_a,
            b = page_b,
        );
        assert_eq!(String::from_utf8(exported).expect("utf8"), expected);
    }

    #[test]
    fn checkpointed_collection_matches_plain_collection() {
        let eco = small_eco(31, 100, 6);
        let plain = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("checkpointed");
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_eq!(outcome.weeks_recovered, 0);
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        // The store on disk is the finalized run; loading it restores the
        // reference dataset.
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&plain, &restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_crawls_only_missing_weeks() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("resume");
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        {
            let mut collector = WeekCollector::new(&eco, CollectConfig::default(), &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(4) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let telemetry = Telemetry::new();
        let outcome = collect_checkpointed(&eco, CollectConfig::default(), &telemetry, &path, true)
            .expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("store.weeks_recovered_total"), Some(4));
        assert_eq!(snap.counter("store.segments_total"), Some(2));
        // Only the missing weeks were fetched over the network.
        assert_eq!(snap.counter("net.fetches_total"), Some(100 * 2));
        // The healed store is identical to an uninterrupted collection.
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        assert_datasets_equal(&plain, &Dataset::load_store(&path).expect("load"));
        // A second resume finds the finalized store, crawls nothing, and
        // returns the stored verdict.
        let outcome = collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
        )
        .expect("resume finalized");
        assert_eq!(outcome.weeks_crawled, 0);
        assert_eq!(outcome.weeks_recovered, 6);
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn carried_forward_flags_survive_the_store() {
        let eco = small_eco(61, 150, 8);
        let config = CollectConfig {
            faults: FaultPlan {
                transient_fail_permille: 200,
                heal_after_attempts: 9,
                ..FaultPlan::none()
            },
            retry: RetryPolicy::standard(2),
            carry_forward: true,
            ..CollectConfig::default()
        };
        let original = testkit::collect(&eco, config);
        assert!(
            original.carried_forward_total() > 0,
            "fixture must exercise carry-forward"
        );
        let path = temp_store("carry");
        original.save_store(&path).expect("save");
        let restored = Dataset::load_store(&path).expect("load");
        assert_datasets_equal(&original, &restored);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_matches_uninterrupted_under_faults_and_retries() {
        let eco = small_eco(62, 120, 6);
        let config = CollectConfig {
            faults: FaultPlan::hostile(62),
            retry: RetryPolicy::standard(2),
            breaker: Some(BreakerConfig::default()),
            carry_forward: true,
            ..CollectConfig::default()
        };
        let plain = testkit::collect(&eco, config);
        let path = temp_store("resilient-resume");
        let telemetry = Telemetry::new();
        // Kill after week 2: breaker and carry-forward state must be
        // replayed from the store for the resumed weeks to match.
        {
            let mut collector = WeekCollector::new(&eco, config, &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                StoreWriter::create(&path, genesis_for(&timeline, &eco.domain_names()))
                    .expect("create");
            for (week, date) in timeline.iter().take(3) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &path, true).expect("resume");
        assert_eq!(outcome.weeks_recovered, 3);
        assert_eq!(outcome.weeks_crawled, 3);
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        assert_datasets_equal(&plain, &Dataset::load_store(&path).expect("load"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_a_mismatched_ecosystem() {
        let eco = small_eco(31, 100, 6);
        let path = temp_store("mismatch");
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect");
        let other = small_eco(32, 100, 6);
        let err = collect_checkpointed(
            &other,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            true,
        )
        .expect_err("different seed must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn delta_encoding_pays_off_on_real_data() {
        let eco = small_eco(41, 150, 8);
        let path = temp_store("delta");
        let telemetry = Telemetry::new();
        collect_checkpointed(&eco, CollectConfig::default(), &telemetry, &path, false)
            .expect("collect");
        let snap = telemetry.snapshot();
        let hits = snap.counter("store.delta_hits_total").unwrap_or(0);
        let misses = snap.counter("store.delta_misses_total").unwrap_or(0);
        // Most pages do not change in a typical week.
        assert!(
            hits > misses,
            "delta hit-rate should dominate: {hits} hits / {misses} misses"
        );
        let raw = snap.counter("store.raw_bytes_total").unwrap_or(0);
        let encoded = snap.counter("store.encoded_bytes_total").unwrap_or(0);
        assert!(encoded < raw / 2, "encoded {encoded} raw {raw}");
        assert!(snap.histogram("store.commit_latency_ns").is_some());
        let _ = std::fs::remove_file(&path);
    }

    fn temp_store_dir(tag: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "webvuln-storeio-{}-{tag}.wvshards",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&path);
        path
    }

    #[test]
    fn sharded_checkpointed_collection_matches_plain_collection() {
        let eco = small_eco(31, 100, 6);
        let plain = testkit::collect(&eco, CollectConfig::default());
        let dir = temp_store_dir("sharded");
        let config = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &dir, false).expect("collect");
        assert_eq!(outcome.weeks_crawled, 6);
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        // The store on disk is a directory; loading it through the
        // layout-agnostic path restores the same dataset.
        assert!(dir.is_dir(), "sharded store must be a directory");
        let restored = Dataset::load_store(&dir).expect("load");
        assert_datasets_equal(&plain, &restored);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_resume_crawls_only_missing_weeks() {
        let eco = small_eco(31, 100, 6);
        let dir = temp_store_dir("sharded-resume");
        let config = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        let telemetry = Telemetry::new();
        // Simulate a run killed after week 3: commit 4 weeks by hand.
        {
            let mut collector = WeekCollector::new(&eco, config, &telemetry);
            let timeline = *eco.timeline();
            let mut writer =
                ShardedStoreWriter::create(&dir, genesis_for(&timeline, &eco.domain_names()), 3)
                    .expect("create");
            for (week, date) in timeline.iter().take(4) {
                let snap = collector.collect_week(week, date, &telemetry);
                writer
                    .commit_week(&snapshot_to_week(&snap))
                    .expect("commit");
            }
        }
        let outcome =
            collect_checkpointed(&eco, config, &Telemetry::new(), &dir, true).expect("resume");
        assert_eq!(outcome.weeks_recovered, 4);
        assert_eq!(outcome.weeks_crawled, 2);
        let plain = testkit::collect(&eco, CollectConfig::default());
        assert_eq!(outcome.filtered_out, plain.filtered_out);
        assert_datasets_equal(&plain, &Dataset::load_store(&dir).expect("load"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_a_shard_count_mismatch() {
        let eco = small_eco(31, 100, 4);
        let dir = temp_store_dir("shard-mismatch");
        let three = CollectConfig {
            shards: 3,
            ..CollectConfig::default()
        };
        collect_checkpointed(&eco, three, &Telemetry::new(), &dir, false).expect("collect");
        let two = CollectConfig {
            shards: 2,
            ..CollectConfig::default()
        };
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &dir, true)
            .expect_err("shard-count change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("3 shards"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);

        // A single-file store cannot be resumed as a sharded study.
        let path = temp_store("shard-mismatch-single");
        collect_checkpointed(
            &eco,
            CollectConfig::default(),
            &Telemetry::new(),
            &path,
            false,
        )
        .expect("collect single");
        let err = collect_checkpointed(&eco, two, &Telemetry::new(), &path, true)
            .expect_err("layout change must be rejected");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
        assert!(err.to_string().contains("single file"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn collection_without_a_checkpoint_store_is_rejected() {
        let eco = small_eco(1, 10, 2);
        let err = crate::dataset::Collector::new()
            .run(&eco)
            .expect_err("no store to collect into");
        assert!(matches!(err, StoreError::Mismatch(_)), "{err}");
    }

    #[test]
    fn filter_window_matches_the_batch_filter_rule() {
        // The streaming filter state (candidate set + trailing window)
        // must reproduce `inaccessible_domains` exactly, including the
        // sorted order of the verdict.
        let eco = small_eco(64, 120, 8);
        let config = CollectConfig {
            faults: FaultPlan::hostile(64),
            ..CollectConfig::default()
        };
        let telemetry = Telemetry::new();
        let mut collector = WeekCollector::new(&eco, config, &telemetry);
        let mut window = FilterWindow::new();
        let mut weekly = Vec::new();
        let timeline = *eco.timeline();
        for (week, date) in timeline.iter() {
            let snap = collector.collect_week(week, date, &telemetry);
            window.absorb(&snap.summaries);
            weekly.push(snap.summaries.clone());
        }
        let batch: Vec<String> = inaccessible_domains(&weekly, webvuln_net::filter::FINAL_WEEKS)
            .into_iter()
            .collect();
        assert_eq!(window.verdict(), batch);
        // Degenerate input: no weeks absorbed, no verdict.
        assert!(FilterWindow::new().verdict().is_empty());
    }

    #[test]
    fn checkpointed_collection_commits_the_reference_under_hostile_faults() {
        let eco = small_eco(77, 100, 6);
        let config = |concurrency| CollectConfig {
            concurrency,
            faults: FaultPlan::hostile(77),
            ..CollectConfig::default()
        };
        let reference = testkit::collect(&eco, config(8));
        let one_path = temp_store("hostile-t1");
        let one = collect_checkpointed(&eco, config(1), &Telemetry::new(), &one_path, false)
            .expect("one thread");
        let many_path = temp_store("hostile-t8");
        let many = collect_checkpointed(&eco, config(8), &Telemetry::new(), &many_path, false)
            .expect("eight threads");
        // Same committed bytes at every thread count, and the store
        // materializes back to the in-memory reference with its verdict.
        assert_eq!(
            std::fs::read(&one_path).expect("one-thread bytes"),
            std::fs::read(&many_path).expect("eight-thread bytes"),
        );
        assert_eq!(many.weeks_crawled, 6);
        assert_eq!(one.filtered_out, reference.filtered_out);
        assert_eq!(many.filtered_out, reference.filtered_out);
        let restored = Dataset::load_store(&many_path).expect("load");
        assert_datasets_equal(&reference, &restored);
        let _ = std::fs::remove_file(&one_path);
        let _ = std::fs::remove_file(&many_path);
    }

    #[test]
    fn sharded_collection_bytes_are_identical_across_threads() {
        let eco = small_eco(78, 90, 5);
        let config = |concurrency| CollectConfig {
            concurrency,
            shards: 3,
            ..CollectConfig::default()
        };
        let one_dir = temp_store_dir("shards-t1");
        let one = collect_checkpointed(&eco, config(1), &Telemetry::new(), &one_dir, false)
            .expect("one thread");
        let many_dir = temp_store_dir("shards-t8");
        let many = collect_checkpointed(&eco, config(8), &Telemetry::new(), &many_dir, false)
            .expect("eight threads");
        assert_eq!(one.filtered_out, many.filtered_out);
        for name in [
            "MANIFEST",
            "shard-000.wvstore",
            "shard-001.wvstore",
            "shard-002.wvstore",
        ] {
            assert_eq!(
                std::fs::read(one_dir.join(name)).expect("one-thread shard"),
                std::fs::read(many_dir.join(name)).expect("eight-thread shard"),
                "{name}"
            );
        }
        let _ = std::fs::remove_dir_all(&one_dir);
        let _ = std::fs::remove_dir_all(&many_dir);
    }

    #[test]
    fn streaming_matches_loading() {
        let eco = small_eco(21, 80, 4);
        let original = testkit::collect(&eco, CollectConfig::default());
        let path = temp_store("stream");
        original.save_store(&path).expect("save");
        let reader = StoreReader::open(&path).expect("open");
        let streamed: Vec<WeekSnapshot> = stream_snapshots(&reader)
            .collect::<Result<_, _>>()
            .expect("stream");
        assert_eq!(streamed.len(), original.weeks.len());
        for (a, b) in original.weeks.iter().zip(&streamed) {
            assert_eq!(a.summaries, b.summaries);
            assert_eq!(a.pages, b.pages);
        }
        let _ = std::fs::remove_file(&path);
    }
}
