//! Store-backed study vs in-memory reference: every study commits each
//! week to its store, drops it, and folds the store back through the
//! mergeable accumulators. The rendered report must match the in-memory
//! reference — [`Dataset::collect`] holding the whole timeline, analysed
//! by [`analyze`] — byte for byte, and the store must decode to the
//! reference's weeks, whatever the thread or shard count, even under the
//! hostile fault profile with carry-forward.
//!
//! The merge-level invariants (associativity, `Default` as identity)
//! are pinned by unit tests in `webvuln_analysis::accum`; this suite
//! pins the end-to-end contract.

use std::path::Path;
use std::sync::{Arc, OnceLock};
use webvuln::analysis::Dataset;
use webvuln::core::{analyze, full_report, Pipeline, StudyConfig, StudyResults, Telemetry};
use webvuln::net::FaultPlan;
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

fn config() -> StudyConfig {
    StudyConfig {
        seed: 99,
        domain_count: 150,
        timeline: Timeline::truncated(8),
        faults: FaultPlan::hostile(99),
        carry_forward: true,
        ..StudyConfig::default()
    }
}

fn temp(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("webvuln-streameq-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(&path);
    path
}

/// The report minus the run-dependent telemetry tail (wall-clock phase
/// timings differ between runs; everything above them must not).
fn report_prefix(results: &StudyResults) -> String {
    full_report(results)
        .split("Run telemetry")
        .next()
        .expect("report")
        .to_string()
}

struct Reference {
    dataset: Dataset,
    report: String,
}

/// The in-memory reference run, collected once per test binary.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let config = config();
        let ecosystem = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: config.seed,
            domain_count: config.domain_count,
            timeline: config.timeline,
        }));
        let dataset = Dataset::collect(&ecosystem, config.collect_config(), &Telemetry::new())
            .expect("reference collection");
        let report = report_prefix(&analyze(config, &dataset));
        assert!(!dataset.weeks.is_empty(), "reference holds every week");
        Reference { dataset, report }
    })
}

/// The committed store decodes to the reference's filtered weeks.
fn assert_store_matches_reference(store: &Path, label: &str) {
    let reference = &reference().dataset;
    let restored = Dataset::load_store(store).expect("load");
    assert_eq!(restored.ranks, reference.ranks, "{label}");
    assert_eq!(restored.filtered_out, reference.filtered_out, "{label}");
    assert_eq!(restored.weeks.len(), reference.weeks.len(), "{label}");
    for (a, b) in restored.weeks.iter().zip(&reference.weeks) {
        assert_eq!(a.pages, b.pages, "{label} week {}", a.week);
        assert_eq!(a.summaries, b.summaries, "{label} week {}", a.week);
        assert_eq!(
            a.carried_forward, b.carried_forward,
            "{label} week {}",
            a.week
        );
    }
}

#[test]
fn streaming_report_and_store_are_byte_identical_across_threads() {
    let mut first_bytes: Option<Vec<u8>> = None;
    for threads in [1, 2, 8] {
        let store = temp(&format!("t{threads}.wvstore"));
        let results = Pipeline::new(config())
            .threads(threads)
            .checkpoint(&store)
            .run()
            .expect("study");
        assert_eq!(
            report_prefix(&results),
            reference().report,
            "threads={threads}"
        );
        assert_store_matches_reference(&store, &format!("threads={threads}"));
        let bytes = std::fs::read(&store).expect("store bytes");
        match &first_bytes {
            None => first_bytes = Some(bytes),
            Some(first) => assert_eq!(&bytes, first, "threads={threads}"),
        }
        let _ = std::fs::remove_file(&store);
    }
}

#[test]
fn streaming_report_is_byte_identical_across_shard_counts() {
    for shards in [1, 4, 16] {
        let store = temp(&format!("s{shards}"));
        let results = Pipeline::new(config())
            .threads(8)
            .shards(shards)
            .checkpoint(&store)
            .run()
            .expect("study");
        assert_eq!(
            report_prefix(&results),
            reference().report,
            "shards={shards}"
        );
        assert_store_matches_reference(&store, &format!("shards={shards}"));
        if shards == 1 {
            let _ = std::fs::remove_file(&store);
        } else {
            let _ = std::fs::remove_dir_all(&store);
        }
    }
}
