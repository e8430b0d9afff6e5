//! Chaos integration for the causal tracer: a hostile-profile study must
//! export a byte-identical canonical trace at every thread count, and
//! every quarantined task failure must carry its flight-recorder tail.
//!
//! Tracing is pure observation — the same run untraced commits the
//! same dataset — so these tests also pin the "never changes results"
//! contract at the full-pipeline level.

use std::path::PathBuf;
use std::sync::Arc;
use webvuln::analysis::Dataset;
use webvuln::core::{full_report, Pipeline, StudyConfig, TraceMode};
use webvuln::exec::{Executor, SuperviseConfig};
use webvuln::net::{FaultPlan, RetryPolicy};
use webvuln::trace::Tracer;
use webvuln::webgen::Timeline;

fn temp_store(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "webvuln-tracedet-{}-{tag}.wvstore",
        std::process::id()
    ))
}

/// Reads back what a checkpointed study committed, then removes the store.
fn take_store(store: &PathBuf) -> Dataset {
    let dataset = Dataset::load_store(store).expect("load study store");
    let _ = std::fs::remove_file(store);
    dataset
}

fn hostile_pipeline(threads: usize) -> Pipeline<'static> {
    Pipeline::new(StudyConfig::quick())
        .domains(150)
        .timeline(Timeline::truncated(4))
        .faults(FaultPlan::hostile(4_242))
        .retry(RetryPolicy::standard(2))
        .threads(threads)
}

#[test]
fn hostile_traced_study_is_byte_identical_across_thread_counts() {
    let traced = |threads: usize| {
        let store = temp_store(&format!("t{threads}"));
        let results = hostile_pipeline(threads)
            .trace(TraceMode::Full)
            .checkpoint(&store)
            .run()
            .expect("study");
        (
            results.trace.clone().expect("trace enabled"),
            results,
            take_store(&store),
        )
    };
    let (t1, r1, d1) = traced(1);
    let (t2, _, _) = traced(2);
    let (t8, _, d8) = traced(8);

    // The canonical event sets — not just summaries — are identical, and
    // so is the exported Chrome trace, byte for byte.
    assert_eq!(t1, t2);
    assert_eq!(t1, t8);
    assert_eq!(t1.to_chrome_json(), t8.to_chrome_json());

    // The trace covers all five study phases even under hostile faults.
    for phase in ["generate", "crawl", "fingerprint", "join", "analyze"] {
        assert!(
            t1.events.iter().any(|e| e.phase == phase),
            "phase {phase} missing from trace"
        );
    }
    // Cost attribution survived the chaos: patterns charged VM steps,
    // domains charged fetch lifecycles.
    assert!(t1.patterns.iter().any(|(_, s)| s.vm_steps > 0));
    assert!(t1.domains.iter().any(|(_, s)| s.attempts > 0));
    // Hostile faults actually exercised the failure lifecycle events.
    assert!(t1.domains.iter().any(|(_, s)| s.errors > 0));

    // Observation never changes the observed: the traced datasets agree
    // with each other and the report's cost-centers section is stable.
    assert_eq!(d1.weeks.len(), d8.weeks.len(), "week counts agree");
    let report = full_report(&r1);
    assert!(report.contains("Top cost centers"), "{report}");
}

#[test]
fn tracing_never_changes_the_dataset() {
    let traced_store = temp_store("traced");
    hostile_pipeline(2)
        .trace(TraceMode::Full)
        .checkpoint(&traced_store)
        .run()
        .expect("traced study");
    let traced = take_store(&traced_store);
    let untraced_store = temp_store("untraced");
    let results = hostile_pipeline(2)
        .checkpoint(&untraced_store)
        .run()
        .expect("untraced study");
    let untraced = take_store(&untraced_store);
    assert!(results.trace.is_none());
    for (a, b) in traced.weeks.iter().zip(&untraced.weeks) {
        assert_eq!(a.pages, b.pages, "week {} pages diverge", a.week);
        assert_eq!(a.summaries, b.summaries, "week {} summaries", a.week);
    }
    assert_eq!(traced.filtered_out, untraced.filtered_out);
}

#[test]
fn quarantined_failures_carry_flight_recorder_tails() {
    // Ring mode is the always-affordable tier: no export, but every
    // supervised quarantine still snapshots the task's last events.
    let tracer = Tracer::new(TraceMode::Ring);
    let _guard = tracer.install();
    let items: Vec<u64> = (0..64).collect();
    let executor = Arc::new(Executor::new(4));
    let (out, _stats, failures) =
        executor.map_supervised(&items, SuperviseConfig::new().max_failures(64), |n| {
            webvuln::trace::emit(
                "item.seen",
                "",
                &format!("n={n}"),
                10,
                webvuln::trace::Sink::RingOnly,
            );
            if n % 7 == 3 {
                panic!("injected failure on item {n}");
            }
            *n
        });
    assert!(out.iter().filter(|o| o.is_none()).count() >= 8);
    assert!(!failures.is_empty());
    for failure in &failures {
        assert!(
            !failure.trace_tail.is_empty(),
            "quarantine record for item {} lost its flight-recorder tail",
            failure.index
        );
        assert!(
            failure.trace_tail.iter().any(|l| l.contains("item.seen")),
            "tail misses the task's own events: {:?}",
            failure.trace_tail
        );
    }
}
