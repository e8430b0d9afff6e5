//! # webvuln-bench
//!
//! Shared fixtures and the timing helper for the benchmark suites
//! (`harness = false` mains; run with `cargo bench -p webvuln-bench`,
//! optionally followed by `-- NAME` to run only the benchmarks whose name
//! contains `NAME`):
//!
//! * `benches/substrates.rs` — micro-benchmarks of the regex engine, HTML
//!   parser, HTTP codec, fingerprint engine, and crawler concurrency.
//! * `benches/experiments.rs` — one benchmark per paper table/figure,
//!   printing the regenerated artifact once and timing its computation
//!   over a shared collected dataset.
//! * `benches/ablations.rs` — the DESIGN.md ablations (fingerprint
//!   sources, inaccessibility filter, pipeline scale).
//! * `benches/store.rs`, `benches/resilience.rs`, `benches/exec.rs` — the
//!   snapshot store, the fault-free retry path, and executor scaling.

#![forbid(unsafe_code)]

use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use webvuln_analysis::dataset::{CollectConfig, Dataset};
use webvuln_telemetry::Telemetry;
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Domains in the shared bench dataset.
pub const BENCH_DOMAINS: usize = 800;

/// The shared full-timeline dataset used by the experiment benches
/// (collected once per process; ~201 weekly snapshots of 800 domains).
pub fn bench_dataset() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        eprintln!("[bench] collecting shared dataset: {BENCH_DOMAINS} domains x 201 weeks …");
        let eco = bench_ecosystem();
        let started = std::time::Instant::now();
        let data =
            Dataset::collect(eco, CollectConfig::default(), &Telemetry::new()).expect("collection");
        eprintln!("[bench] dataset ready in {:.1?}", started.elapsed());
        data
    })
}

/// The ecosystem behind [`bench_dataset`].
pub fn bench_ecosystem() -> &'static Arc<Ecosystem> {
    static ECO: OnceLock<Arc<Ecosystem>> = OnceLock::new();
    ECO.get_or_init(|| {
        Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 2_023,
            domain_count: BENCH_DOMAINS,
            timeline: Timeline::paper(),
        }))
    })
}

/// A page corpus for parser/fingerprint micro-benchmarks: one rendered
/// landing page per live domain at week 100.
pub fn bench_pages() -> &'static Vec<(String, String)> {
    static PAGES: OnceLock<Vec<(String, String)>> = OnceLock::new();
    PAGES.get_or_init(|| {
        let eco = bench_ecosystem();
        eco.domain_names()
            .into_iter()
            .filter_map(|name| match eco.page(&name, 100) {
                webvuln_webgen::PageOutcome::Page(html) => Some((name, html)),
                _ => None,
            })
            .collect()
    })
}

/// Work done by one iteration of a benchmark, for the throughput column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// No throughput column.
    None,
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Items (domains, domain-weeks, …) processed per iteration.
    Elements(u64),
}

/// Samples timed per benchmark.
const SAMPLES: u32 = 10;
/// Each sample batches enough iterations to last about this long.
const SAMPLE_TARGET: Duration = Duration::from_millis(20);

/// Times `routine` and prints one line: the median time per iteration
/// over [`SAMPLES`] samples, the fastest and slowest sample, and the
/// throughput at the median. Skipped when the command line names a
/// filter (the first argument not starting with `-`) that `name` does
/// not contain.
pub fn bench<T>(name: &str, throughput: Throughput, mut routine: impl FnMut() -> T) {
    let filter = std::env::args().skip(1).find(|arg| !arg.starts_with('-'));
    if filter.is_some_and(|filter| !name.contains(&filter)) {
        return;
    }
    let warmup = Instant::now();
    black_box(routine());
    let once = warmup.elapsed().max(Duration::from_nanos(1));
    let iters = (SAMPLE_TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut per_iter: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed() / iters
        })
        .collect();
    per_iter.sort();
    let median = per_iter[per_iter.len() / 2];
    let rate = |units: u64| units as f64 / median.as_secs_f64().max(1e-12);
    let throughput = match throughput {
        Throughput::None => String::new(),
        Throughput::Bytes(bytes) => format!("  {:.1} MiB/s", rate(bytes) / (1024.0 * 1024.0)),
        Throughput::Elements(items) => format!("  {:.0} elem/s", rate(items)),
    };
    println!(
        "{name:<48} {median:>12.3?}/iter  [{:.3?} .. {:.3?}]{throughput}",
        per_iter[0],
        per_iter[per_iter.len() - 1],
    );
}
