//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! fingerprint sources (URL-only vs URL+inline), the inaccessible-domain
//! filter, and end-to-end pipeline scale.

use std::hint::black_box;
use std::sync::Arc;
use webvuln_analysis::dataset::Collector;
use webvuln_bench::{bench, bench_ecosystem, bench_pages, Throughput};
use webvuln_fingerprint::Engine;
use webvuln_net::{inaccessible_domains, FetchSummary};
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Prints an ablation finding.
fn print_artifact(key: &str, render: impl FnOnce() -> String) {
    eprintln!("\n=== ablation: {key} ===\n{}", render());
}

/// Fingerprint sources: URL-only misses versions that only appear in
/// inline banners; quantify the loss and compare throughput.
fn ablation_fingerprint_sources() {
    let pages = bench_pages();
    let full = Engine::new();
    let url_only = Engine::url_only();

    print_artifact("fingerprint sources", || {
        let count = |engine: &Engine| -> (usize, usize) {
            let mut detections = 0;
            let mut versioned = 0;
            for (domain, html) in pages {
                let a = engine.analyze(html, domain);
                detections += a.detections.len();
                versioned += a.detections.iter().filter(|d| d.version.is_some()).count();
            }
            (detections, versioned)
        };
        let (fd, fv) = count(&full);
        let (ud, uv) = count(&url_only);
        format!(
            "full: {fd} detections ({fv} versioned); url-only: {ud} detections ({uv} versioned)"
        )
    });

    let total_bytes = Throughput::Bytes(pages.iter().map(|(_, h)| h.len() as u64).sum());
    for (name, engine) in [("full", &full), ("url_only", &url_only)] {
        bench(
            &format!("ablation_fingerprint_sources/{name}"),
            total_bytes,
            || {
                for (domain, html) in pages {
                    black_box(engine.analyze(html, domain));
                }
            },
        );
    }
}

/// The §4.1 filter: quantify how many domains it prunes (the bias the
/// paper says it removes) and its cost.
fn ablation_filtering() {
    // The dataset keeps per-week summaries post-filter, so the raw views
    // the filter sees are rebuilt from the ecosystem pages directly.
    let weekly = &{
        let eco = bench_ecosystem();
        let mut weeks = Vec::new();
        for (week, _) in eco.timeline().iter() {
            let mut map = std::collections::BTreeMap::new();
            for name in eco.domain_names() {
                let summary = match eco.page(&name, week) {
                    webvuln_webgen::PageOutcome::Page(body) => FetchSummary {
                        status: Some(200),
                        body_len: body.len(),
                    },
                    webvuln_webgen::PageOutcome::Blocked(body) => FetchSummary {
                        status: Some(200),
                        body_len: body.len(),
                    },
                    webvuln_webgen::PageOutcome::Forbidden => FetchSummary {
                        status: Some(403),
                        body_len: 0,
                    },
                    _ => FetchSummary {
                        status: None,
                        body_len: 0,
                    },
                };
                map.insert(name, summary);
            }
            weeks.push(map);
        }
        weeks
    };

    print_artifact("inaccessibility filter", || {
        let dropped = inaccessible_domains(weekly, 4);
        let total = weekly.last().map(|w| w.len()).unwrap_or(0);
        format!(
            "{} of {total} domains pruned by the 4-final-weeks rule",
            dropped.len()
        )
    });

    bench("ablation_filtering", Throughput::None, || {
        inaccessible_domains(black_box(weekly), 4)
    });
}

/// Pipeline scale: end-to-end collection cost — crawl, fingerprint and
/// store commit — as the domain count grows (short 20-week horizon to
/// keep the sweep tractable).
fn ablation_pipeline_scale() {
    let store = std::env::temp_dir().join(format!(
        "webvuln-bench-scale-{}.wvstore",
        std::process::id()
    ));
    for domains in [100usize, 200, 400] {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 9,
            domain_count: domains,
            timeline: Timeline::truncated(20),
        }));
        bench(
            &format!("ablation_pipeline_scale/{domains}"),
            Throughput::Elements((domains * 20) as u64),
            || {
                Collector::new()
                    .checkpoint(&store)
                    .run(&eco)
                    .expect("collection")
            },
        );
    }
    let _ = std::fs::remove_file(&store);
}

fn main() {
    ablation_fingerprint_sources();
    ablation_filtering();
    ablation_pipeline_scale();
}
