//! Snapshot-store benchmarks: encode and decode throughput of the binary
//! delta-encoded store, plus the compression record — delta hit-rate and
//! the JSON-vs-store size ratio — printed once per run.

use std::hint::black_box;
use std::sync::{Arc, OnceLock};
use webvuln_analysis::dataset::{CollectConfig, Dataset};
use webvuln_bench::{bench, Throughput};
use webvuln_store::AnyReader;
use webvuln_telemetry::Telemetry;
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

/// A mid-sized longitudinal dataset: big enough that delta encoding has
/// week-over-week stability to exploit, small enough to collect quickly.
fn store_dataset() -> &'static Dataset {
    static DATA: OnceLock<Dataset> = OnceLock::new();
    DATA.get_or_init(|| {
        let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
            seed: 2_023,
            domain_count: 300,
            timeline: Timeline::truncated(30),
        }));
        Dataset::collect(&eco, CollectConfig::default(), &Telemetry::new()).expect("collection")
    })
}

/// The dataset saved to a store file once per process (decode input).
fn saved_store() -> &'static std::path::PathBuf {
    static PATH: OnceLock<std::path::PathBuf> = OnceLock::new();
    PATH.get_or_init(|| {
        let path =
            std::env::temp_dir().join(format!("webvuln-bench-{}.wvstore", std::process::id()));
        store_dataset().save_store(&path).expect("save bench store");
        path
    })
}

fn store_encode() {
    let data = store_dataset();
    let path =
        std::env::temp_dir().join(format!("webvuln-bench-enc-{}.wvstore", std::process::id()));
    let bytes = {
        data.save_store(&path).expect("probe save");
        std::fs::metadata(&path).expect("probe size").len()
    };
    bench("store/store_encode", Throughput::Bytes(bytes), || {
        data.save_store(black_box(&path)).expect("save")
    });
    let _ = std::fs::remove_file(&path);
}

fn store_decode() {
    let path = saved_store();
    let bytes = std::fs::metadata(path).expect("store size").len();
    bench("store/store_decode", Throughput::Bytes(bytes), || {
        Dataset::load_store(black_box(path)).expect("load")
    });
}

fn store_delta_ratio() {
    let data = store_dataset();
    let path = saved_store();
    let reader = AnyReader::open(path).expect("open bench store");
    let (hits, total) = reader.delta_stats().expect("delta stats");
    let store_bytes = std::fs::metadata(path).expect("store size").len();
    let json_bytes = data.to_json().len() as u64;
    eprintln!(
        "\n=== store compression record ===\n\
         records:     {total} ({hits} back-references, {:.1}% delta hit-rate)\n\
         store size:  {store_bytes} bytes\n\
         JSON size:   {json_bytes} bytes\n\
         ratio:       {:.1}x smaller than JSON\n",
        100.0 * hits as f64 / total.max(1) as f64,
        json_bytes as f64 / store_bytes.max(1) as f64,
    );
    // Time the exhaustive delta walk itself (every back-reference resolved).
    bench("store_delta_ratio", Throughput::None, || {
        reader.delta_stats().expect("delta stats")
    });
}

fn main() {
    store_encode();
    store_decode();
    store_delta_ratio();
    let _ = std::fs::remove_file(saved_store());
}
