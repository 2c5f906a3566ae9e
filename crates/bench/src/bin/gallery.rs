//! Workload-gallery runner: measures every `gcr_apps::gallery()` kernel
//! through the default realistic hierarchy (4-way 8K L1 over an FA 64K
//! L2) under the VM engine and writes the combined report set to
//! `results/gallery.json` plus one `results/gallery/<kernel>.json` per
//! kernel.
//!
//! With `--check`, each per-kernel report is also diffed against its
//! golden file under `tests/golden/gallery/` and the run exits nonzero on
//! drift — this is what CI's `gallery-smoke` job runs, uploading the
//! freshly produced `results/gallery/` as an artifact on failure so the
//! diff can be reviewed (and blessed) without reproducing locally.

use gcr_bench::arg;
use gcr_bench::gallery::{run_gallery, GALLERY_HIERARCHY};
use std::time::Instant;

const USAGE: &str = "usage: gallery [--threads N] [--json PATH] [--check]";

fn main() {
    let threads: usize = arg(USAGE, "--threads").unwrap_or(0);
    let threads = if threads == 0 { gcr_par::thread_count() } else { threads };
    let json_path: String = arg(USAGE, "--json").unwrap_or_else(|| "results/gallery.json".into());
    let check = std::env::args().any(|a| a == "--check");

    println!("gallery: {GALLERY_HIERARCHY} on {threads} threads (VM engine)");
    let start = Instant::now();
    let set = match run_gallery(threads) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("gallery run failed: {e}");
            std::process::exit(2);
        }
    };
    println!("{} kernels measured in {:.2?}", set.reports.len(), start.elapsed());

    let dir = std::path::Path::new(&json_path).parent().map(|p| p.join("gallery"));
    let mut drifted = Vec::new();
    for (kernel, report) in gcr_apps::gallery().iter().zip(&set.reports) {
        let json = report.clone().normalized().to_json();
        if let Some(dir) = &dir {
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("{}.json", kernel.name));
            if let Err(e) = std::fs::write(&path, &json) {
                eprintln!("could not write {}: {e}", path.display());
            }
        }
        if check {
            let golden =
                format!("{}/tests/golden/gallery/{}.json", env!("CARGO_MANIFEST_DIR"), kernel.name);
            match std::fs::read_to_string(&golden) {
                Ok(want) if want == json => println!("  {:<12} ok", kernel.name),
                Ok(_) => {
                    println!("  {:<12} DRIFTED from {golden}", kernel.name);
                    drifted.push(kernel.name);
                }
                Err(e) => {
                    println!("  {:<12} golden unreadable ({e})", kernel.name);
                    drifted.push(kernel.name);
                }
            }
        }
    }

    match set.write(&json_path) {
        Ok(()) => println!("JSON report set written to {json_path}"),
        Err(e) => eprintln!("could not write {json_path}: {e}"),
    }
    if !drifted.is_empty() {
        eprintln!(
            "{} kernel(s) drifted from their goldens: {}\nbless with \
             GCR_BLESS=1 cargo test -p gcr-bench --test gallery_golden",
            drifted.len(),
            drifted.join(", ")
        );
        std::process::exit(1);
    }
}
