//! `gcr-fuzz` — the conformance fuzzing driver.
//!
//! ```text
//! gcr-fuzz [--seed S] [--iters K] [--oracle NAME]... [--write-failures DIR]
//! ```
//!
//! Runs `K` iterations per oracle (default 200, overridable with the
//! `GCR_FUZZ_ITERS` environment variable), in parallel across
//! `GCR_THREADS` workers. Every failure is shrunk to a minimal reproducer;
//! reproducers are written to `--write-failures DIR` (default
//! `fuzz-failures/`) as `.loop` files ready to be committed to
//! `crates/conform/corpus/`. Exits nonzero when any oracle failed.

use gcr_conform::{fuzz, Oracle, ALL_ORACLES};

struct Args {
    seed: u64,
    iters: u64,
    oracles: Vec<Oracle>,
    out_dir: std::path::PathBuf,
}

fn usage() -> ! {
    eprintln!(
        "usage: gcr-fuzz [--seed S] [--iters K] [--oracle {{all|engine|optimize|sweep|profile|bound|static|assoc}}]... [--write-failures DIR]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 1,
        iters: default_iters(),
        oracles: Vec::new(),
        out_dir: "fuzz-failures".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                args.seed = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--iters" => {
                args.iters = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
            }
            "--oracle" => match it.next().as_deref() {
                Some("all") => args.oracles.extend(ALL_ORACLES),
                Some(name) => match Oracle::from_name(name) {
                    Some(o) => args.oracles.push(o),
                    None => usage(),
                },
                None => usage(),
            },
            "--write-failures" => {
                args.out_dir = it.next().map(Into::into).unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if args.oracles.is_empty() {
        args.oracles.extend(ALL_ORACLES);
    }
    args.oracles.dedup();
    args
}

/// Default iteration count: `GCR_FUZZ_ITERS` when set and parsable, 200
/// otherwise.
fn default_iters() -> u64 {
    match std::env::var("GCR_FUZZ_ITERS") {
        Ok(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("warning: ignoring unparsable GCR_FUZZ_ITERS={v:?}");
                200
            }
        },
        Err(_) => 200,
    }
}

fn main() {
    // Fail fast on a bad GCR_EXEC: the env-selected oracles would otherwise
    // report every iteration as a failure and shrink each one.
    if let Err(e) = gcr_exec::ExecEngine::from_env() {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let args = parse_args();
    let names: Vec<&str> = args.oracles.iter().map(|o| o.name()).collect();
    eprintln!(
        "gcr-fuzz: seed {}, {} iterations, oracles [{}], {} threads",
        args.seed,
        args.iters,
        names.join(", "),
        gcr_par::thread_count()
    );
    let t0 = std::time::Instant::now();
    let failures = fuzz(args.seed, args.iters, &args.oracles);
    let secs = t0.elapsed().as_secs_f64();
    if failures.is_empty() {
        eprintln!(
            "gcr-fuzz: all {} iterations x {} oracles passed in {secs:.1}s",
            args.iters,
            args.oracles.len()
        );
        return;
    }
    std::fs::create_dir_all(&args.out_dir).expect("cannot create failure directory");
    for (k, f) in failures.iter().enumerate() {
        let stem = format!("fail-{}-{}-{}", f.oracle, args.seed, f.iter);
        eprintln!("\n=== failure {}/{} [{}] iteration {}", k + 1, failures.len(), f.oracle, f.iter);
        eprintln!("{}", f.message);
        eprintln!("--- minimized reproducer:\n{}", f.minimized);
        let path = args.out_dir.join(format!("{stem}.loop"));
        std::fs::write(&path, &f.minimized).expect("cannot write reproducer");
        std::fs::write(
            args.out_dir.join(format!("{stem}.txt")),
            format!("{}\n\n--- original program:\n{}", f.message, f.program),
        )
        .expect("cannot write diagnostic");
        eprintln!("--- written to {}", path.display());
    }
    eprintln!(
        "\ngcr-fuzz: {} failure(s) out of {} iterations in {secs:.1}s",
        failures.len(),
        args.iters
    );
    std::process::exit(1);
}
