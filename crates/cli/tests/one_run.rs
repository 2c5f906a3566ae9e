//! Holds the one simulation path of `gcrc`: `--simulate`, `--profile` and
//! `--hierarchy` share a machine and a run, so what each flag reports must
//! not depend on which other flags rode along; and every machine is byte
//! capped, so an oversize size is a typed error, never an abort.

use gcr_cli::report::Json;
use gcr_cli::{parse_args, run_source};
use gcr_core::pipeline::{apply_strategy, Strategy};
use std::process::Command;

const HIERARCHY: &str = "l1=1K/32/4,l2=8K/128/fa,prefetch=next-line";

/// Stdout text and `--report -` JSON of one in-process invocation.
fn outputs(src: &str, common: &[&str], flags: &[&str]) -> (String, Json) {
    let args: Vec<String> = ["-", "--no-emit", "--report", "-"]
        .iter()
        .chain(common)
        .chain(flags)
        .map(|s| s.to_string())
        .collect();
    let out = run_source(src, &parse_args(&args).unwrap()).unwrap();
    // With `--no-emit` the report's opening brace is the first one printed.
    let at = out.find('{').expect("the report is appended to stdout");
    (out[..at].to_string(), Json::parse(&out[at..]).unwrap())
}

/// `--simulate N --profile --hierarchy D` in one invocation against each
/// flag in its own: same stdout, section for section, and same report
/// sections. `beside` is what `--profile` and `--hierarchy` run next to:
/// nothing when N is their own default, the `--simulate` flags otherwise.
fn assert_merged_equals_apart(src: &str, common: &[&str], simulate: &[&str], beside: &[&str]) {
    let merged = [simulate, &["--profile", "--hierarchy", HIERARCHY]].concat();
    let (text, all) = outputs(src, common, &merged);
    let (sim_text, sim) = outputs(src, common, simulate);
    let (profile_text, profile) = outputs(src, common, &[beside, &["--profile"]].concat());
    let (hierarchy_text, hierarchy) =
        outputs(src, common, &[beside, &["--hierarchy", HIERARCHY]].concat());
    let lead = if beside.is_empty() { "" } else { sim_text.as_str() };
    let profile_text = profile_text.strip_prefix(lead).expect("simulate line first");
    let hierarchy_text = hierarchy_text.strip_prefix(lead).expect("simulate line first");
    assert_eq!(text, format!("{sim_text}{profile_text}{hierarchy_text}"), "{common:?}");
    for (name, apart) in [("simulation", &sim), ("profile", &profile), ("hierarchy", &hierarchy)] {
        assert!(apart.get(name).is_some(), "{common:?}: no `{name}` section");
        assert_eq!(all.get(name), apart.get(name), "{common:?}: `{name}` section");
    }
}

#[test]
fn merged_flags_equal_the_flags_run_separately() {
    let laplace = include_str!("../../../examples/laplace.loop");
    // What `inspect SP` prints: SP after three-level fusion, as LoopLang.
    let fused = apply_strategy(&gcr_apps::sp::program(), Strategy::FusionOnly { levels: 3 });
    let sp = gcr_ir::print::print_program(&fused.program);
    for engine in ["interp", "vm"] {
        // Alone, `--profile` and `--hierarchy` measure at N = 64: at that
        // size all three flags can run fully apart.
        assert_merged_equals_apart(laplace, &["--exec", engine], &["--simulate", "64"], &[]);
        // Fused SP is too large for N = 64 in a test; at N = 10 the other
        // two flags each run beside `--simulate` only.
        let common = ["--exec", engine, "--strategy", "fuse+group"];
        assert_merged_equals_apart(&sp, &common, &["--simulate", "10"], &["--simulate", "10"]);
    }
}

#[test]
fn equal_sizes_share_the_distance_run() {
    let laplace = include_str!("../../../examples/laplace.loop");
    let text = |flags: &[&str]| outputs(laplace, &[], flags).0;
    let (sim, hist) = (text(&["--simulate", "48"]), text(&["--reuse-hist", "48"]));
    let together = text(&["--simulate", "48", "--reuse-hist", "48", "--mrc", "48"]);
    assert_eq!(together, format!("{sim}{hist}{}", text(&["--mrc", "48"])));
    let apart = text(&["--reuse-hist", "48", "--mrc", "40"]);
    assert_eq!(apart, format!("{hist}{}", text(&["--mrc", "40"])));
}

/// An abort cannot be caught in-process, so these drive the real binary.
#[test]
fn oversize_sizes_are_a_budget_error_not_an_abort() {
    let example = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/jacobi2d.loop");
    let cases: [&[&str]; 7] = [
        &["--simulate", "300000"],     // 1.4 TB image: the allocation aborted
        &["--simulate", "3000000000"], // `capacity overflow`
        &["--simulate", "4294967296"], // N * N * 8 wrapped to a tiny layout
        &["--simulate", "300000", "--hierarchy", HIERARCHY],
        &["--simulate", "300000", "--profile"],
        &["--reuse-hist", "300000"],
        &["--mrc", "300000"],
    ];
    for flags in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_gcrc"))
            .arg(example)
            .arg("--no-emit")
            .args(flags)
            .output()
            .expect("gcrc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {:?}\n{stderr}", out.status);
        assert!(
            stderr.contains("memory bytes") && stderr.contains(&(1u64 << 28).to_string()),
            "{flags:?} must name the memory budget and its limit: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: no partial output");
    }
}
