//! `smctl run` CLI contract, driven against the real binary
//! (`CARGO_BIN_EXE_smctl`): `run all` prints exactly the nine
//! single-artifact outputs, and one shared bundle cache builds each
//! quick bundle once.

use std::process::{Command, Output};

use sm_bench::artifacts::ARTIFACTS;

fn smctl_run(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_smctl"))
        .arg("run")
        .args(args)
        .args(["--quick", "--no-store"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("spawn smctl");
    assert!(
        out.status.success(),
        "smctl run {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn run_all_is_the_nine_artifacts_joined_and_builds_each_bundle_once() {
    let all = smctl_run(&["all"]);
    let singles: Vec<String> = ARTIFACTS
        .iter()
        .map(|&(name, _)| String::from_utf8(smctl_run(&[name]).stdout).unwrap())
        .collect();
    assert_eq!(
        String::from_utf8(all.stdout).unwrap(),
        singles.join("\n"),
        "`run all` must print each artifact's bytes, separated by one blank line"
    );
    // c432, c880 and superblue18: three builds; every later fetch hits,
    // and Tables 4 and 5 share one pass over the ISCAS bundles.
    let stderr = String::from_utf8(all.stderr).unwrap();
    assert!(
        stderr.contains("bundle cache: 3 builds, 7 hits, 0 disk hits over 9 artifact(s)"),
        "{stderr}"
    );
}
