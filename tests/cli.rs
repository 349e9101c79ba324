//! The `jgre` CLI binary, driven end to end.

use std::process::Command;

fn jgre() -> Command {
    Command::new(env!("CARGO_BIN_EXE_jgre"))
}

#[test]
fn headline_renders_the_counts() {
    let out = jgre().arg("headline").output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("54 in 32 system services"), "{stdout}");
    assert!(
        stdout.contains("147 total, 67 init-only filtered"),
        "{stdout}"
    );
}

#[test]
fn json_output_is_machine_readable() {
    let out = jgre()
        .args(["table4", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(parsed["rows"].as_array().map(|r| r.len()), Some(3));
    assert_eq!(parsed["apps_scanned"], 88);
}

#[test]
fn lint_emits_sarif_with_witnessed_findings() {
    let out = jgre().arg("lint").output().expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let sarif: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(sarif["version"].as_str(), Some("2.1.0"));

    let run = &sarif["runs"].as_array().expect("one run")[0];
    assert_eq!(run["tool"]["driver"]["name"].as_str(), Some("jgre-lint"));
    let rule_ids: Vec<&str> = run["tool"]["driver"]["rules"]
        .as_array()
        .expect("rules array")
        .iter()
        .filter_map(|r| r["id"].as_str())
        .collect();
    assert_eq!(rule_ids, ["JGRE001", "JGRE002", "JGRE003", "JGRE004"]);

    // 63 risky interfaces (60 unbounded + 3 bounded) plus the
    // signature-gated notes.
    let results = run["results"].as_array().expect("results array");
    let count = |id: &str| {
        results
            .iter()
            .filter(|r| r["ruleId"].as_str() == Some(id))
            .count()
    };
    assert_eq!(count("JGRE001"), 60);
    assert_eq!(count("JGRE003"), 3);
    assert!(count("JGRE002") >= 2);

    // Every finding carries at least one code flow ending at the sink.
    for result in results {
        let flows = result["codeFlows"].as_array().expect("codeFlows");
        assert!(!flows.is_empty());
        let steps = flows[0]["threadFlows"].as_array().expect("threadFlows")[0]["locations"]
            .as_array()
            .expect("locations");
        let first = steps[0]["location"]["message"]["text"].as_str().unwrap();
        let last = steps[steps.len() - 1]["location"]["message"]["text"]
            .as_str()
            .unwrap();
        assert!(first.starts_with("IPC entry "), "{first}");
        assert!(last.contains("inserts the JGR"), "{last}");
    }
}

#[test]
fn lint_sarif_snapshot_of_a_representative_finding() {
    // Model synthesis and result ordering are deterministic, so the first
    // finding is a stable snapshot of the whole SARIF shape.
    let out = jgre().arg("lint").output().expect("binary runs");
    let sarif: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    let result = &sarif["runs"].as_array().unwrap()[0]["results"]
        .as_array()
        .unwrap()[0];
    assert_eq!(result["ruleId"].as_str(), Some("JGRE001"));
    assert_eq!(result["level"].as_str(), Some("error"));
    assert_eq!(
        result["message"]["text"].as_str(),
        Some(
            "accessibility.addAccessibilityInteractionConnection retains a JNI \
             global reference per call without bound (2 allocation sites)"
        )
    );
    assert_eq!(
        result["locations"].as_array().unwrap()[0]["logicalLocations"]
            .as_array()
            .unwrap()[0]["fullyQualifiedName"]
            .as_str(),
        Some("accessibility.addAccessibilityInteractionConnection")
    );
    let steps: Vec<&str> = result["codeFlows"].as_array().unwrap()[0]["threadFlows"]
        .as_array()
        .unwrap()[0]["locations"]
        .as_array()
        .unwrap()
        .iter()
        .map(|l| l["location"]["message"]["text"].as_str().unwrap())
        .collect();
    assert_eq!(
        steps,
        [
            "IPC entry com.android.server.AccessibilityService.addAccessibilityInteractionConnection",
            "com.android.server.AccessibilityService.addAccessibilityInteractionConnection calls \
             com.android.server.AccessibilityService.addAccessibilityInteractionConnectionInternal",
            "com.android.server.AccessibilityService.addAccessibilityInteractionConnectionInternal \
             calls android.os.RemoteCallbackList.register",
            "android.os.RemoteCallbackList.register calls android.os.Binder.linkToDeath",
            "android.os.Binder.linkToDeath calls android.os.Binder.linkToDeathNative",
            "JNI bridge android.os.Binder.linkToDeathNative -> android_os_BinderProxy_linkToDeath",
            "android_os_BinderProxy_linkToDeath calls JavaDeathRecipient::JavaDeathRecipient",
            "JavaDeathRecipient::JavaDeathRecipient calls art::IndirectReferenceTable::Add",
            "art::IndirectReferenceTable::Add inserts the JGR",
        ]
    );
}

#[test]
fn lint_json_prints_the_raw_report() {
    let out = jgre()
        .args(["lint", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The predicate lattice proves the three bounded collections bounded,
    // so they no longer count as false positives.
    assert_eq!(report["accuracy"]["true_positives"], 54);
    assert_eq!(report["accuracy"]["false_positives"], 0);
    assert_eq!(report["accuracy"]["false_negatives"], 0);
    assert!(report["diagnostics"].as_array().is_some());
}

#[test]
fn lint_path_insensitive_reproduces_the_boolean_era_score() {
    let out = jgre()
        .args(["lint", "--path-insensitive", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert_eq!(report["accuracy"]["true_positives"], 54);
    assert_eq!(report["accuracy"]["false_positives"], 3);
    assert_eq!(report["accuracy"]["false_negatives"], 0);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("accuracy: tp=54 fp=3 fn=0"), "{stderr}");
}

#[test]
fn lint_prints_the_summary_footer_on_stderr() {
    let out = jgre().arg("lint").output().expect("binary runs");
    assert!(out.status.success());
    // The footer must not pollute the SARIF stdout stream.
    serde_json::from_slice(&out.stdout).expect("stdout is pure JSON");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("summaries: 3732 (hits 0, misses 3732)"),
        "{stderr}"
    );
    // The CI accuracy gate greps this exact line.
    assert!(stderr.contains("accuracy: tp=54 fp=0 fn=0"), "{stderr}");
}

#[test]
fn lint_cache_dir_roundtrips_with_identical_findings() {
    let dir = std::env::temp_dir().join(format!("jgre-cli-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let run = |threads: &str| {
        let out = jgre()
            .args(["lint", "--cache-dir", dir.to_str().unwrap()])
            .args(["--threads", threads])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            out.stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (cold_out, cold_err) = run("1");
    let (warm_out, warm_err) = run("4");
    std::fs::remove_dir_all(&dir).ok();
    // The populating run prints exactly what an uncached lint does.
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts/lint_sarif.json");
    assert!(
        cold_out == std::fs::read(golden).expect("golden artifact committed"),
        "`jgre lint --cache-dir` differs from artifacts/lint_sarif.json"
    );
    let json = |out: &[u8]| serde_json::from_slice(out).expect("valid JSON");
    let (cold, warm) = (json(&cold_out), json(&warm_out));
    assert!(cold_err.contains("misses 3732"), "{cold_err}");
    assert!(warm_err.contains("(hits 3732, misses 0)"), "{warm_err}");
    // Findings are structurally identical; only the invocation's cache
    // counters may differ between the cold and warm run.
    let results = |v: &serde_json::Value| v["runs"].as_array().unwrap()[0]["results"].clone();
    assert_eq!(results(&cold), results(&warm));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = jgre().arg("nonsense").output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command: nonsense"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn help_prints_and_succeeds() {
    let out = jgre().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("COMMANDS"));
}

#[test]
fn seed_flag_is_parsed() {
    let out = jgre()
        .args(["--seed", "nope", "headline"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seed needs a number"));
}

#[test]
fn paper_flag_keeps_an_earlier_seed() {
    let orders: [&[&str]; 3] = [
        &["--seed", "5", "--paper"],
        &["--paper", "--seed", "5"],
        &["--seed", "5", "--scale", "paper"],
    ];
    for args in orders {
        let out = jgre()
            .args(args)
            .args(["fleet", "--devices", "1", "--json"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
        assert_eq!(report["campaign_seed"], 5, "{args:?}");
    }
}

#[test]
fn serve_rejects_a_duration_that_never_ends() {
    for duration in ["inf", "1e300", "NaN", "0"] {
        let mut child = jgre()
            .args(["serve", "--duration", duration])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("binary runs");
        // A saturated duration would stream forever: give up after 30 s.
        let started = std::time::Instant::now();
        let status = loop {
            if let Some(status) = child.try_wait().expect("child status") {
                break status;
            }
            if started.elapsed() > std::time::Duration::from_secs(30) {
                child.kill().ok();
                child.wait().ok();
                panic!("serve --duration {duration} was still running after 30 s");
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        };
        let mut stderr = String::new();
        std::io::Read::read_to_string(&mut child.stderr.take().expect("piped"), &mut stderr)
            .expect("stderr readable");
        assert!(!status.success(), "--duration {duration} was accepted");
        assert!(
            stderr.contains("--duration needs a positive number of seconds"),
            "{stderr}"
        );
    }
}

#[test]
fn serve_rejects_a_duration_under_one_microsecond() {
    // Each of these is positive but truncates to zero whole virtual
    // microseconds: the stream would be empty.
    for duration in ["1e-9", "0.0000009", "5e-324"] {
        let out = jgre()
            .args(["serve", "--duration", duration])
            .output()
            .expect("binary runs");
        assert!(
            !out.status.success(),
            "--duration {duration} was accepted: {}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--duration needs a positive number of seconds"),
            "{stderr}"
        );
    }
    let out = jgre()
        .args(["serve", "--duration", "0.000002"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "two microseconds were rejected: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    use std::io::BufRead;
    use std::process::Stdio;

    let spawn = || {
        jgre()
            .args(["serve", "--duration", "0.05"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary runs")
    };
    let assert_quiet = |child: std::process::Child, case: &str| {
        let out = child.wait_with_output().expect("child finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{case}: {stderr}");
        assert!(!stderr.contains("Broken pipe"), "{case}: {stderr}");
        assert!(out.status.success(), "{case}: {:?}", out.status);
    };

    // The reader takes one line and leaves (`jgre serve | head -1`).
    let mut child = spawn();
    let mut line = String::new();
    std::io::BufReader::new(child.stdout.take().expect("piped"))
        .read_line(&mut line)
        .expect("stdout readable");
    assert!(line.starts_with("jgre serve:"), "{line}");
    assert_quiet(child, "one line read");

    // Whether the rest of the output is still unwritten when that
    // reader leaves is a race; a reader gone before the first write is
    // not.
    let mut child = spawn();
    drop(child.stdout.take());
    assert_quiet(child, "closed before any output");
}

#[test]
fn chaos_matrix_runs_clean_and_is_seed_deterministic() {
    let run = |extra: &[&str]| {
        let mut cmd = jgre();
        cmd.args(["chaos", "--seed", "0", "--json"]).args(extra);
        let out = cmd.output().expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    let a = run(&[]);
    let b = run(&[]);
    assert_eq!(a, b, "same seed must be byte-identical");
    let threaded = run(&["--threads", "2"]);
    assert_eq!(a, threaded, "thread count must not change the matrix");

    let parsed: serde_json::Value = serde_json::from_slice(&a).expect("valid JSON");
    assert_eq!(parsed["seed"], 0);
    assert_eq!(parsed["violations"], 0);
    // 2 attacks × (1 baseline + 10 kinds × 3 intensities).
    assert_eq!(parsed["cells"].as_array().map(|c| c.len()), Some(62));

    let other_seed = jgre()
        .args(["chaos", "--seed", "7", "--json"])
        .output()
        .expect("binary runs");
    assert!(other_seed.status.success());
    assert_ne!(a, other_seed.stdout, "a different seed changes the run");
}

#[test]
fn chaos_fault_flag_selects_one_channel() {
    let out = jgre()
        .args(["chaos", "--seed", "0", "--fault", "kill-fail", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // 2 attacks × (1 baseline + 1 kind × 3 intensities).
    let cells = parsed["cells"].as_array().expect("cells array");
    assert_eq!(cells.len(), 8);
    assert!(cells
        .iter()
        .all(|c| c["fault"] == "none" || c["fault"] == "kill-fail"));

    let bad = jgre()
        .args(["chaos", "--fault", "gamma-rays"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success(), "unknown fault kind must be rejected");
}

#[test]
fn chaos_list_cells_prints_ids_without_running() {
    let out = jgre()
        .args(["chaos", "--list-cells"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let ids: Vec<&str> = stdout.lines().collect();
    assert_eq!(ids.len(), 62, "full matrix shape");
    assert!(ids.contains(&"clipboard.addPrimaryClipChangedListener/none/off"));
    assert!(ids.contains(&"midi.registerDeviceServer/defender-crash/severe"));

    let filtered = jgre()
        .args(["chaos", "--list-cells", "--fault", "defender-crash"])
        .output()
        .expect("binary runs");
    assert!(filtered.status.success());
    let stdout = String::from_utf8_lossy(&filtered.stdout);
    assert_eq!(stdout.lines().count(), 8, "2 baselines + 2×3 crash cells");
}

#[test]
fn chaos_out_writes_json_and_text_artifacts() {
    let dir = std::env::temp_dir().join(format!("jgre-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let json_path = dir.join("matrix.json");
    let out = jgre()
        .args(["chaos", "--seed", "0", "--fault", "ipc-drop"])
        .arg("--out")
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).expect("JSON artifact written");
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(parsed["violations"], 0);
    let txt = std::fs::read_to_string(dir.join("matrix.txt")).expect("text artifact written");
    assert!(txt.contains("Chaos matrix — seed 0"), "{txt}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_is_byte_identical_across_runs_and_threads() {
    let dir = std::env::temp_dir().join(format!("jgre-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, threads: &str| {
        let path = dir.join(name);
        let out = jgre()
            .args([
                "serve",
                "--seed",
                "3",
                "--events-per-sec",
                "4000",
                "--duration",
                "0.25",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out, std::fs::read(&path).expect("JSON artifact written"))
    };
    let (first, json_a) = run("a.json", "1");
    let (_, json_b) = run("b.json", "1");
    let (_, json_threaded) = run("c.json", "4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json_a, json_b, "same seed must write identical bytes");
    assert_eq!(
        json_a, json_threaded,
        "thread count must not change the report"
    );

    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("jgre serve: seed=3"), "{stdout}");
    assert!(stdout.contains("drops: backpressure="), "{stdout}");
    // Wall-clock throughput stays off the reproducible streams.
    assert!(!stdout.contains("events/sec"), "{stdout}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("events/sec"), "{stderr}");
}

#[test]
fn serve_attack_selector_profiles_the_vector() {
    let out = jgre()
        .args(["serve", "--duration", "0.1", "--attack", "0", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    // The tapped delay replaces the synthetic 500µs default.
    let delay = report["source"]["attack_delay"]["micros"]
        .as_u64()
        .or_else(|| report["source"]["attack_delay"].as_u64());
    assert!(delay.is_some(), "{report:?}");
    assert!(
        !report["verdicts"].as_array().expect("verdicts").is_empty(),
        "the profiled attack must still be caught"
    );

    let bad = jgre()
        .args(["serve", "--attack", "no.suchMethod"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown attack selector"));
}

/// Runs `jgre <args> --out <tmp>/<name>.json` and requires both written
/// files to equal the committed goldens `artifacts/<name>.{json,txt}`.
fn assert_matches_golden(args: &[&str], name: &str, regenerate: &str) {
    let dir = std::env::temp_dir().join(format!("jgre-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = jgre()
        .args(args)
        .arg("--out")
        .arg(dir.join(format!("{name}.json")))
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    for ext in ["json", "txt"] {
        let file = format!("{name}.{ext}");
        let fresh = std::fs::read(dir.join(&file)).expect("artifact written");
        let golden = std::fs::read(artifacts.join(&file)).expect("golden artifact committed");
        assert!(
            fresh == golden,
            "artifacts/{file} is stale; regenerate with `{regenerate}`"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_fleet_golden_matches_a_fresh_run() {
    // The summary is identical for every --threads value.
    assert_matches_golden(
        &[
            "fleet",
            "--devices",
            "1000",
            "--threads",
            "2",
            "--scale",
            "quick",
        ],
        "fleet_quick_1000",
        "jgre fleet --devices 1000 --threads 4 --scale quick \
         --out artifacts/fleet_quick_1000.json",
    );
}

#[test]
fn committed_paper_fleet_golden_matches_a_fresh_run() {
    // Paper scale: 1 200 stock references per boot and a kill-time
    // collection over ~12 000 retained entries per device.
    assert_matches_golden(
        &[
            "fleet",
            "--devices",
            "100",
            "--threads",
            "2",
            "--scale",
            "paper",
        ],
        "fleet_paper_100",
        "jgre fleet --devices 100 --scale paper --out artifacts/fleet_paper_100.json",
    );
}

#[test]
fn committed_fuzz_golden_matches_a_fresh_run() {
    assert_matches_golden(
        &["fuzz", "--seed", "7", "--iters", "2000"],
        "fuzz_seed7_2000",
        "jgre fuzz --seed 7 --iters 2000 --out artifacts/fuzz_seed7_2000.json",
    );
}

#[test]
fn committed_full_fuzz_golden_matches_a_fresh_run() {
    // The default campaign: the whole probe sweep, spoof re-probes and
    // minimization, which the 2000-exec golden never reaches. The report
    // is identical for every --threads value.
    for threads in ["1", "4"] {
        assert_matches_golden(
            &["fuzz", "--seed", "7", "--threads", threads],
            "fuzz_seed7_default",
            "jgre fuzz --seed 7 --out artifacts/fuzz_seed7_default.json",
        );
    }
}

#[test]
fn committed_serve_golden_matches_a_fresh_run() {
    assert_matches_golden(
        &[
            "serve",
            "--seed",
            "11",
            "--events-per-sec",
            "10000",
            "--duration",
            "0.5",
        ],
        "serve_seed11",
        "jgre serve --seed 11 --events-per-sec 10000 --duration 0.5 \
         --out artifacts/serve_seed11.json",
    );
}

#[test]
fn committed_tapped_serve_golden_matches_a_fresh_run() {
    // The tapped attack stream runs the device simulator, the encoder,
    // the wire decoder and the journal; the report pins all four.
    assert_matches_golden(
        &[
            "serve",
            "--seed",
            "11",
            "--duration",
            "0.25",
            "--attack",
            "0",
        ],
        "serve_attack0_seed11",
        "jgre serve --seed 11 --duration 0.25 --attack 0 \
         --out artifacts/serve_attack0_seed11.json",
    );
}

#[test]
fn committed_lint_goldens_match_fresh_runs() {
    // `lint` writes SARIF, and `lint --json` the raw report with its
    // solver statistics, to stdout; both are identical for every
    // --threads value.
    let artifacts = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    for (flags, file) in [
        (&[][..], "lint_sarif.json"),
        (&["--json"][..], "lint_report.json"),
    ] {
        let golden = std::fs::read(artifacts.join(file)).expect("golden artifact committed");
        for threads in ["1", "4"] {
            let out = jgre()
                .arg("lint")
                .args(flags)
                .args(["--threads", threads])
                .output()
                .expect("binary runs");
            assert!(
                out.status.success(),
                "stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(
                out.stdout == golden,
                "artifacts/{file} differs from `jgre lint {} --threads {threads}`; \
                 regenerate with `jgre lint {} > artifacts/{file}`",
                flags.join(" "),
                flags.join(" "),
            );
        }
    }
}

#[test]
fn committed_chaos_golden_matches_a_fresh_run() {
    let out = jgre()
        .args(["chaos", "--seed", "0", "--json"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("artifacts")
        .join("chaos_matrix.json");
    let golden = std::fs::read_to_string(golden_path).expect("golden artifact committed");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout).trim_end(),
        golden.trim_end(),
        "artifacts/chaos_matrix.json is stale; regenerate with \
         `jgre chaos --seed 0 --out artifacts/chaos_matrix.json`"
    );
}

#[test]
fn fuzz_is_byte_identical_across_runs_and_threads() {
    let dir = std::env::temp_dir().join(format!("jgre-fuzz-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let run = |name: &str, threads: &str| {
        let path = dir.join(name);
        let out = jgre()
            .args([
                "fuzz",
                "--seed",
                "7",
                "--iters",
                "2000",
                "--threads",
                threads,
            ])
            .arg("--out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (out, std::fs::read(&path).expect("JSON artifact written"))
    };
    let (first, json_a) = run("a.json", "1");
    let (_, json_b) = run("b.json", "1");
    let (_, json_threaded) = run("c.json", "4");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(json_a, json_b, "same seed must write identical bytes");
    assert_eq!(
        json_a, json_threaded,
        "thread count must not change the report"
    );

    let artifact: serde_json::Value = serde_json::from_slice(&json_a).expect("valid JSON artifact");
    assert_eq!(artifact["fuzz"]["seed"], 7);
    assert_eq!(artifact["fuzz"]["execs"], 2000);
    // Hardened dispatch: a smoke-sized mutation storm lands plenty of
    // typed rejections and never crashes a host.
    assert_eq!(artifact["fuzz"]["host_aborts"], 0);
    assert!(
        artifact["fuzz"]["rejects"]["unknown-code"]
            .as_u64()
            .is_some_and(|n| n > 0),
        "typed rejection ledger is empty"
    );

    let stdout = String::from_utf8_lossy(&first.stdout);
    assert!(stdout.contains("fuzz: seed 7"), "{stdout}");
    assert!(stdout.contains("differential:"), "{stdout}");
    // Wall-clock throughput stays off the reproducible streams.
    assert!(!stdout.contains("execs/sec"), "{stdout}");
    let stderr = String::from_utf8_lossy(&first.stderr);
    assert!(stderr.contains("execs/sec"), "{stderr}");
    assert!(stderr.contains("findings/sec"), "{stderr}");
}

#[test]
fn fuzz_attack_surface_selector_restricts_the_sweep() {
    let out = jgre()
        .args([
            "fuzz",
            "--seed",
            "7",
            "--iters",
            "500",
            "--attack-surface",
            "hidden",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let artifact: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("valid JSON on stdout");
    assert_eq!(artifact["fuzz"]["attack_surface"], "hidden");

    let bad = jgre()
        .args(["fuzz", "--attack-surface", "bogus"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success(), "bogus surface must be rejected");
}
