//! End-to-end tests of the `rsky` binary via std::process.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> PathBuf {
    // target/debug/rsky next to this test binary's directory.
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop(); // debug/
    p.push("rsky");
    p
}

fn tmpdata(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("rsky-clitest-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir.display().to_string()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin()).args(args).output().expect("spawn rsky");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn demo_prints_paper_result() {
    let (ok, text) = run(&["demo"]);
    assert!(ok, "{text}");
    assert!(text.contains("O3,O6"), "{text}");
    assert!(text.contains("RS = {O3, O6}"), "{text}");
}

#[test]
fn generate_info_query_influence_round_trip() {
    let data = tmpdata("roundtrip");
    let (ok, text) = run(&[
        "generate", "--kind", "normal", "--n", "500", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{text}");

    let (ok, text) = run(&["info", "--data", &data]);
    assert!(ok, "{text}");
    assert!(text.contains("records:  500"), "{text}");
    assert!(text.contains("AL-Tree attribute order"), "{text}");

    let (ok, text) = run(&["query", "--data", &data, "--query", "3,3,3", "--algo", "trs"]);
    assert!(ok, "{text}");
    assert!(text.contains("reverse skyline:"), "{text}");
    assert!(text.contains("distance checks:"), "{text}");

    // All engines agree through the CLI too.
    let mut results = Vec::new();
    for algo in ["naive", "brs", "srs", "trs", "tsrs", "ttrs"] {
        let (ok, text) = run(&["query", "--data", &data, "--query", "3,3,3", "--algo", algo]);
        assert!(ok, "{algo}: {text}");
        let ids = text.lines().find(|l| l.starts_with("ids:")).unwrap_or("ids:").to_string();
        results.push(ids);
    }
    assert!(results.windows(2).all(|w| w[0] == w[1]), "engines disagree: {results:?}");

    let (ok, text) = run(&["skyline", "--data", &data, "--query", "3,3,3"]);
    assert!(ok, "{text}");
    assert!(text.contains("dynamic skyline:"), "{text}");

    let (ok, text) = run(&["influence", "--data", &data, "--queries", "4", "--top", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("total influence"), "{text}");

    let (ok, text) = run(&["compare", "--data", &data, "--queries", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("TRS"), "{text}");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn unknown_flags_are_refused_by_name() {
    let data = tmpdata("flags");
    let (ok, text) = run(&[
        "generate", "--kind", "normal", "--n", "200", "--attrs", "4", "--values", "8", "--out",
        &data,
    ]);
    assert!(ok, "{text}");
    let query = ["query", "--data", &data, "--query", "1,2,3,4"];
    let (ok, text) = run(&query);
    assert!(ok, "{text}");
    // A misspelling, an invented flag, and a near miss of `--cache`.
    for (flag, value) in [("--memroy", "1"), ("--bogus-flag", "7"), ("--cache-pages", "64")] {
        let (ok, text) = run(&[&query[..], &[flag, value]].concat());
        assert!(!ok, "query ran with {flag}: {text}");
        let named = format!("unknown flag {flag} (see `rsky help query`)");
        assert!(text.contains(&named), "{flag}: {text}");
    }
    // Another command refuses a flag that `query` documents but it does not.
    let (ok, text) = run(&["info", "--data", &data, "--memory", "5"]);
    assert!(!ok, "info ran with --memory: {text}");
    assert!(text.contains("unknown flag --memory (see `rsky help info`)"), "{text}");
    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn threaded_query_matches_sequential() {
    let data = tmpdata("threads");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "400", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    for algo in ["brs", "srs", "trs", "tsrs", "ttrs"] {
        let mut ids = Vec::new();
        for threads in ["1", "2", "4"] {
            let (ok, text) = run(&[
                "query", "--data", &data, "--query", "2,2,2", "--algo", algo, "--threads", threads,
            ]);
            assert!(ok, "{algo} --threads {threads}: {text}");
            ids.push(text.lines().find(|l| l.starts_with("ids:")).unwrap_or("ids:").to_string());
        }
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{algo} thread counts disagree: {ids:?}");
    }

    // The parallel engines announce themselves in the cost profile.
    let (ok, text) =
        run(&["query", "--data", &data, "--query", "2,2,2", "--algo", "trs", "--threads", "2"]);
    assert!(ok, "{text}");
    assert!(text.contains("TRS-P"), "{text}");

    // naive has no parallel twin.
    let (ok, text) =
        run(&["query", "--data", &data, "--query", "2,2,2", "--algo", "naive", "--threads", "2"]);
    assert!(!ok);
    assert!(text.contains("no parallel variant"), "{text}");

    // Influence sharding returns the same ranking for any thread count.
    let mut rankings = Vec::new();
    for threads in ["1", "3"] {
        let (ok, text) = run(&[
            "influence", "--data", &data, "--queries", "5", "--top", "3", "--threads", threads,
        ]);
        assert!(ok, "--threads {threads}: {text}");
        let tail: Vec<String> =
            text.lines().skip_while(|l| !l.starts_with("rank")).map(String::from).collect();
        rankings.push(tail.join("\n"));
    }
    assert!(!rankings[0].is_empty(), "no ranking table printed");
    assert_eq!(rankings[0], rankings[1], "influence rankings differ across thread counts");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn threads_zero_auto_detects_cores() {
    let data = tmpdata("autothreads");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "300", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    // `--threads 0` resolves to available_parallelism and returns the same
    // ids as an explicit thread count.
    let mut ids = Vec::new();
    for threads in ["1", "0"] {
        let (ok, text) = run(&[
            "query", "--data", &data, "--query", "2,2,2", "--algo", "trs", "--threads", threads,
        ]);
        assert!(ok, "--threads {threads}: {text}");
        ids.push(text.lines().find(|l| l.starts_with("ids:")).unwrap_or("ids:").to_string());
    }
    assert_eq!(ids[0], ids[1], "--threads 0 must not change results");

    // naive has no parallel twin but still accepts the auto knob (resolves
    // to its sequential run instead of erroring like an explicit N > 1).
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "2,2,2", "--algo", "naive", "--threads", "0",
    ]);
    assert!(ok, "{text}");

    // influence sharding under auto-detect keeps the ranking.
    let mut rankings = Vec::new();
    for threads in ["1", "0"] {
        let (ok, text) = run(&[
            "influence", "--data", &data, "--queries", "4", "--top", "2", "--threads", threads,
        ]);
        assert!(ok, "--threads {threads}: {text}");
        let tail: Vec<String> =
            text.lines().skip_while(|l| !l.starts_with("rank")).map(String::from).collect();
        rankings.push(tail.join("\n"));
    }
    assert!(!rankings[0].is_empty(), "no ranking table printed");
    assert_eq!(rankings[0], rankings[1], "--threads 0 changed the influence ranking");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn sharded_query_and_influence_match_single_node() {
    let data = tmpdata("shards");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "400", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    // Every engine × shard count × policy returns the single-node ids.
    let mut ids = Vec::new();
    for algo in ["naive", "brs", "trs"] {
        let (ok, text) = run(&["query", "--data", &data, "--query", "2,2,2", "--algo", algo]);
        assert!(ok, "{algo}: {text}");
        ids.push(text.lines().find(|l| l.starts_with("ids:")).unwrap().to_string());
        for shards in ["1", "3"] {
            for policy in ["round-robin", "hash"] {
                let (ok, text) = run(&[
                    "query", "--data", &data, "--query", "2,2,2", "--algo", algo, "--shards",
                    shards, "--shard-policy", policy,
                ]);
                assert!(ok, "{algo} --shards {shards} --shard-policy {policy}: {text}");
                assert!(text.contains("sharding:"), "{text}");
                ids.push(text.lines().find(|l| l.starts_with("ids:")).unwrap().to_string());
            }
        }
        assert!(ids.windows(2).all(|w| w[0] == w[1]), "{algo} shard configs disagree: {ids:?}");
        ids.truncate(0);
    }

    // JSON output carries the shard breakdown.
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "2,2,2", "--shards", "2", "--stats-format", "json",
    ]);
    assert!(ok, "{text}");
    let json = text.lines().find(|l| l.starts_with('{')).expect("JSON on stdout");
    assert!(json.contains("\"shards\":{\"count\":2,\"policy\":\"round-robin\""), "{json}");
    assert!(extract_u64(json, "candidates") >= extract_u64(json, "result_size"), "{json}");

    // Influence ranking is unchanged by sharded execution.
    let mut rankings = Vec::new();
    for extra in [&[][..], &["--shards", "3"][..]] {
        let mut args =
            vec!["influence", "--data", data.as_str(), "--queries", "4", "--top", "2"];
        args.extend_from_slice(extra);
        let (ok, text) = run(&args);
        assert!(ok, "{extra:?}: {text}");
        let tail: Vec<String> =
            text.lines().skip_while(|l| !l.starts_with("rank")).map(String::from).collect();
        rankings.push(tail.join("\n"));
    }
    assert!(!rankings[0].is_empty(), "no ranking table printed");
    assert_eq!(rankings[0], rankings[1], "sharded influence changed the ranking");

    // Nonsensical shard configs are rejected up front.
    let (ok, text) =
        run(&["query", "--data", &data, "--query", "2,2,2", "--shards", "0"]);
    assert!(!ok);
    assert!(text.contains("at least 1"), "{text}");
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "2,2,2", "--shards", "2", "--file-backend",
    ]);
    assert!(!ok);
    assert!(text.contains("incompatible"), "{text}");
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "2,2,2", "--shard-policy", "hash",
    ]);
    assert!(!ok);
    assert!(text.contains("requires --shards"), "{text}");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn serve_round_trip_over_tcp() {
    use std::io::{BufRead, BufReader, Read, Write};

    let data = tmpdata("serve");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "200", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    let mut child = Command::new(bin())
        .args(["serve", "--data", &data, "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn rsky serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read listening banner");
    assert!(banner.starts_with("listening on "), "{banner}");
    let addr = banner
        .trim_start_matches("listening on ")
        .split_whitespace()
        .next()
        .expect("address in banner")
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect to served port");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |req: &str, reader: &mut BufReader<std::net::TcpStream>| -> String {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    };
    let health = send(r#"{"op":"health"}"#, &mut reader);
    assert!(health.contains("\"ok\":true") && health.contains("\"workers\":2"), "{health}");
    let reply = send(r#"{"op":"query","engine":"trs","values":[2,2,2]}"#, &mut reader);
    assert!(reply.contains("\"ok\":true") && reply.contains("\"ids\":["), "{reply}");
    let bye = send(r#"{"op":"shutdown"}"#, &mut reader);
    assert!(bye.contains("\"draining\":true"), "{bye}");

    let status = child.wait().expect("serve exits after shutdown op");
    assert!(status.success(), "serve exit: {status:?}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert!(rest.contains("server drained"), "{rest}");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn query_with_subset_and_cache() {
    let data = tmpdata("subset");
    let (ok, t) = run(&[
        "generate", "--kind", "uniform", "--n", "300", "--attrs", "4", "--values", "5", "--out",
        &data,
    ]);
    assert!(ok, "{t}");
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "1,2,3,4", "--subset", "0,2", "--cache", "16",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("buffer pool:"), "{text}");
    let _ = std::fs::remove_dir_all(&data);
}

/// First integer after `"key":` in a JSON fragment (no quoting ambiguity in
/// the CLI's machine output, so substring search suffices).
fn extract_u64(text: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let i = text.find(&pat).unwrap_or_else(|| panic!("{key:?} not found in {text}"));
    let rest = &text[i + pat.len()..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().unwrap_or_else(|_| panic!("{key:?} not numeric in {text}"))
}

#[test]
fn stats_json_and_trace_jsonl_reconcile() {
    let data = tmpdata("obs");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "600", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    // Sequential and parallel engines: the printed JSON stats, the run-span
    // totals in the trace, and the per-batch span deltas must all agree.
    for (algo, threads, prefix) in [("brs", "1", "brs"), ("trs", "1", "trs"), ("srs", "2", "srs-p")]
    {
        let trace = std::env::temp_dir()
            .join(format!("rsky-clitest-trace-{}-{algo}-{threads}.jsonl", std::process::id()));
        let (ok, text) = run(&[
            "query", "--data", &data, "--query", "2,2,2", "--algo", algo, "--threads", threads,
            "--stats-format", "json", "--trace-out", trace.to_str().unwrap(),
        ]);
        assert!(ok, "{algo}: {text}");
        let json = text.lines().find(|l| l.starts_with('{')).expect("one JSON object on stdout");
        let stats = &json[json.find("\"stats\":").unwrap()..];
        let printed_checks = extract_u64(stats, "dist_checks");
        assert!(printed_checks > 0, "{json}");

        let trace_text = std::fs::read_to_string(&trace).unwrap();
        for line in trace_text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON line: {line}");
        }
        let run_line = trace_text
            .lines()
            .find(|l| l.contains(&format!("\"name\":\"{prefix}.run\"")))
            .unwrap_or_else(|| panic!("no {prefix}.run span in trace:\n{trace_text}"));
        assert_eq!(extract_u64(run_line, "dist_checks"), printed_checks, "{algo}");
        assert_eq!(
            extract_u64(run_line, "result_size"),
            extract_u64(json, "result_size"),
            "{algo}"
        );
        let batch_sum: u64 = trace_text
            .lines()
            .filter(|l| {
                l.contains(&format!("\"name\":\"{prefix}.phase1.batch\""))
                    || l.contains(&format!("\"name\":\"{prefix}.phase2.batch\""))
            })
            .map(|l| extract_u64(l, "dist_checks"))
            .sum();
        assert_eq!(batch_sum, printed_checks, "{algo}: batch deltas must tile the total");
        let _ = std::fs::remove_file(&trace);
    }

    // influence --stats-format json: ranking plus folded per-query metrics.
    let (ok, text) =
        run(&["influence", "--data", &data, "--queries", "3", "--stats-format", "json"]);
    assert!(ok, "{text}");
    let line = text.lines().find(|l| l.starts_with('{')).expect("influence JSON");
    assert!(line.contains("\"ranking\":[{\"query\":"), "{line}");
    assert!(line.contains("\"influence.query.dist_checks\""), "{line}");
    assert_eq!(
        extract_u64(line, "total_dist_checks"),
        extract_u64(line, "influence.query.dist_checks"),
        "registry fold of influence.query spans must match the report totals"
    );

    // compare --stats-format json: one row per engine.
    let (ok, text) = run(&["compare", "--data", &data, "--queries", "2", "--stats-format", "json"]);
    assert!(ok, "{text}");
    let line = text.lines().find(|l| l.starts_with('{')).expect("compare JSON");
    assert!(line.contains("\"rows\":[{\"algo\":\"BRS\""), "{line}");
    assert!(line.contains("\"algo\":\"T-TRS\""), "{line}");

    // Unknown format is rejected up front.
    let (ok, text) =
        run(&["query", "--data", &data, "--query", "2,2,2", "--stats-format", "xml"]);
    assert!(!ok);
    assert!(text.contains("human|json"), "{text}");

    let _ = std::fs::remove_dir_all(&data);
}

/// `rsky profile` over a trace file, and `rsky profile` + `rsky top`
/// against a live server: the full telemetry loop through real processes.
#[test]
fn profile_and_top_round_trip() {
    use std::io::{BufRead, BufReader, Write};

    let data = tmpdata("profile");
    let (ok, t) = run(&[
        "generate", "--kind", "normal", "--n", "300", "--attrs", "3", "--values", "6", "--out",
        &data,
    ]);
    assert!(ok, "{t}");

    // File mode: a traced query profiles into self-time rows whose paths
    // are rooted at the run span, plus the --tree view.
    let trace = std::env::temp_dir()
        .join(format!("rsky-clitest-profile-{}.jsonl", std::process::id()));
    let (ok, text) = run(&[
        "query", "--data", &data, "--query", "2,2,2", "--algo", "trs", "--trace-out",
        trace.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    let (ok, text) = run(&["profile", "--in", trace.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("1 trace(s)"), "{text}");
    assert!(text.contains("self_us"), "{text}");
    assert!(text.contains("trs.run"), "{text}");
    let (ok, tree) = run(&["profile", "--in", trace.to_str().unwrap(), "--tree"]);
    assert!(ok, "{tree}");
    assert!(tree.lines().next().is_some_and(|l| l.starts_with("trs.run")), "{tree}");
    assert!(tree.contains("\n  trs.phase1 "), "tree view indents phases: {tree}");
    let _ = std::fs::remove_file(&trace);

    // Server mode: slow-request capture feeds `profile --addr`, the
    // sampler feeds `top --addr`.
    let mut child = std::process::Command::new(bin())
        .args([
            "serve", "--data", &data, "--addr", "127.0.0.1:0", "--threads", "1",
            "--slow-request-us", "1", "--sample-interval-ms", "25",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn rsky serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut banner = String::new();
    stdout.read_line(&mut banner).expect("read listening banner");
    let addr = banner
        .trim_start_matches("listening on ")
        .split_whitespace()
        .next()
        .expect("address in banner")
        .to_string();

    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut send = |req: &str| {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    };
    let reply = send(r#"{"op":"query","engine":"trs","values":[2,2,2]}"#);
    assert!(reply.contains("\"ok\":true"), "{reply}");
    // Give the 25ms sampler a few ticks so `top` sees moving windows.
    std::thread::sleep(std::time::Duration::from_millis(300));

    let (ok, text) = run(&["profile", "--addr", &addr]);
    assert!(ok, "{text}");
    assert!(text.contains("server.request"), "slowlog profile misses the request root: {text}");
    assert!(text.contains("server.request > "), "no nested path under the request: {text}");

    let (ok, text) = run(&["top", "--addr", &addr, "--frames", "1", "--window-ms", "5000"]);
    assert!(ok, "{text}");
    assert!(text.contains("health: ok"), "{text}");
    assert!(text.contains("counters (by rate):"), "{text}");
    assert!(text.contains("server.served"), "{text}");
    assert!(text.contains("histograms (windowed):"), "{text}");

    let bye = send(r#"{"op":"shutdown"}"#);
    assert!(bye.contains("\"draining\":true"), "{bye}");
    assert!(child.wait().expect("serve exit").success());

    // Flag validation: the two sources are exclusive, and one is required.
    let (ok, text) = run(&["profile"]);
    assert!(!ok);
    assert!(text.contains("--in or --addr"), "{text}");
    let (ok, text) = run(&["profile", "--in", "x", "--addr", "y"]);
    assert!(!ok);
    assert!(text.contains("mutually exclusive"), "{text}");

    let _ = std::fs::remove_dir_all(&data);
}

#[test]
fn helpful_errors() {
    let (ok, text) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"), "{text}");

    let (ok, text) = run(&["query", "--data", "/nonexistent-rsky-dir"]);
    assert!(!ok);
    assert!(text.contains("error:"), "{text}");

    let (ok, text) = run(&["help", "query"]);
    assert!(ok);
    assert!(text.contains("--memory PCT"), "{text}");
}
