//! The *metric-name contract*: every metric emitted anywhere in the
//! workspace uses a name from the one metric vocabulary,
//! `rsky_core::obs::names::ALL`.
//!
//! The clauses:
//!
//! * the declared names are pairwise distinct — two rows naming the same
//!   string would silently merge series in every sink — and each row's
//!   help text is what `help_for` serves for its name;
//! * every **string literal** passed as the first argument to
//!   `counter_add` / `gauge_set` / `histogram_record` in non-test code
//!   equals, or is dot-prefixed by, a declared name. Names built at runtime
//!   (the registry sink's `format!("{}.{k}", …)` flattening) are out of
//!   scope by construction: they aren't literals. This clause reads the
//!   callers' source files, so it holds whatever the code says;
//! * every series a default health rule reads is a declared name or a
//!   declared span's `.wall_us` histogram.

use std::fs;
use std::path::{Path, PathBuf};

use rsky::core::obs::{help_for, names};
use rsky::server::RuleKind;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn declared(name: &str) -> bool {
    names::ALL.iter().any(|&(n, _)| n == name)
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// String literals passed as the first argument to one of the emit methods,
/// with non-test code only (everything from the first `#[cfg(test)]` down
/// is a test module in this codebase's layout).
fn literal_first_args(src: &str) -> Vec<String> {
    let code = match src.find("#[cfg(test)]") {
        Some(i) => &src[..i],
        None => src,
    };
    let mut found = Vec::new();
    for method in ["counter_add", "gauge_set", "histogram_record"] {
        let mut rest = code;
        while let Some(i) = rest.find(method) {
            let after = &rest[i + method.len()..];
            rest = after;
            let after = after.trim_start();
            let Some(args) = after.strip_prefix('(') else { continue };
            let Some(lit) = args.trim_start().strip_prefix('"') else { continue };
            let end = lit.find('"').expect("unterminated string literal");
            found.push(lit[..end].to_string());
        }
    }
    found
}

#[test]
fn canonical_name_constants_are_pairwise_distinct() {
    let all = names::ALL;
    assert!(all.len() >= 10, "suspiciously few rows: {all:?}");
    // The pruner-exchange counters are part of the public metric surface
    // (registry-exported, scraped by the Prometheus endpoint) — losing one
    // in a refactor is a contract break, not a cleanup.
    // Same for the view-maintenance surface: the delta/fallback counters
    // are what lets an operator tell incremental maintenance from silent
    // full recomputes. And for the best-first search counters: heap pushes
    // and group kills are the only external signal that the bound ordering
    // is actually cutting subtrees.
    for required in [
        "trs-bf.heap.pushes",
        "trs-bf.group.kills",
        "shard.exchange.pruners",
        "shard.phase2.candidates.pre",
        "shard.phase2.candidates.post",
        "view.delta.add",
        "view.delta.remove",
        "view.fallback",
        "view.cache.hit",
        "view.frames",
        "view.live",
        // The continuous-telemetry surface: the sampler's self-measurement
        // and the SLO verdict gauge are what `rsky top` and the health op
        // are built on — renaming one silently blinds both.
        "obs.sample_us",
        "obs.ticks",
        "obs.dropped_series",
        "rsky_health",
        "health.evals",
        "health.transitions",
    ] {
        assert!(declared(required), "metric {required:?} missing from the vocabulary");
    }
    for (i, (a, _)) in all.iter().enumerate() {
        for (b, _) in &all[i + 1..] {
            assert_ne!(a, b, "two rows both name {a:?} — their series would merge");
        }
    }
    for &(name, help) in all {
        assert!(!help.is_empty() && !help.contains('\n'), "{name}: help must be one line");
        assert_eq!(help_for(name), help, "help_for({name:?}) serves another row's text");
    }
}

#[test]
fn every_literal_metric_name_comes_from_the_canonical_vocabulary() {
    let root = workspace_root();
    // Sweep every crate's src/ tree plus the facade's. Bench executables
    // (crates/bench/benches/) are out of scope: their synthetic series
    // (`bench.*`) never leave the bench process.
    let mut files = Vec::new();
    for entry in fs::read_dir(root.join("crates")).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            rs_files(&src, &mut files);
        }
    }
    rs_files(&root.join("src"), &mut files);
    assert!(files.len() >= 18, "source sweep found only {} files", files.len());

    let mut violations = Vec::new();
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        // obs.rs itself defines the emit methods and the generic plumbing
        // that forwards `name` variables — no literals there either, but
        // skipping it keeps the sweep about *callers*.
        if path.ends_with("core/src/obs.rs") {
            continue;
        }
        for lit in literal_first_args(&src) {
            let ok =
                names::ALL.iter().any(|&(v, _)| lit == v || lit.starts_with(&format!("{v}.")));
            if !ok {
                violations.push(format!("{}: {lit:?}", path.display()));
            }
        }
    }
    assert!(
        violations.is_empty(),
        "metric names not in obs::names::ALL:\n{}",
        violations.join("\n")
    );
}

#[test]
fn default_health_rules_read_declared_series() {
    let rules = rsky::server::health::default_rules();
    let mut read = Vec::new();
    for rule in &rules {
        match &rule.kind {
            RuleKind::Rate | RuleKind::Quantile(_) => read.push(rule.metric.clone()),
            RuleKind::Burn { bad, good, .. } => read.extend(bad.iter().chain(good).cloned()),
        }
    }
    assert!(read.len() >= rules.len(), "every rule reads a series: {read:?}");
    for metric in read {
        let ok = declared(&metric) || metric.strip_suffix(".wall_us").is_some_and(declared);
        assert!(ok, "a default health rule reads {metric:?}, which is not declared");
    }
}
