//! Compares a parent and a change set of untraced results: the
//! choosing-metrics §8 rule for one claimed metric and workload, and the
//! per-metric bound from `BENCHMARK.json` for every other pairing.

use std::collections::BTreeMap;
use std::path::Path;

use crate::header::comparable_fields;
use crate::json::{parse, Json};
use crate::stats::{bound_verdict, claim_verdict, median, Better, BoundVerdict};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// Reads the end-to-end metrics of a `BENCHMARK.json` document.
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn metric_specs(benchmark: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = parse(benchmark)?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry lacks {k}"));
            Ok(MetricSpec {
                name: field("name")?
                    .as_str()
                    .ok_or("name is not a string")?
                    .into(),
                unit: field("unit")?
                    .as_str()
                    .ok_or("unit is not a string")?
                    .into(),
                better: field("better")?
                    .as_str()
                    .and_then(Better::parse)
                    .ok_or("better is not lower/higher")?,
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// One untraced result file.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// File it came from.
    pub file: String,
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// The generator kept to its schedule.
    pub valid: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Header fields that must match across compared runs.
    pub comparable: Vec<(String, String)>,
    /// End-to-end metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses one result file's text.
///
/// # Errors
///
/// A description of what is missing.
pub fn parse_result(file: &str, text: &str) -> Result<RunResult, String> {
    let doc = parse(text).map_err(|e| format!("{file}: {e}"))?;
    let header = doc.get("header").ok_or(format!("{file}: no header"))?;
    let text_field = |k: &str| {
        header
            .get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or(format!("{file}: header lacks {k}"))
    };
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or(format!("{file}: no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(RunResult {
        file: file.to_string(),
        workload: text_field("workload")?,
        seed: text_field("seed")?
            .parse()
            .map_err(|e| format!("{file}: seed: {e}"))?,
        valid: doc.get("valid").and_then(Json::as_bool).unwrap_or(false),
        correct: doc.get("correct").and_then(Json::as_bool).unwrap_or(false),
        comparable: comparable_fields(header),
        metrics,
    })
}

/// Loads every untraced result (`*-trace0.json`) in `dir`.
///
/// # Errors
///
/// An unreadable directory or file, or a malformed result.
pub fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with("-trace0.json"))
        .collect();
    files.sort();
    files
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            parse_result(&p.display().to_string(), &text)
        })
        .collect()
}

/// Refuses to compare runs whose headers differ in anything but commit,
/// seed and workload.
///
/// # Errors
///
/// The first pair of differing headers.
pub fn check_headers(runs: &[&RunResult]) -> Result<(), String> {
    let Some(first) = runs.first() else {
        return Ok(());
    };
    for r in runs {
        if r.comparable != first.comparable {
            return Err(format!(
                "headers differ: {} has {:?}, {} has {:?}",
                first.file, first.comparable, r.file, r.comparable
            ));
        }
    }
    Ok(())
}

/// The full comparison as text, and whether it passed: no regression, no
/// failed output check on the change side, and the claim (if any) holds.
pub fn compare(
    specs: &[MetricSpec],
    parent: &[RunResult],
    change: &[RunResult],
    claim: Option<(&str, &str)>,
) -> Result<(String, bool), String> {
    let all: Vec<&RunResult> = parent.iter().chain(change).collect();
    check_headers(&all)?;
    let mut out = String::new();
    let mut pass = true;
    let invalid: Vec<&str> = all
        .iter()
        .filter(|r| !r.valid)
        .map(|r| r.file.as_str())
        .collect();
    if !invalid.is_empty() {
        out += &format!(
            "excluded as invalid (generator lag over the stated share of the limit): {}\n",
            invalid.join(", ")
        );
    }
    if let Some(bad) = change.iter().find(|r| !r.correct) {
        out += &format!("change failed an output check: {}\n", bad.file);
        pass = false;
    }
    let workloads: Vec<String> = {
        let mut w: Vec<String> = all.iter().map(|r| r.workload.clone()).collect();
        w.sort();
        w.dedup();
        w
    };
    let side = |runs: &[RunResult], w: &str, m: &str| -> Vec<(u64, f64)> {
        let mut v: Vec<(u64, f64)> = runs
            .iter()
            .filter(|r| r.valid && r.workload == w)
            .filter_map(|r| Some((r.seed, *r.metrics.get(m)?)))
            .collect();
        v.sort_by_key(|x| x.0);
        v
    };

    if let Some((metric, workload)) = claim {
        let spec = specs
            .iter()
            .find(|s| s.name == metric)
            .ok_or(format!("claimed metric {metric} is not in BENCHMARK.json"))?;
        let p = side(parent, workload, metric);
        let c = side(change, workload, metric);
        let pairs: Vec<(f64, f64)> = p
            .iter()
            .filter_map(|(seed, pv)| c.iter().find(|(s, _)| s == seed).map(|(_, cv)| (*pv, *cv)))
            .collect();
        match claim_verdict(&pairs, spec.better) {
            Some(v) => {
                out += &format!(
                    "claim {metric} on {workload}: change won {}/{} seed pairs; medians {:.4} \
                     -> {:.4} {}; parent IQR {:.4}: {}\n",
                    v.wins,
                    v.pairs,
                    v.parent_median,
                    v.change_median,
                    spec.unit,
                    v.parent_iqr,
                    if v.holds { "HOLDS" } else { "NOT MET" }
                );
                pass &= v.holds;
            }
            None => {
                out += &format!("claim {metric} on {workload}: fewer than two seed pairs\n");
                pass = false;
            }
        }
    }

    out += "cells: parent -> change median (change against parent, + is better)\n";
    out += &format!("{:<14}", "workload");
    for s in specs {
        out += &format!(" | {:<24}", format!("{} ({})", s.name, s.unit));
    }
    out.push('\n');
    for w in &workloads {
        out += &format!("{w:<14}");
        for s in specs {
            if claim == Some((s.name.as_str(), w.as_str())) {
                out += &format!(" | {:<24}", "claimed (see above)");
                continue;
            }
            let p: Vec<f64> = side(parent, w, &s.name).iter().map(|x| x.1).collect();
            let c: Vec<f64> = side(change, w, &s.name).iter().map(|x| x.1).collect();
            let cell = if p.len() < 2 || c.len() < 2 {
                "too few runs".to_string()
            } else {
                let base = format!("{:.4}->{:.4}", median(&p), median(&c));
                match bound_verdict(&p, &c, s.better, s.bound) {
                    BoundVerdict::WithinBound { worse_share } => {
                        format!("ok {base} ({:+.1}%)", -worse_share * 100.0)
                    }
                    BoundVerdict::AllBetter => format!("better {base}"),
                    BoundVerdict::Regressed { worse_share } => {
                        pass = false;
                        format!("REGRESSED {base} ({:+.1}%)", -worse_share * 100.0)
                    }
                    BoundVerdict::Unresolved { spread } => {
                        format!("unresolved (spread {:.0}%)", spread * 100.0)
                    }
                }
            };
            out += &format!(" | {cell:<24}");
        }
        out.push('\n');
    }
    Ok((out, pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use crate::json::ObjWriter;

    fn result(seed: u64, commit: &str, p50: f64, nproc: usize) -> RunResult {
        let header = Header {
            nproc,
            kernel_backend: "avx2-fma".into(),
            queue_kind: "lockfree".into(),
            force_scalar: "unset".into(),
            threads_env: "unset".into(),
            cpu_workers: 1,
            commit: commit.into(),
            seed,
            mode: "untraced/10s".into(),
            workload: "colo_steady".into(),
        };
        let text = ObjWriter::new()
            .raw("header", header.to_json())
            .raw("correct", "true")
            .raw("valid", "true")
            .raw(
                "metrics",
                ObjWriter::new()
                    .raw(
                        "p50_ms",
                        ObjWriter::new()
                            .num("value", p50)
                            .str("unit", "ms")
                            .finish(),
                    )
                    .finish(),
            )
            .finish();
        parse_result(&format!("{commit}-{seed}"), &text).unwrap()
    }

    const BENCH: &str =
        r#"{"end_to_end":[{"name":"p50_ms","unit":"ms","better":"lower","bound":0.1}]}"#;

    #[test]
    fn claim_and_bounds_are_reported_per_workload() {
        let specs = metric_specs(BENCH).unwrap();
        let parent: Vec<_> = (0..10)
            .map(|s| result(s, "a", 2.0 + s as f64 * 0.01, 2))
            .collect();
        let faster: Vec<_> = (0..10)
            .map(|s| result(s, "b", 1.5 + s as f64 * 0.01, 2))
            .collect();
        let (text, pass) =
            compare(&specs, &parent, &faster, Some(("p50_ms", "colo_steady"))).unwrap();
        assert!(pass, "{text}");
        assert!(
            text.contains("won 10/10") && text.contains("HOLDS"),
            "{text}"
        );

        let slower: Vec<_> = (0..10)
            .map(|s| result(s, "b", 2.5 + s as f64 * 0.01, 2))
            .collect();
        let (text, pass) = compare(&specs, &parent, &slower, None).unwrap();
        assert!(!pass);
        assert!(text.contains("REGRESSED"), "{text}");
    }

    #[test]
    fn differing_headers_are_refused() {
        let specs = metric_specs(BENCH).unwrap();
        let parent = vec![result(1, "a", 2.0, 2), result(2, "a", 2.0, 2)];
        let change = vec![result(1, "b", 2.0, 4), result(2, "b", 2.0, 4)];
        let err = compare(&specs, &parent, &change, None).unwrap_err();
        assert!(err.contains("headers differ"), "{err}");
    }
}
