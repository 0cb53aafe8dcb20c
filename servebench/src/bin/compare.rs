//! `compare` — judges a change's benchmark results against its parent's.
//!
//! ```text
//! compare --parent DIR --change DIR [--claim METRIC:WORKLOAD] [--benchmark BENCHMARK.json]
//! ```
//!
//! Each directory holds the `*-trace0.json` results `servebench --out DIR`
//! wrote, one per workload and seed; runs of the same seed on both sides
//! form a pair. Runs whose headers differ in anything but commit, seed and
//! workload are refused. A claimed metric and workload must win at least
//! nine in ten pairs by more than the parent's interquartile distance;
//! every other metric and workload must stay within its `BENCHMARK.json`
//! bound, or is reported unresolved when the runs spread wider than it.
//! Exits 0 when the change passes, 1 when it does not, 2 on bad input.

use std::path::PathBuf;

use servebench::compare::{compare, load_dir, metric_specs};

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("compare: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<bool, String> {
    let mut parent = None;
    let mut change = None;
    let mut claim = None;
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--parent" => parent = Some(PathBuf::from(value)),
            "--change" => change = Some(PathBuf::from(value)),
            "--benchmark" => benchmark = PathBuf::from(value),
            "--claim" => {
                let (metric, workload) = value
                    .split_once(':')
                    .ok_or("--claim takes METRIC:WORKLOAD")?;
                claim = Some((metric.to_string(), workload.to_string()));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let text =
        std::fs::read_to_string(&benchmark).map_err(|e| format!("{}: {e}", benchmark.display()))?;
    let specs = metric_specs(&text)?;
    let parent = load_dir(&parent.ok_or("--parent is required")?)?;
    let change = load_dir(&change.ok_or("--change is required")?)?;
    let claim = claim.as_ref().map(|(m, w)| (m.as_str(), w.as_str()));
    let (report, pass) = compare(&specs, &parent, &change, claim)?;
    print!("{report}");
    println!("{}", if pass { "PASS" } else { "FAIL" });
    Ok(pass)
}
