//! The benchmark's one record writer. Each phase of a run prints one
//! JSON record on stdout, and the run ends with the summary line the
//! benchmark contract asks for. Everything goes through the vendored
//! `serde_json`.

use crate::stats::Quantile;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;

/// One timing percentile with the samples behind and beyond it.
#[derive(Serialize)]
pub struct Percentile {
    pub name: String,
    pub p: f64,
    pub value: f64,
    pub n: u64,
    pub beyond: u64,
}

impl Percentile {
    pub fn new(name: &str, q: Quantile) -> Percentile {
        Percentile {
            name: name.to_string(),
            p: q.p,
            value: q.value,
            n: q.n as u64,
            beyond: q.beyond as u64,
        }
    }
}

/// One phase of one run.
#[derive(Serialize)]
pub struct Record {
    pub bench: String,
    pub workload: String,
    pub phase: String,
    pub seed: u64,
    pub scenario_seed: u64,
    pub nproc: u64,
    pub revision: String,
    pub source_digest: String,
    pub inputs_digest: String,
    /// The workload's open-loop offered rate, requests per second.
    pub offered_rate: f64,
    pub counts: BTreeMap<String, u64>,
    pub values: BTreeMap<String, f64>,
    pub percentiles: Vec<Percentile>,
    /// The gain a change claims, named before it is measured; always
    /// null here, since defining the benchmark claims nothing.
    pub claim: Option<String>,
}

impl Record {
    pub fn count(&mut self, name: &str, v: u64) -> &mut Record {
        self.counts.insert(name.to_string(), v);
        self
    }

    pub fn value(&mut self, name: &str, v: f64) -> &mut Record {
        self.values.insert(name.to_string(), v);
        self
    }

    pub fn percentile(&mut self, name: &str, q: Quantile) -> &mut Record {
        self.percentiles.push(Percentile::new(name, q));
        self
    }
}

/// One named metric of the summary line.
#[derive(Serialize)]
pub struct Metric {
    pub value: f64,
    pub unit: String,
}

/// The summary line: exactly the keys the benchmark contract names.
#[derive(Serialize)]
pub struct Summary {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
}

/// Writes every record of a run; knows what all of them share.
pub struct Recorder {
    workload: String,
    seed: u64,
    offered_rate: f64,
    nproc: u64,
    revision: String,
    source_digest: String,
    inputs_digest: String,
}

impl Recorder {
    pub fn new(workload: &str, seed: u64, offered_rate: f64) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            seed,
            offered_rate,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            revision: git_revision(),
            source_digest: format!("{:016x}", source_digest(Path::new("crates"))),
            inputs_digest: String::new(),
        }
    }

    pub fn set_inputs_digest(&mut self, digest: u64) {
        self.inputs_digest = format!("{digest:016x}");
    }

    pub fn record(&self, phase: &str) -> Record {
        Record {
            bench: "perfbench".into(),
            workload: self.workload.clone(),
            phase: phase.to_string(),
            seed: self.seed,
            scenario_seed: crate::inputs::SCENARIO_SEED,
            nproc: self.nproc,
            revision: self.revision.clone(),
            source_digest: self.source_digest.clone(),
            inputs_digest: self.inputs_digest.clone(),
            offered_rate: self.offered_rate,
            counts: BTreeMap::new(),
            values: BTreeMap::new(),
            percentiles: Vec::new(),
            claim: None,
        }
    }

    pub fn emit(&self, record: &Record) {
        println!(
            "{}",
            serde_json::to_string(record).expect("records serialise")
        );
    }
}

/// Print the summary line. It must be the last line on stdout.
pub fn print_summary(summary: &Summary) {
    println!(
        "{}",
        serde_json::to_string(summary).expect("the summary serialises")
    );
}

/// The git revision of the working directory, or `"unknown"` outside a
/// repository (the source digest still identifies the code).
fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the paths and bytes of every source file under `root`,
/// visited in sorted order.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    let mut dirs = vec![root.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                dirs.push(p);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    inano_core::content_tag(&bytes)
}
