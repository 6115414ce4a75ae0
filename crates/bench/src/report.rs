//! Report output: paper-style text to stdout, JSON to
//! `target/experiments/` when `--json` is passed, and the one-line
//! BENCH records the throughput and fleet binaries emit.

use inano_model::stats::Ecdf;
use serde::Serialize;
use std::fs;
use std::path::PathBuf;

/// Emit a report: always prints `text`; with `--json` in argv, also
/// writes `value` to `target/experiments/<name>.json`.
pub fn emit<T: Serialize>(name: &str, text: &str, value: &T) {
    println!("{text}");
    if std::env::args().any(|a| a == "--json") {
        let dir = PathBuf::from("target/experiments");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join(format!("{name}.json"));
        match serde_json::to_string_pretty(value) {
            Ok(s) => {
                if let Err(e) = fs::write(&path, s) {
                    eprintln!("could not write {}: {e}", path.display());
                } else {
                    eprintln!("wrote {}", path.display());
                }
            }
            Err(e) => eprintln!("could not serialise {name}: {e}"),
        }
    }
}

/// Print `record` as the one BENCH JSON line a bench binary writes to
/// stdout. Every contract line goes through here, so key order is the
/// record's field order and strings are escaped one way.
pub fn bench_line<T: Serialize>(record: &T) {
    println!(
        "{}",
        serde_json::to_string(record).expect("a BENCH record serialises")
    );
}

/// `x` rounded to `decimals` places, for record fields whose
/// precision beyond that is noise.
pub fn rounded(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Format an ECDF as "value fraction" rows at the given percentile grid —
/// the text analogue of the paper's CDF figures.
pub fn cdf_rows(label: &str, e: &Ecdf) -> String {
    let mut out = format!("# CDF: {label} (n={})\n", e.len());
    if e.is_empty() {
        out.push_str("(no samples)\n");
        return out;
    }
    for q in [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99] {
        out.push_str(&format!(
            "  p{:<4} {:>10.3}\n",
            (q * 100.0) as u32,
            e.quantile(q)
        ));
    }
    out
}

/// A generic (series name, x, y) triple for JSON output of figures.
#[derive(Serialize)]
pub struct SeriesPoint {
    pub series: String,
    pub x: f64,
    pub y: f64,
}

/// Percent formatting helper.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}
