//! `mirror_probe`: verify that a mirror really serves its origin's
//! atlas — the client-side check of the dissemination chain.
//!
//! Fetches the full shard-0 atlas from both servers over the wire (the
//! same chunked, checksummed path any peer bootstrap uses), asserts the
//! epoch tags match, then asks both servers the same `--queries` random
//! ring queries and asserts the answers are identical.
//!
//! Every failure path names the role (`origin`/`mirror`), address and
//! shard it died on, and the probe's last stderr word is one typed
//! summary line — `PROBE OK` or
//! `PROBE FAIL role=... addr=... shard=... stage=...` — so a harness
//! can grep the verdict without parsing the story above it. On success
//! stdout carries exactly one BENCH JSON line, as ever.
//!
//! Usage: `mirror_probe --origin ADDR --mirror ADDR [--ring N]
//!         [--queries Q]`

use inano_bench::report::bench_line;
use inano_core::AtlasReader;
use inano_model::rng::rng_for;
use inano_net::cli::arg;
use inano_net::demo::ring_ip;
use inano_net::NetClient;
use rand::Rng;
use serde::Serialize;

/// The BENCH record; `mismatches` is 0 by construction (any mismatch
/// fails the probe before the record is written).
#[derive(Serialize)]
struct Record {
    bench: &'static str,
    tag: String,
    atlas_bytes: u64,
    chunks: u32,
    parity_queries: usize,
    mismatches: usize,
}

/// The probed shard: both fetch paths and the parity batch talk to the
/// default shard only.
const SHARD: u16 = 0;

/// Tell the failure story, emit the typed summary line, exit non-zero.
fn fail(role: &str, addr: &str, stage: &str, why: impl std::fmt::Display) -> ! {
    eprintln!("mirror_probe: {stage} against {role} {addr} (shard {SHARD}): {why}");
    eprintln!("PROBE FAIL role={role} addr={addr} shard={SHARD} stage={stage}");
    std::process::exit(1);
}

fn main() {
    let origin: String = arg("--origin", String::new());
    let mirror: String = arg("--mirror", String::new());
    let ring: u32 = arg("--ring", 64);
    let queries: usize = arg("--queries", 500);
    if origin.is_empty() || mirror.is_empty() {
        eprintln!("usage: mirror_probe --origin ADDR --mirror ADDR [--ring N] [--queries Q]");
        std::process::exit(2);
    }

    // The client fetch: both atlases arrive over the wire through the
    // chunked AtlasSource the servers expose.
    let reader = AtlasReader::default();
    let mut origin_client =
        NetClient::connect(&origin).unwrap_or_else(|e| fail("origin", &origin, "connect", e));
    let mut mirror_client =
        NetClient::connect(&mirror).unwrap_or_else(|e| fail("mirror", &mirror, "connect", e));
    let (origin_head, origin_bytes) = reader
        .fetch_full(&mut origin_client)
        .unwrap_or_else(|e| fail("origin", &origin, "fetch-full", e));
    let (mirror_head, mirror_bytes) = reader
        .fetch_full(&mut mirror_client)
        .unwrap_or_else(|e| fail("mirror", &mirror, "fetch-full", e));
    if origin_head.epoch_tag != mirror_head.epoch_tag {
        fail(
            "mirror",
            &mirror,
            "atlas-parity",
            format!(
                "serves tag {:#018x} (day {}) but the origin serves {:#018x} (day {})",
                mirror_head.epoch_tag, mirror_head.day, origin_head.epoch_tag, origin_head.day
            ),
        );
    }
    if origin_bytes != mirror_bytes {
        fail(
            "mirror",
            &mirror,
            "atlas-parity",
            "tag equal but bytes differ?!",
        );
    }
    eprintln!(
        "atlas parity: day {}, tag {:#018x}, {} bytes in {} chunk(s) from each server",
        origin_head.day,
        origin_head.epoch_tag,
        origin_head.full_len,
        origin_head.n_chunks(),
    );

    // The query parity check: identical predictions from both ends.
    let mut rng = rng_for(7, "mirror-probe");
    let pairs: Vec<_> = (0..queries)
        .map(|_| {
            let s = rng.gen_range(0..ring);
            let d = (s + rng.gen_range(1..ring)) % ring;
            (ring_ip(s), ring_ip(d))
        })
        .collect();
    let from_origin = origin_client
        .query_batch(&pairs)
        .unwrap_or_else(|e| fail("origin", &origin, "query-batch", e));
    let from_mirror = mirror_client
        .query_batch(&pairs)
        .unwrap_or_else(|e| fail("mirror", &mirror, "query-batch", e));
    let mut mismatches = 0usize;
    for (i, (a, b)) in from_origin.iter().zip(&from_mirror).enumerate() {
        // Routes and AS paths must agree exactly; RTT/loss only to
        // float accumulation error — the origin may serve an in-memory
        // atlas whose latencies were never quantised through the
        // codec, so per-hop sums can differ in the last ulp.
        let agrees = match (a, b) {
            (Ok(a), Ok(b)) => {
                a.fwd_clusters == b.fwd_clusters
                    && a.rev_clusters == b.rev_clusters
                    && a.fwd_as == b.fwd_as
                    && a.rev_as == b.rev_as
                    && (a.rtt_ms - b.rtt_ms).abs() < 1e-9
                    && (a.loss - b.loss).abs() < 1e-9
            }
            (Err(a), Err(b)) => a.code == b.code,
            _ => false,
        };
        if !agrees {
            mismatches += 1;
            if mismatches <= 3 {
                eprintln!("pair {i} diverges:\n  origin: {a:?}\n  mirror: {b:?}");
            }
        }
    }
    if mismatches > 0 {
        fail(
            "mirror",
            &mirror,
            "query-parity",
            format!("{mismatches} of {queries} queries diverge from the origin"),
        );
    }

    bench_line(&Record {
        bench: "mirror_probe",
        tag: format!("{:#018x}", origin_head.epoch_tag),
        atlas_bytes: origin_head.full_len,
        chunks: origin_head.n_chunks(),
        parity_queries: queries,
        mismatches,
    });
    eprintln!("PROBE OK origin={origin} mirror={mirror} shard={SHARD}");
}
