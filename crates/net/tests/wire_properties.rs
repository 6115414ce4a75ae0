//! Property tests for the wire codec: encode → decode is the identity
//! for every frame type (request id included), error frames round-trip
//! every defined code, and the limit edges behave exactly at the
//! boundary — a batch of `max_batch` pairs decodes, `max_batch + 1`
//! is a typed per-frame error, a payload of `max_frame_bytes` decodes,
//! one byte more is fatal.

use inano_core::{AtlasVersion, DeltaHandle};
use inano_model::{ErrorCode, Ipv4};
use inano_net::wire::{
    datagram_cap, decode_datagram, read_frame, DatagramError, Frame, Limits, ReadError,
    CHUNK_WIRE_OVERHEAD, HEADER_BYTES, TRACE_FLAG,
};
use inano_net::{chunk_size_for, WireFault, WirePath, WireResolution, WireShardInfo};
use inano_obs::{
    Event, EventKind, EventsPage, MetricValue, MetricsDump, MetricsRegistry, TraceTimings,
};
use inano_service::ShardId;
use proptest::prelude::*;

prop_compose! {
    fn arb_fault()(
        code_idx in 0usize..ErrorCode::ALL.len(),
        message in proptest::collection::vec(32u8..127, 0..80),
    ) -> WireFault {
        WireFault::new(
            ErrorCode::ALL[code_idx],
            String::from_utf8(message).expect("printable ASCII"),
        )
    }
}

prop_compose! {
    fn arb_path()(
        fwd_clusters in proptest::collection::vec(any::<u32>(), 0..12),
        rev_clusters in proptest::collection::vec(any::<u32>(), 0..12),
        fwd_as in proptest::collection::vec(any::<u32>(), 0..8),
        rev_as in proptest::collection::vec(any::<u32>(), 0..8),
        rtt_ms in 0.0f64..1e4,
        loss in 0.0f64..1.0,
    ) -> WirePath {
        WirePath { fwd_clusters, rev_clusters, fwd_as, rev_as, rtt_ms, loss }
    }
}

prop_compose! {
    fn arb_resolution()(
        prefix in any::<u32>(),
        cluster in any::<u32>(),
        origin_as in proptest::option::of(any::<u32>()),
        cluster_as in proptest::option::of(any::<u32>()),
        refined_providers in any::<bool>(),
    ) -> WireResolution {
        WireResolution { prefix, cluster, origin_as, cluster_as, refined_providers }
    }
}

prop_compose! {
    fn arb_shard_info()(
        shard in any::<u16>(),
        epoch in any::<u64>(),
        day in any::<u32>(),
    ) -> WireShardInfo {
        WireShardInfo { shard, epoch, day }
    }
}

prop_compose! {
    fn arb_version()(
        day in any::<u32>(),
        epoch_tag in any::<u64>(),
        full_len in any::<u64>(),
        chunk_size in any::<u32>(),
    ) -> AtlasVersion {
        AtlasVersion { day, epoch_tag, full_len, chunk_size }
    }
}

prop_compose! {
    fn arb_delta_handle()(
        from_day in any::<u32>(),
        to_day in any::<u32>(),
        len in any::<u64>(),
        chunk_size in any::<u32>(),
    ) -> DeltaHandle {
        DeltaHandle { from_day, to_day, len, chunk_size }
    }
}

prop_compose! {
    fn arb_metric_value()(
        kind in 0usize..3,
        v in any::<u64>(),
        buckets in proptest::collection::vec(any::<u64>(), 0..40),
    ) -> MetricValue {
        match kind {
            0 => MetricValue::Counter(v),
            1 => MetricValue::Gauge(v),
            _ => MetricValue::Histogram(buckets),
        }
    }
}

prop_compose! {
    // Sorted and name-deduped, matching the invariant `MetricsDump`
    // holds (and the decoder restores), so round-trip equality is fair.
    fn arb_dump()(
        raw in proptest::collection::vec(
            (proptest::collection::vec(97u8..123, 1..24), arb_metric_value()),
            0..12,
        ),
    ) -> MetricsDump {
        let mut entries: Vec<(String, MetricValue)> = raw
            .into_iter()
            .map(|(name, v)| (String::from_utf8(name).expect("ascii"), v))
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries.dedup_by(|a, b| a.0 == b.0);
        MetricsDump { entries }
    }
}

prop_compose! {
    fn arb_timings()(
        decode_us in any::<u32>(),
        queue_us in any::<u32>(),
        engine_us in any::<u32>(),
        encode_us in any::<u32>(),
    ) -> TraceTimings {
        TraceTimings { decode_us, queue_us, engine_us, encode_us }
    }
}

prop_compose! {
    fn arb_event_kind()(code in 1u8..=9) -> EventKind {
        EventKind::from_code(code).expect("codes 1..=9 are all defined")
    }
}

prop_compose! {
    // Strictly increasing seqs, as the journal guarantees and the
    // decoder restores (it re-sorts by seq), so round-trip equality
    // is fair.
    fn arb_events_page()(
        start in 0u64..1_000_000,
        lost in any::<u64>(),
        raw in proptest::collection::vec(
            (
                1u64..50,
                any::<u32>(),
                arb_event_kind(),
                proptest::collection::vec(32u8..127, 0..40),
            ),
            0..10,
        ),
    ) -> EventsPage {
        let mut seq = start;
        let events: Vec<Event> = raw
            .into_iter()
            .map(|(gap, t_ms, kind, detail)| {
                seq += gap;
                Event {
                    seq,
                    t_ms: t_ms as u64,
                    kind,
                    detail: String::from_utf8(detail).expect("printable ASCII"),
                }
            })
            .collect();
        let next_seq = events.last().map(|e| e.seq + 1).unwrap_or(start);
        EventsPage { events, lost, next_seq }
    }
}

prop_compose! {
    fn arb_result()(
        is_ok in any::<bool>(),
        path in arb_path(),
        fault in arb_fault(),
    ) -> Result<WirePath, WireFault> {
        if is_ok { Ok(path) } else { Err(fault) }
    }
}

// One strategy per frame type, selected by index so every variant is
// exercised (the stand-in proptest has no `prop_oneof!`).
prop_compose! {
    fn arb_frame()(
        variant in 0usize..23,
        shard in any::<u16>(),
        pairs in proptest::collection::vec((any::<u32>(), any::<u32>()), 0..40),
        results in proptest::collection::vec(arb_result(), 0..20),
        ip in any::<u32>(),
        resolution in arb_resolution(),
        epoch in any::<u64>(),
        day in any::<u32>(),
        shard_infos in proptest::collection::vec(arb_shard_info(), 0..16),
        version in arb_version(),
        handle in proptest::option::of(arb_delta_handle()),
        epoch_tag in any::<u64>(),
        idx in any::<u32>(),
        crc in any::<u64>(),
        chunk in proptest::collection::vec(any::<u8>(), 0..300),
        fault in arb_fault(),
        dump in arb_dump(),
        timings in arb_timings(),
        page in arb_events_page(),
    ) -> Frame {
        match variant {
            0 => Frame::Ping,
            1 => Frame::Pong,
            2 => Frame::QueryBatch {
                shard: ShardId(shard),
                pairs: pairs.into_iter().map(|(s, d)| (Ipv4(s), Ipv4(d))).collect(),
            },
            3 => Frame::PathBatch { results },
            4 => Frame::Resolve { shard: ShardId(shard), ip: Ipv4(ip) },
            5 => Frame::ResolveReply { resolution },
            6 => Frame::Epoch { shard: ShardId(shard) },
            7 => Frame::EpochReply { epoch, day },
            8 => Frame::ListShards,
            9 => Frame::ShardsReply { shards: shard_infos },
            10 => Frame::AtlasHead { shard: ShardId(shard) },
            11 => Frame::AtlasHeadReply { version },
            12 => Frame::FetchFullChunk { shard: ShardId(shard), epoch_tag, idx },
            13 => Frame::FetchDelta { shard: ShardId(shard), have_day: day },
            14 => Frame::DeltaReply { handle },
            15 => Frame::FetchDeltaChunk { shard: ShardId(shard), from_day: day, idx },
            16 => Frame::ChunkReply { idx, crc, bytes: chunk },
            17 => Frame::Error { fault },
            18 => Frame::Metrics,
            19 => Frame::MetricsReply { dump },
            20 => Frame::TraceReply { timings },
            21 => Frame::Events { since_seq: epoch },
            _ => Frame::EventsReply { page },
        }
    }
}

fn decode(bytes: &[u8], limits: &Limits) -> Result<Option<(u64, Frame)>, ReadError> {
    read_frame(&mut &bytes[..], limits)
}

proptest! {
    #[test]
    fn every_frame_type_round_trips(frame in arb_frame(), id in any::<u64>()) {
        let bytes = frame.encode(id);
        let (got_id, got) = decode(&bytes, &Limits::default())
            .expect("well-formed frame decodes")
            .expect("not EOF");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn error_frames_round_trip_every_code(fault in arb_fault(), id in any::<u64>()) {
        let frame = Frame::Error { fault };
        let bytes = frame.encode(id);
        let (got_id, got) = decode(&bytes, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, frame);
    }

    #[test]
    fn batch_limit_edge_is_exact(spare in 0u32..4) {
        // Small limit so the test is cheap; the check is on the count,
        // not the byte size.
        let limits = Limits { max_frame_bytes: 1 << 20, max_batch: 64 + spare };
        let at_limit = Frame::QueryBatch {
            shard: ShardId(spare as u16),
            pairs: vec![(Ipv4(1), Ipv4(2)); limits.max_batch as usize],
        };
        let (_, got) = decode(&at_limit.encode(1), &limits)
            .expect("at the limit decodes")
            .unwrap();
        prop_assert_eq!(got, at_limit);

        let over = Frame::QueryBatch {
            shard: ShardId(spare as u16),
            pairs: vec![(Ipv4(1), Ipv4(2)); limits.max_batch as usize + 1],
        };
        match decode(&over.encode(2), &limits) {
            Err(ReadError::Frame { request_id, fault }) => {
                prop_assert_eq!(request_id, 2);
                prop_assert_eq!(fault.code, ErrorCode::BatchTooLarge);
            }
            other => prop_assert!(false, "want per-frame error, got {other:?}"),
        }
    }

    #[test]
    fn frame_size_limit_edge_is_exact(pad in 0u32..32) {
        // An Error frame whose payload lands exactly on the limit.
        let msg_len = 100 + pad as usize;
        let frame = Frame::Error {
            fault: WireFault::new(ErrorCode::NoPath, "x".repeat(msg_len)),
        };
        let bytes = frame.encode(5);
        let payload_len = (bytes.len() - HEADER_BYTES) as u32;

        let exact = Limits { max_frame_bytes: payload_len, max_batch: 16 };
        let (_, got) = decode(&bytes, &exact).expect("exactly at the limit").unwrap();
        prop_assert_eq!(got, frame);

        let tight = Limits { max_frame_bytes: payload_len - 1, max_batch: 16 };
        match decode(&bytes, &tight) {
            Err(ReadError::Fatal(fault)) => {
                prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
            }
            other => prop_assert!(false, "want fatal, got {other:?}"),
        }
    }

    #[test]
    fn chunk_replies_cut_by_chunk_size_for_always_fit_the_frame_limit(
        max_frame in 32u32..8192,
        fill in any::<u8>(),
    ) {
        // The sender-side rule (`chunk_size_for`) and the receiver-side
        // limit must agree at the exact edge: a maximal chunk decodes,
        // and one extra byte in the body is a fatal FrameTooLarge.
        let limits = Limits { max_frame_bytes: max_frame, max_batch: 16 };
        let cs = chunk_size_for(&limits);
        prop_assert!(cs >= 1);
        let frame = Frame::ChunkReply {
            idx: 0,
            crc: 7,
            bytes: vec![fill; cs as usize],
        };
        let bytes = frame.encode(3);
        let payload = (bytes.len() - HEADER_BYTES) as u32;
        prop_assert!(payload <= max_frame, "payload {payload} over {max_frame}");
        let (_, got) = decode(&bytes, &limits).expect("maximal chunk decodes").unwrap();
        prop_assert_eq!(got, frame);

        if payload == max_frame {
            // Exactly at the edge: cs + overhead filled the frame, so
            // one more body byte must be refused from the header alone.
            let over = Frame::ChunkReply {
                idx: 0,
                crc: 7,
                bytes: vec![fill; cs as usize + 1],
            };
            match decode(&over.encode(4), &limits) {
                Err(ReadError::Fatal(fault)) => {
                    prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
                }
                other => prop_assert!(false, "want fatal, got {other:?}"),
            }
            prop_assert_eq!(payload, cs + CHUNK_WIRE_OVERHEAD);
        }
    }

    #[test]
    fn truncated_payloads_never_panic(frame in arb_frame(), cut in 1usize..24) {
        let bytes = frame.encode(9);
        if bytes.len() > HEADER_BYTES {
            let cut_at = HEADER_BYTES + (bytes.len() - HEADER_BYTES).saturating_sub(cut);
            // Mid-frame EOF must surface as an io error, never a panic.
            match decode(&bytes[..cut_at], &Limits::default()) {
                Err(ReadError::Io(_)) | Ok(Some(_)) => {}
                other => prop_assert!(false, "unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn merging_per_server_dumps_equals_the_dump_of_combined_counters(
        incrs in proptest::collection::vec((0usize..6, any::<u32>(), any::<u32>()), 0..20),
    ) {
        // Two "servers" (A, B) each count some events; a third registry
        // C counts A's and B's events together. The fleet merge of A's
        // and B's dumps must equal C's dump exactly — the property that
        // makes `fleet_scrape`'s time series additive.
        let names = ["a.q", "a.e", "b.hits", "b.misses", "srv.x", "srv.y"];
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let c = MetricsRegistry::new();
        for (ni, va, vb) in incrs {
            let name = names[ni];
            a.counter(name).add(va as u64);
            b.counter(name).add(vb as u64);
            let combined = c.counter(name);
            combined.add(va as u64);
            combined.add(vb as u64);
        }
        let merged = MetricsDump::merged([&a.dump(), &b.dump()]);
        prop_assert_eq!(merged, c.dump());
    }

    #[test]
    fn corrupt_payload_bytes_never_panic(frame in arb_frame(), pos in 0usize..64, bit in 0u8..8) {
        let mut bytes = frame.encode(3);
        if bytes.len() > HEADER_BYTES {
            let idx = HEADER_BYTES + pos % (bytes.len() - HEADER_BYTES);
            bytes[idx] ^= 1 << bit;
            // Any outcome is fine except a panic: the flip may still
            // parse (a changed id), fail typed, or look truncated.
            let _ = decode(&bytes, &Limits::default());
        }
    }

    // ---- the datagram read path. A UDP server decodes raw
    // internet-facing bytes with `decode_datagram`; whatever arrives —
    // truncated, bit-flipped, oversized, pure noise — the only legal
    // outcomes are a decoded frame, a typed fault, or a silent drop.
    // Never a panic.

    #[test]
    fn well_formed_datagrams_round_trip(frame in arb_frame(), id in any::<u64>()) {
        let bytes = frame.encode(id);
        match decode_datagram(&bytes, &Limits::default()) {
            Ok((got_id, got)) => {
                prop_assert_eq!(got_id, id);
                prop_assert_eq!(got, frame);
            }
            other => prop_assert!(false, "well-formed datagram refused: {other:?}"),
        }
    }

    #[test]
    fn truncated_datagrams_never_panic(frame in arb_frame(), keep in 0usize..96) {
        // Cut anywhere, header included: a short datagram is either a
        // silent drop (unattributable) or a typed fault, never a panic
        // and never a bogus success (the payload length check catches
        // every mid-payload cut).
        let bytes = frame.encode(11);
        let cut = keep % bytes.len();
        match decode_datagram(&bytes[..cut], &Limits::default()) {
            Err(_) => {}
            Ok((got_id, got)) => prop_assert!(
                false,
                "truncated datagram ({cut} of {} bytes) decoded as id {got_id} {got:?}",
                bytes.len()
            ),
        }
    }

    #[test]
    fn bit_flipped_datagrams_never_panic(
        frame in arb_frame(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = frame.encode(7);
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        // A header flip may turn the datagram unattributable (Drop), a
        // payload flip may still parse or fail typed — all fine.
        let _ = decode_datagram(&bytes, &Limits::default());
    }

    #[test]
    fn random_noise_datagrams_never_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        // Noise essentially never carries the magic, so it must be
        // dropped silently — a reply here would make the server a
        // reflection amplifier for spoofed sources.
        if !bytes.starts_with(&0x694E_614Eu32.to_be_bytes()) {
            match decode_datagram(&bytes, &Limits::default()) {
                Err(DatagramError::Drop(_)) => {}
                other => prop_assert!(false, "noise not dropped: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_datagrams_fault_typed_with_the_senders_id(
        id in any::<u64>(),
        extra in 1usize..64,
    ) {
        // A frame whose payload exceeds the receiver's limit is
        // attributable (magic and version decoded), so the sender gets
        // a typed FrameTooLarge carrying its own request id back.
        let limits = Limits { max_frame_bytes: 64, max_batch: 1024 };
        let frame = Frame::QueryBatch {
            shard: ShardId(0),
            pairs: vec![(Ipv4(1), Ipv4(2)); 8 + extra],
        };
        let bytes = frame.encode(id);
        prop_assert!(bytes.len() - HEADER_BYTES > 64);
        match decode_datagram(&bytes, &limits) {
            Err(DatagramError::Fault { request_id, fault }) => {
                prop_assert_eq!(request_id, id);
                prop_assert_eq!(fault.code, ErrorCode::FrameTooLarge);
            }
            other => prop_assert!(false, "want typed fault, got {other:?}"),
        }
    }

    #[test]
    fn ids_with_the_reserved_bit_set_still_round_trip(low in any::<u64>()) {
        // Bit 63 is reserved for the tracing opt-in, but the codec
        // itself is transparent to it: an id with the bit set must
        // survive encode → decode unchanged on both transports (the
        // server echoes it, the trace semantics live above the codec).
        let id = low | TRACE_FLAG;
        let bytes = Frame::Ping.encode(id);
        let (stream_id, _) = decode(&bytes, &Limits::default()).unwrap().unwrap();
        prop_assert_eq!(stream_id, id);
        let (dgram_id, frame) = decode_datagram(&bytes, &Limits::default()).unwrap();
        prop_assert_eq!(dgram_id, id);
        prop_assert_eq!(frame, Frame::Ping);
    }
}

/// The reply-size rule's arithmetic, pinned: the cap is the frame
/// limit plus header room, but never beyond what one UDP datagram can
/// physically carry.
#[test]
fn datagram_cap_is_clamped_to_the_udp_payload_maximum() {
    let small = Limits {
        max_frame_bytes: 1024,
        max_batch: 16,
    };
    assert_eq!(datagram_cap(&small), 1024 + HEADER_BYTES);
    let huge = Limits {
        max_frame_bytes: 32 << 20,
        max_batch: 16,
    };
    assert_eq!(datagram_cap(&huge), inano_net::MAX_UDP_PAYLOAD);
}
