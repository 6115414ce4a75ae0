//! The load generator: closed-loop and open-loop phases over TCP or
//! UDP, run from one thread per core, each with its own connection or
//! datagram socket.

use crate::classify::{classify_pair, classify_request_error, Class, Tally};
use crate::inputs::Pair;
use crate::stats::{open_loop, Timed, WallClock};
use inano_net::{Frame, NetClient, NetError, UdpQuerier, WireFault, WirePath};
use inano_obs::TraceTimings;
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

pub type Reply = Result<Vec<Result<WirePath, WireFault>>, NetError>;

/// One traced request: the server's stage timings and the client's
/// round trip, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Traced {
    pub timings: TraceTimings,
    pub rtt_us: f64,
}

/// What one phase measured on one sender, merged across senders.
#[derive(Default)]
pub struct Phase {
    pub tally: Tally,
    pub requests: u64,
    pub elapsed_s: f64,
    pub traces: Vec<Traced>,
    /// Open loop only: per-request due-time latency and lateness.
    pub timed: Vec<Timed>,
    /// Open loop only: send-to-reply round trip, microseconds.
    pub rtt_us: Vec<f64>,
    pub resends: u64,
    pub stale: u64,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.tally.merge(&other.tally);
        self.requests += other.requests;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.traces.extend(other.traces);
        self.timed.extend(other.timed);
        self.rtt_us.extend(other.rtt_us);
        self.resends += other.resends;
        self.stale += other.stale;
    }

    /// Pairs answered (a no-route counts) per second.
    pub fn pairs_per_s(&self) -> f64 {
        self.tally.served() as f64 / self.elapsed_s.max(1e-9)
    }

    fn count(&mut self, reply: &Reply, n_pairs: usize) {
        self.requests += 1;
        match reply {
            Ok(results) => {
                for r in results {
                    self.tally.add(classify_pair(r), 1);
                }
            }
            Err(e) => self.tally.add(classify_request_error(e), n_pairs as u64),
        }
    }
}

/// One sender: its transport, plus a TCP connection for traced
/// requests when the transport is datagrams (the trace bit is a
/// stream-only feature).
pub struct Sender {
    tcp: NetClient,
    udp: Option<UdpQuerier>,
    udp_base: (u64, u64),
}

impl Sender {
    pub fn connect(tcp: SocketAddr, udp: Option<SocketAddr>) -> std::io::Result<Sender> {
        let udp = udp.map(UdpQuerier::connect).transpose()?;
        Ok(Sender {
            tcp: NetClient::connect(tcp)?,
            udp,
            udp_base: (0, 0),
        })
    }

    /// One synchronous request over the workload's transport.
    pub fn request(&mut self, pairs: &[Pair]) -> Reply {
        match self.udp.as_mut() {
            Some(q) => q.query_batch(pairs),
            None => self.tcp.query_batch(pairs),
        }
    }

    /// One synchronous request over TCP with the trace bit set.
    fn traced(&mut self, pairs: &[Pair]) -> (Reply, Option<Traced>) {
        let t0 = Instant::now();
        let frame = Frame::QueryBatch {
            shard: inano_net::ShardId::DEFAULT,
            pairs: pairs.to_vec(),
        };
        match self.tcp.call_traced(&frame) {
            Ok((Frame::PathBatch { results }, timings)) => {
                let rtt_us = t0.elapsed().as_secs_f64() * 1e6;
                (Ok(results), Some(Traced { timings, rtt_us }))
            }
            Ok((other, _)) => (
                Err(NetError::Protocol(format!(
                    "expected PathBatch, got {other:?}"
                ))),
                None,
            ),
            Err(e) => (Err(e), None),
        }
    }

    /// Datagram retry counters since the previous call.
    fn take_udp_counters(&mut self) -> (u64, u64) {
        let Some(q) = self.udp.as_ref() else {
            return (0, 0);
        };
        let now = (q.resends(), q.stale_replies());
        let delta = (now.0 - self.udp_base.0, now.1 - self.udp_base.1);
        self.udp_base = now;
        delta
    }
}

/// A sender's walk over the shared request stream: sender `t` of `n`
/// starts at `t / n` of the way in and takes consecutive requests,
/// wrapping at the end.
pub struct Cursor<'a> {
    stream: &'a [Pair],
    start: usize,
    next: usize,
    batch: usize,
    buf: Vec<Pair>,
}

impl<'a> Cursor<'a> {
    pub fn new(stream: &'a [Pair], sender: usize, senders: usize, batch: usize) -> Cursor<'a> {
        let start = stream.len() / senders.max(1) * sender;
        Cursor {
            stream,
            start,
            next: start,
            batch,
            buf: Vec::with_capacity(batch),
        }
    }

    pub fn take(&mut self) -> &[Pair] {
        self.buf.clear();
        for k in 0..self.batch {
            self.buf
                .push(self.stream[(self.next + k) % self.stream.len()]);
        }
        self.next += self.batch;
        &self.buf
    }

    /// `(start, pairs issued)` so far.
    pub fn span(&self) -> (usize, usize) {
        (self.start, self.next - self.start)
    }
}

/// How a closed-loop phase sends.
#[derive(Clone, Copy)]
pub struct ClosedShape {
    pub depth: usize,
    /// Every `k`-th request goes through `call_traced`.
    pub trace_every: Option<usize>,
}

/// Run one sender closed-loop from `start` until `deadline`: keep
/// `depth` requests in flight (TCP) or send synchronously (UDP, or
/// depth 1).
pub fn closed_loop(
    sender: &mut Sender,
    cursor: &mut Cursor<'_>,
    shape: ClosedShape,
    start: Instant,
    deadline: Instant,
) -> Phase {
    let mut phase = Phase::default();
    let pipelined = sender.udp.is_none() && shape.depth > 1;
    let mut in_flight: VecDeque<(u64, usize)> = VecDeque::new();
    let mut i = 0usize;
    while Instant::now() < deadline {
        let traced = shape.trace_every.is_some_and(|k| i.is_multiple_of(k));
        i += 1;
        if traced {
            // Drain the pipeline: a traced call is synchronous.
            while let Some((id, n)) = in_flight.pop_front() {
                let reply = recv_batch(&mut sender.tcp, id);
                phase.count(&reply, n);
            }
            let pairs = cursor.take();
            let (reply, trace) = sender.traced(pairs);
            phase.count(&reply, pairs.len());
            phase.traces.extend(trace);
        } else if pipelined {
            while in_flight.len() < shape.depth {
                let pairs = cursor.take();
                let n = pairs.len();
                match sender.tcp.submit_batch(pairs) {
                    Ok(id) => in_flight.push_back((id, n)),
                    Err(e) => {
                        phase.count(&Err(NetError::Io(e)), n);
                        break;
                    }
                }
            }
            if let Some((id, n)) = in_flight.pop_front() {
                let reply = recv_batch(&mut sender.tcp, id);
                phase.count(&reply, n);
            }
        } else {
            let pairs = cursor.take();
            let reply = sender.request(pairs);
            phase.count(&reply, pairs.len());
        }
    }
    while let Some((id, n)) = in_flight.pop_front() {
        let reply = recv_batch(&mut sender.tcp, id);
        phase.count(&reply, n);
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    (phase.resends, phase.stale) = sender.take_udp_counters();
    phase
}

/// Read the reply to pipelined request `id`.
fn recv_batch(client: &mut NetClient, id: u64) -> Reply {
    let (got, frame) = client.recv()?;
    match frame {
        Frame::Error { fault } => Err(NetError::Remote(fault)),
        _ if got != id => Err(NetError::Protocol(format!("reply {got} for request {id}"))),
        Frame::PathBatch { results } => Ok(results),
        other => Err(NetError::Protocol(format!(
            "expected PathBatch, got {other:?}"
        ))),
    }
}

/// Run one sender's share of an open loop at `rate` requests/s (this
/// sender's share), starting `offset` seconds after `start` and ending
/// `seconds` after it. Synchronous requests, timed from due time.
pub fn open_loop_sender(
    sender: &mut Sender,
    cursor: &mut Cursor<'_>,
    start: Instant,
    rate: f64,
    offset: f64,
    seconds: f64,
) -> Phase {
    let mut phase = Phase::default();
    let clock = WallClock::at(start);
    let done = open_loop(&clock, rate, offset, seconds, |_| {
        let pairs = cursor.take();
        let n = pairs.len();
        let t = Instant::now();
        let reply = sender.request(pairs);
        (reply, n, t.elapsed())
    });
    for (timed, (reply, n, rtt)) in done {
        phase.count(&reply, n);
        phase.timed.push(timed);
        phase.rtt_us.push(rtt.as_secs_f64() * 1e6);
    }
    phase.elapsed_s = seconds - offset;
    (phase.resends, phase.stale) = sender.take_udp_counters();
    phase
}

/// Serve `pairs` through one TCP connection in `batch`-pair requests,
/// `depth` in flight, for the correctness pass. Request-level failures
/// come back per pair.
pub fn fetch_tcp(
    addr: SocketAddr,
    pairs: &[Pair],
    batch: usize,
    depth: usize,
) -> Vec<Result<WirePath, Class>> {
    let mut client = match NetClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            let class = classify_request_error(&NetError::Io(e));
            return pairs.iter().map(|_| Err(class)).collect();
        }
    };
    let _ = client.set_io_timeout(Some(Duration::from_secs(60)));
    let chunks: Vec<&[Pair]> = pairs.chunks(batch).collect();
    let mut out = Vec::with_capacity(pairs.len());
    let mut in_flight: VecDeque<(u64, usize)> = VecDeque::new();
    let mut next = 0;
    while next < chunks.len() || !in_flight.is_empty() {
        while next < chunks.len() && in_flight.len() < depth {
            match client.submit_batch(chunks[next]) {
                Ok(id) => in_flight.push_back((id, chunks[next].len())),
                Err(e) => {
                    let class = classify_request_error(&NetError::Io(e));
                    out.extend(chunks[next].iter().map(|_| Err(class)));
                }
            }
            next += 1;
        }
        if let Some((id, n)) = in_flight.pop_front() {
            extend_results(&mut out, recv_batch(&mut client, id), n);
        }
    }
    out
}

/// Serve `pairs` one datagram each through one querier.
pub fn fetch_udp(q: &mut UdpQuerier, pairs: &[Pair]) -> Vec<Result<WirePath, Class>> {
    let mut out = Vec::with_capacity(pairs.len());
    for p in pairs {
        extend_results(&mut out, q.query_batch(std::slice::from_ref(p)), 1);
    }
    out
}

fn extend_results(out: &mut Vec<Result<WirePath, Class>>, reply: Reply, n: usize) {
    match reply {
        Ok(results) if results.len() == n => out.extend(results.into_iter().map(|r| match r {
            Ok(p) => Ok(p),
            Err(f) => Err(classify_pair(&Err(f))),
        })),
        Ok(_) => out.extend((0..n).map(|_| Err(Class::Transport))),
        Err(e) => {
            let class = classify_request_error(&e);
            out.extend((0..n).map(|_| Err(class)));
        }
    }
}
