//! The three workloads and the request shape each one sends.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Single-pair TCP requests, endpoints uniform over the canonical
    /// prefixes: nearly every query is a cold search.
    ColdUniform,
    /// 512-pair TCP batches, depth 4, from a 32 × 64 pool: every query
    /// hits after warm-up.
    HotPool,
    /// Single-pair datagrams from the hot pool, against a mirror whose
    /// origin publishes a delta every ~2 s.
    SwapUdp,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ColdUniform, Workload::HotPool, Workload::SwapUdp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdUniform => "cold_uniform",
            Workload::HotPool => "hot_pool",
            Workload::SwapUdp => "swap_udp",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Pairs per request.
    pub fn batch(self) -> usize {
        match self {
            Workload::HotPool => 512,
            Workload::ColdUniform | Workload::SwapUdp => 1,
        }
    }

    /// Requests each closed-loop connection keeps in flight.
    pub fn depth(self) -> usize {
        match self {
            Workload::HotPool => 4,
            Workload::ColdUniform | Workload::SwapUdp => 1,
        }
    }

    /// Whether requests travel as datagrams.
    pub fn udp(self) -> bool {
        self == Workload::SwapUdp
    }

    /// The open-loop offered rate, requests per second across all
    /// senders, fixed from the commit that introduced the benchmark:
    /// about a third of the closed-loop request rate on the TCP
    /// workloads and a sixth on `swap_udp`. At half, the runs that land
    /// in one of the shared machine's slow periods (capacity down by a
    /// third or more) saturate and their median latency jumps fourfold;
    /// on `swap_udp` each swap's refill also halves capacity for a few
    /// hundred milliseconds.
    pub fn open_rate(self) -> f64 {
        match self {
            Workload::ColdUniform => 120.0,
            Workload::HotPool => 200.0,
            Workload::SwapUdp => 5_000.0,
        }
    }
}
