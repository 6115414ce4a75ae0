//! What became of each attempted pair: answered, a correct "no route",
//! or one of the ways a request can fail. Everything but an answer and
//! a no-route counts against `ok_rate`.

use inano_model::ErrorCode;
use inano_net::{NetError, WireFault, WirePath};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// A predicted path.
    Answered,
    /// The predictor found no route: a correct answer, not a fault.
    NoRoute,
    /// The server shed the request (typed `Overloaded`).
    Overloaded,
    /// Any other typed fault from the server.
    Fault,
    /// The connection broke or the reply did not parse.
    Transport,
    /// No reply in time; for datagrams, after every retry.
    Timeout,
}

/// One pair's result inside a reply.
pub fn classify_pair(result: &Result<WirePath, WireFault>) -> Class {
    match result {
        Ok(_) => Class::Answered,
        Err(fault) => classify_fault(fault),
    }
}

fn classify_fault(fault: &WireFault) -> Class {
    match fault.code {
        ErrorCode::NoPath => Class::NoRoute,
        ErrorCode::Overloaded => Class::Overloaded,
        _ => Class::Fault,
    }
}

/// A whole request that got no reply frame to read pairs from; every
/// pair it carried shares this class.
pub fn classify_request_error(err: &NetError) -> Class {
    match err {
        NetError::Remote(fault) => match classify_fault(fault) {
            // "No route" is a per-pair answer; as a request-level error
            // frame it means the server broke the protocol.
            Class::NoRoute => Class::Fault,
            other => other,
        },
        NetError::Io(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
            ) =>
        {
            Class::Timeout
        }
        NetError::Io(_) | NetError::Protocol(_) => Class::Transport,
    }
}

/// Outcome counts over some set of pairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub answered: u64,
    pub noroute: u64,
    pub overloaded: u64,
    pub faults: u64,
    pub transport: u64,
    pub timeouts: u64,
}

impl Tally {
    pub fn add(&mut self, class: Class, n: u64) {
        let slot = match class {
            Class::Answered => &mut self.answered,
            Class::NoRoute => &mut self.noroute,
            Class::Overloaded => &mut self.overloaded,
            Class::Fault => &mut self.faults,
            Class::Transport => &mut self.transport,
            Class::Timeout => &mut self.timeouts,
        };
        *slot += n;
    }

    pub fn merge(&mut self, other: &Tally) {
        self.answered += other.answered;
        self.noroute += other.noroute;
        self.overloaded += other.overloaded;
        self.faults += other.faults;
        self.transport += other.transport;
        self.timeouts += other.timeouts;
    }

    pub fn attempted(&self) -> u64 {
        self.served() + self.failed()
    }

    pub fn served(&self) -> u64 {
        self.answered + self.noroute
    }

    /// Faults, transport errors, timeouts and `Overloaded` together.
    pub fn failed(&self) -> u64 {
        self.overloaded + self.faults + self.transport + self.timeouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fault(code: ErrorCode) -> WireFault {
        WireFault::new(code, "test")
    }

    #[test]
    fn no_route_is_an_answer_not_a_fault() {
        assert_eq!(
            classify_pair(&Err(fault(ErrorCode::NoPath))),
            Class::NoRoute
        );
        let mut t = Tally::default();
        t.add(Class::NoRoute, 3);
        t.add(Class::Answered, 7);
        assert_eq!((t.served(), t.failed(), t.attempted()), (10, 0, 10));
    }

    #[test]
    fn typed_faults_split_overloaded_from_the_rest() {
        assert_eq!(
            classify_pair(&Err(fault(ErrorCode::Overloaded))),
            Class::Overloaded
        );
        for code in [
            ErrorCode::UnroutableAddress,
            ErrorCode::UnknownEntity,
            ErrorCode::UnknownShard,
            ErrorCode::Malformed,
        ] {
            assert_eq!(classify_pair(&Err(fault(code))), Class::Fault, "{code:?}");
        }
    }

    #[test]
    fn request_errors_are_never_answers() {
        let io = |kind| NetError::Io(std::io::Error::new(kind, "test"));
        assert_eq!(
            classify_request_error(&io(std::io::ErrorKind::TimedOut)),
            Class::Timeout
        );
        assert_eq!(
            classify_request_error(&io(std::io::ErrorKind::ConnectionReset)),
            Class::Transport
        );
        assert_eq!(
            classify_request_error(&NetError::Protocol("bad id".into())),
            Class::Transport
        );
        assert_eq!(
            classify_request_error(&NetError::Remote(fault(ErrorCode::Overloaded))),
            Class::Overloaded
        );
        assert_eq!(
            classify_request_error(&NetError::Remote(fault(ErrorCode::NoPath))),
            Class::Fault
        );
    }

    #[test]
    fn every_failure_counts_against_the_attempted_pairs() {
        let mut t = Tally::default();
        for (class, n) in [
            (Class::Answered, 90),
            (Class::NoRoute, 4),
            (Class::Overloaded, 1),
            (Class::Fault, 2),
            (Class::Transport, 1),
            (Class::Timeout, 2),
        ] {
            t.add(class, n);
        }
        assert_eq!((t.served(), t.failed(), t.attempted()), (94, 6, 100));
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!(sum.attempted(), 200);
    }
}
