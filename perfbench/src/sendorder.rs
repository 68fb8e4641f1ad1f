//! Send-order reply matching for the saturated UDP phase.
//!
//! One server thread answers one client socket in arrival order, so the
//! k-th reply belongs to the k-th request. The matcher pairs them strictly
//! by position: a reply is only ever checked against the request it
//! answers by position, a lost reply makes that request's pairing fail
//! (and every request left unanswered at the end is counted lost), and a
//! reply with no request waiting is counted extra. A reply is never
//! accepted for any request other than its positional one.

use std::collections::VecDeque;

/// Pairs replies with requests in send order.
pub struct SendOrder<T> {
    pending: VecDeque<T>,
    matched: u64,
    mismatched: u64,
    extra: u64,
}

impl<T> Default for SendOrder<T> {
    fn default() -> Self {
        SendOrder {
            pending: VecDeque::new(),
            matched: 0,
            mismatched: 0,
            extra: 0,
        }
    }
}

impl<T> SendOrder<T> {
    /// A matcher with nothing in flight.
    pub fn new() -> Self {
        Self::default()
    }

    /// A request went out.
    pub fn sent(&mut self, request: T) {
        self.pending.push_back(request);
    }

    /// Requests still waiting for a reply.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// A reply arrived: `verify` checks it against the oldest request.
    /// Returns that request and the verifier's result when it passed;
    /// `None` when it failed or no request was waiting.
    pub fn received<R, E>(&mut self, verify: impl FnOnce(&T) -> Result<R, E>) -> Option<(T, R)> {
        let Some(request) = self.pending.pop_front() else {
            self.extra += 1;
            return None;
        };
        match verify(&request) {
            Ok(out) => {
                self.matched += 1;
                Some((request, out))
            }
            Err(_) => {
                self.mismatched += 1;
                None
            }
        }
    }

    /// Replies that verified against their request.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Failed pairings: replies that did not verify, replies with no
    /// request waiting, and requests never answered.
    pub fn failed(&self) -> u64 {
        self.mismatched + self.extra + self.pending.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy protocol: a reply verifies only against the request with the
    /// same id, and the test records every pairing the matcher tries.
    fn deliver(m: &mut SendOrder<u32>, reply: u32, tried: &mut Vec<(u32, u32)>) -> Option<u32> {
        m.received(|&req| {
            tried.push((req, reply));
            if req == reply {
                Ok(())
            } else {
                Err(())
            }
        })
        .map(|(req, ())| req)
    }

    #[test]
    fn in_order_replies_all_match() {
        let mut m = SendOrder::new();
        let mut tried = Vec::new();
        for i in 0..4 {
            m.sent(i);
        }
        for i in 0..4 {
            assert_eq!(deliver(&mut m, i, &mut tried), Some(i));
        }
        assert_eq!((m.matched(), m.failed()), (4, 0));
    }

    #[test]
    fn a_lost_reply_counts_as_failed_and_is_never_matched_elsewhere() {
        let mut m = SendOrder::new();
        let mut tried = Vec::new();
        for i in 0..3 {
            m.sent(i);
        }
        // Reply 1 is lost: reply 2 arrives second.
        assert_eq!(deliver(&mut m, 0, &mut tried), Some(0));
        assert_eq!(deliver(&mut m, 2, &mut tried), None);
        // Request 2 never gets its reply.
        assert_eq!(m.in_flight(), 1);
        assert_eq!(m.matched(), 1);
        assert_eq!(
            m.failed(),
            2,
            "the mis-paired reply and the unanswered request"
        );
        // Reply 2 was only ever tried against request 1, its position.
        assert_eq!(tried, vec![(0, 0), (1, 2)]);
    }

    #[test]
    fn an_extra_reply_counts_as_failed() {
        let mut m = SendOrder::new();
        let mut tried = Vec::new();
        m.sent(7);
        assert_eq!(deliver(&mut m, 7, &mut tried), Some(7));
        assert_eq!(
            deliver(&mut m, 7, &mut tried),
            None,
            "duplicate with nothing pending"
        );
        assert_eq!((m.matched(), m.failed()), (1, 1));
        assert_eq!(tried.len(), 1, "an extra reply is never verified");
    }
}
