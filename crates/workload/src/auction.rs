//! The auction-monitoring workload of Table 1.

use cosmos_query::{AttrStats, StatsCatalog, StreamStats};
use cosmos_types::{AttrType, Schema, StreamName, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Table 1, q1: "Report all auctions that closed within three hours of
/// their opening."
pub const Q1: &str = "SELECT O.* \
    FROM OpenAuction [Range 3 Hour] O, ClosedAuction [Now] C \
    WHERE O.itemID = C.itemID";

/// Table 1, q2: "Report the items and buyers of auctions closed within
/// five hours of their opening." (The paper's `O.timetamp` typo is
/// corrected to `O.timestamp`.)
pub const Q2: &str = "SELECT O.itemID, O.timestamp, C.buyerID, C.timestamp \
    FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C \
    WHERE O.itemID = C.itemID";

/// Table 1, q3: the representative query containing q1 and q2.
pub const Q3: &str = "SELECT O.*, C.buyerID, C.timestamp \
    FROM OpenAuction [Range 5 Hour] O, ClosedAuction [Now] C \
    WHERE O.itemID = C.itemID";

/// Schema of the `OpenAuction` stream (paper Section 4).
pub fn open_auction_schema() -> Schema {
    Schema::of(&[
        ("itemID", AttrType::Int),
        ("sellerID", AttrType::Int),
        ("start_price", AttrType::Float),
        ("timestamp", AttrType::Int),
    ])
}

/// Schema of the `ClosedAuction` stream (paper Section 4).
pub fn closed_auction_schema() -> Schema {
    Schema::of(&[
        ("itemID", AttrType::Int),
        ("buyerID", AttrType::Int),
        ("timestamp", AttrType::Int),
    ])
}

/// Statistics catalog for the auction streams.
pub fn auction_catalog(opens_per_hour: f64) -> StatsCatalog {
    let mut cat = StatsCatalog::new();
    let rate = opens_per_hour / 3600.0;
    cat.register(
        "OpenAuction",
        open_auction_schema(),
        StreamStats::with_rate(rate)
            .attr("itemID", AttrStats::categorical(10_000.0))
            .attr("sellerID", AttrStats::categorical(500.0))
            .attr("start_price", AttrStats::numeric(1.0, 1000.0, 2000.0)),
    );
    cat.register(
        "ClosedAuction",
        closed_auction_schema(),
        StreamStats::with_rate(rate)
            .attr("itemID", AttrStats::categorical(10_000.0))
            .attr("buyerID", AttrStats::categorical(2_000.0)),
    );
    cat
}

/// Deterministic generator of interleaved auction events: each item is
/// opened once and closed after a configurable random delay.
#[derive(Debug, Clone)]
pub struct AuctionGenerator {
    rng: StdRng,
    /// Mean time between openings, in milliseconds.
    pub open_every_ms: i64,
    /// Maximum open→close delay, in milliseconds.
    pub max_close_delay_ms: i64,
}

impl AuctionGenerator {
    /// Generator with an opening every `open_every_ms` and closings up
    /// to `max_close_delay_ms` later.
    pub fn new(seed: u64, open_every_ms: i64, max_close_delay_ms: i64) -> AuctionGenerator {
        AuctionGenerator {
            rng: StdRng::seed_from_u64(seed),
            open_every_ms,
            max_close_delay_ms,
        }
    }

    /// Generate `items` auctions as a timestamp-ordered event sequence.
    pub fn generate(&mut self, items: i64) -> Vec<Tuple> {
        let mut events = Vec::with_capacity(2 * items as usize);
        let (open, closed) = (
            StreamName::new("OpenAuction"),
            StreamName::new("ClosedAuction"),
        );
        for item in 0..items {
            let open_ts =
                item * self.open_every_ms + self.rng.gen_range(0..self.open_every_ms.max(1));
            let close_ts = open_ts + self.rng.gen_range(0..=self.max_close_delay_ms);
            let seller = self.rng.gen_range(0..500i64);
            let buyer = self.rng.gen_range(0..2000i64);
            let price = (self.rng.gen_range(1.0..1000.0f64) * 100.0).round() / 100.0;
            events.push(Tuple::new(
                open,
                Timestamp(open_ts),
                vec![
                    Value::Int(item),
                    Value::Int(seller),
                    Value::Float(price),
                    Value::Int(open_ts),
                ],
            ));
            events.push(Tuple::new(
                closed,
                Timestamp(close_ts),
                vec![Value::Int(item), Value::Int(buyer), Value::Int(close_ts)],
            ));
        }
        events.sort_by_key(|t| t.timestamp);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cosmos_cql::parse_query;

    #[test]
    fn table1_queries_parse_and_analyze() {
        let cat = auction_catalog(60.0);
        for text in [Q1, Q2, Q3] {
            let q = parse_query(text).unwrap();
            cosmos_spe::AnalyzedQuery::analyze(&q, cat.schema_fn())
                .unwrap_or_else(|e| panic!("{text}: {e}"));
        }
    }

    #[test]
    fn events_are_ordered_and_paired() {
        let mut g = AuctionGenerator::new(7, 60_000, 6 * 3_600_000);
        let ev = g.generate(100);
        assert_eq!(ev.len(), 200);
        for w in ev.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        let opens = ev
            .iter()
            .filter(|t| t.stream.as_str() == "OpenAuction")
            .count();
        assert_eq!(opens, 100);
        // every close follows its open
        let open_schema = open_auction_schema();
        let closed_schema = closed_auction_schema();
        for item in 0..100i64 {
            let open = ev
                .iter()
                .find(|t| {
                    t.stream.as_str() == "OpenAuction"
                        && t.get_by_name(&open_schema, "itemID") == Some(&Value::Int(item))
                })
                .unwrap();
            let close = ev
                .iter()
                .find(|t| {
                    t.stream.as_str() == "ClosedAuction"
                        && t.get_by_name(&closed_schema, "itemID") == Some(&Value::Int(item))
                })
                .unwrap();
            assert!(close.timestamp >= open.timestamp);
            assert!(
                (close.timestamp - open.timestamp).millis() <= 6 * 3_600_000,
                "close delay out of range"
            );
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let a = AuctionGenerator::new(1, 1000, 10_000).generate(20);
        let b = AuctionGenerator::new(1, 1000, 10_000).generate(20);
        assert_eq!(a, b);
        let c = AuctionGenerator::new(2, 1000, 10_000).generate(20);
        assert_ne!(a, c);
    }

    #[test]
    fn q1_q2_merge_into_q3_shape() {
        // Cross-check with the query layer: the paper's q3 is exactly
        // merge(q1, q2) up to column order.
        let cat = auction_catalog(60.0);
        let analyze = |t: &str| {
            cosmos_spe::AnalyzedQuery::analyze(&parse_query(t).unwrap(), cat.schema_fn()).unwrap()
        };
        let rep = cosmos_query::merge(&analyze(Q1), &analyze(Q2)).unwrap();
        let q3 = analyze(Q3);
        let cols = |a: &cosmos_spe::AnalyzedQuery| {
            a.output_schema
                .names()
                .map(str::to_string)
                .collect::<std::collections::BTreeSet<_>>()
        };
        assert_eq!(cols(&rep), cols(&q3));
        assert!(cosmos_query::contained(&analyze(Q1), &q3));
        assert!(cosmos_query::contained(&analyze(Q2), &q3));
    }
}
