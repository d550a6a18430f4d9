//! A SensorScope-like environmental sensing workload.
//!
//! The paper uses "the sensor dataset generated by the SensorScope
//! project …, which measures key environmental data such as air
//! temperature and humidity etc. In the experiments, we use 63 streams
//! and emulate the streaming scenario by using their timestamp
//! information." The real traces are no longer distributed; this module
//! generates a synthetic equivalent: 63 deployment streams with the
//! SensorScope measurement schema, per-deployment rates, and smooth
//! (random-walk) measurement series. The experiments only consume the
//! streams' names, schemas, rates and value distributions, all of which
//! this generator reproduces (see DESIGN.md, substitution table).

use cosmos_query::{AttrStats, StatsCatalog, StreamStats};
use cosmos_types::{AttrType, Schema, StreamName, Timestamp, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of sensor streams, as in the paper.
pub const SENSOR_STREAMS: usize = 63;

/// Sensor nodes per deployment (the `node_id` attribute's domain).
pub const NODES_PER_DEPLOYMENT: i64 = 32;

/// Bounds of the measurement attributes: `(name, min, max, distinct)`.
pub const MEASUREMENTS: &[(&str, f64, f64, f64)] = &[
    ("ambient_temp", -20.0, 45.0, 650.0),
    ("surface_temp", -25.0, 60.0, 850.0),
    ("humidity", 0.0, 100.0, 1000.0),
    ("wind_speed", 0.0, 35.0, 350.0),
    ("solar_radiation", 0.0, 1200.0, 1200.0),
];

/// The SensorScope-like measurement schema shared by all 63 streams.
pub fn sensor_schema() -> Schema {
    let mut fields = vec![("node_id", AttrType::Int)];
    for (name, _, _, _) in MEASUREMENTS {
        fields.push((*name, AttrType::Float));
    }
    fields.push(("timestamp", AttrType::Int));
    Schema::of(&fields)
}

/// Name of deployment stream `i` (`sensors_00` … `sensors_62`).
pub fn stream_name(i: usize) -> String {
    format!("sensors_{i:02}")
}

/// Arrival rate (tuples/second) of deployment `i` — deterministic but
/// varied, like real deployments with different sampling intervals.
pub fn stream_rate(i: usize) -> f64 {
    [0.5, 1.0, 2.0, 0.25, 4.0][i % 5]
}

/// Build the statistics catalog for all 63 streams.
pub fn sensor_catalog() -> StatsCatalog {
    let mut cat = StatsCatalog::new();
    let schema = sensor_schema();
    for i in 0..SENSOR_STREAMS {
        let mut stats = StreamStats::with_rate(stream_rate(i)).attr(
            "node_id",
            AttrStats::categorical(NODES_PER_DEPLOYMENT as f64),
        );
        for (name, lo, hi, distinct) in MEASUREMENTS {
            stats = stats.attr(*name, AttrStats::numeric(*lo, *hi, *distinct));
        }
        cat.register(stream_name(i), schema.clone(), stats);
    }
    cat
}

/// A deterministic generator for one deployment's measurement stream.
///
/// Measurements follow clipped random walks so consecutive tuples are
/// correlated (as in the real traces) while staying inside the
/// advertised `[min, max]` bounds.
#[derive(Debug, Clone)]
pub struct SensorGenerator {
    /// Interned once: every tuple carries a copy of the handle.
    stream: StreamName,
    rng: StdRng,
    period_ms: i64,
    next_ts: i64,
    /// Current walk state per (node, measurement).
    state: Vec<Vec<f64>>,
}

impl SensorGenerator {
    /// Generator for deployment `i`, seeded deterministically.
    pub fn new(i: usize, seed: u64) -> SensorGenerator {
        let mut rng = StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let state = (0..NODES_PER_DEPLOYMENT)
            .map(|_| {
                MEASUREMENTS
                    .iter()
                    .map(|(_, lo, hi, _)| rng.gen_range(*lo..*hi))
                    .collect()
            })
            .collect();
        SensorGenerator {
            stream: StreamName::new(stream_name(i)),
            period_ms: (1000.0 / stream_rate(i)) as i64,
            next_ts: 0,
            rng,
            state,
        }
    }

    /// The stream this generator produces.
    pub fn stream(&self) -> &str {
        self.stream.as_str()
    }

    /// Produce the next measurement tuple (round-robin over nodes).
    pub fn next_tuple(&mut self) -> Tuple {
        let ts = self.next_ts;
        self.next_ts += self.period_ms;
        let node = (ts / self.period_ms) % NODES_PER_DEPLOYMENT;
        let mut values = Vec::with_capacity(MEASUREMENTS.len() + 2);
        values.push(Value::Int(node));
        for (mi, (_, lo, hi, _)) in MEASUREMENTS.iter().enumerate() {
            let span = hi - lo;
            let cur = &mut self.state[node as usize][mi];
            *cur = (*cur + self.rng.gen_range(-0.02 * span..0.02 * span)).clamp(*lo, *hi);
            values.push(Value::Float((*cur * 100.0).round() / 100.0));
        }
        values.push(Value::Int(ts));
        Tuple::new(self.stream, Timestamp(ts), values)
    }

    /// Produce all tuples up to (excluding) `until_ms`, in order.
    pub fn tuples_until(&mut self, until_ms: i64) -> Vec<Tuple> {
        let mut out = Vec::new();
        while self.next_ts < until_ms {
            out.push(self.next_tuple());
        }
        out
    }
}

/// Merge several generators' outputs into one globally timestamp-ordered
/// input sequence, as the discrete-event harness requires.
pub fn merged_inputs(generators: &mut [SensorGenerator], until_ms: i64) -> Vec<Tuple> {
    let mut all = Vec::new();
    for g in generators {
        all.extend(g.tuples_until(until_ms));
    }
    all.sort_by_key(|t| t.timestamp);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_has_63_streams_with_schema_and_stats() {
        let cat = sensor_catalog();
        assert_eq!(cat.len(), SENSOR_STREAMS);
        let name = cosmos_types::StreamName::from(stream_name(0).as_str());
        let schema = cat.schema(&name).unwrap();
        assert!(schema.contains("ambient_temp"));
        assert!(schema.contains("timestamp"));
        assert_eq!(schema.arity(), MEASUREMENTS.len() + 2);
        let stats = cat.stats(&name).unwrap();
        assert_eq!(stats.rate, stream_rate(0));
        assert!(stats.attrs.contains_key("humidity"));
    }

    #[test]
    fn generator_is_deterministic() {
        let mut a = SensorGenerator::new(3, 42);
        let mut b = SensorGenerator::new(3, 42);
        for _ in 0..50 {
            assert_eq!(a.next_tuple(), b.next_tuple());
        }
        let mut c = SensorGenerator::new(3, 43);
        assert_ne!(a.next_tuple(), c.next_tuple());
    }

    #[test]
    fn values_respect_bounds_and_schema() {
        let mut g = SensorGenerator::new(7, 1);
        let schema = sensor_schema();
        for _ in 0..200 {
            let t = g.next_tuple();
            assert_eq!(t.arity(), schema.arity());
            let Some(&Value::Int(node)) = t.get_by_name(&schema, "node_id") else {
                panic!("node_id is an INT: {t:?}");
            };
            assert!((0..NODES_PER_DEPLOYMENT).contains(&node));
            for (name, lo, hi, _) in MEASUREMENTS {
                let v = t.get_by_name(&schema, name).unwrap().as_f64().unwrap();
                assert!(v >= *lo && v <= *hi, "{name}={v} out of [{lo}, {hi}]");
            }
            // embedded timestamp equals tuple timestamp
            assert_eq!(
                t.get_by_name(&schema, "timestamp"),
                Some(&Value::Int(t.timestamp.millis()))
            );
        }
    }

    #[test]
    fn timestamps_follow_rate() {
        let mut g = SensorGenerator::new(2, 1); // rate 2.0 → period 500ms
        let ts: Vec<i64> = (0..4).map(|_| g.next_tuple().timestamp.millis()).collect();
        assert_eq!(ts, vec![0, 500, 1000, 1500]);
        assert_eq!(g.stream(), "sensors_02");
    }

    #[test]
    fn merged_inputs_are_ordered() {
        let mut gens: Vec<SensorGenerator> = (0..5).map(|i| SensorGenerator::new(i, 9)).collect();
        let all = merged_inputs(&mut gens, 10_000);
        assert!(!all.is_empty());
        for w in all.windows(2) {
            assert!(w[0].timestamp <= w[1].timestamp);
        }
        // rate-0.25 stream contributes fewest tuples
        let slow = all
            .iter()
            .filter(|t| t.stream.as_str() == stream_name(3))
            .count();
        let fast = all
            .iter()
            .filter(|t| t.stream.as_str() == stream_name(4))
            .count();
        assert!(fast > slow);
    }
}
