//! Random continuous-query generation over the sensor streams.
//!
//! "Queries are generated by randomly selecting the involved streams,
//! their window sizes and the filtering predicates based on a
//! distribution (uniform or zipfian)." (Section 5)
//!
//! Generated queries are CQL texts over the [`crate::sensor`] catalog:
//! single-stream select-project queries with range predicates, a
//! configurable fraction of two-stream equi-joins on `node_id`, and a
//! configurable fraction of grouped aggregates. Predicate endpoints are
//! quantized to a grid so that different queries overlap with realistic
//! probability (continuous endpoints would make every pair of
//! predicates distinct, which no real workload exhibits).

use crate::dist::{Popularity, PopularitySampler};
use crate::sensor::{stream_name, MEASUREMENTS, NODES_PER_DEPLOYMENT, SENSOR_STREAMS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the random query workload.
#[derive(Debug, Clone)]
pub struct QueryGenConfig {
    /// Stream popularity: uniform or zipf (the Figure 4 x-axis families).
    pub popularity: Popularity,
    /// Fraction of two-stream join queries.
    pub join_fraction: f64,
    /// Fraction of grouped-aggregate queries.
    pub agg_fraction: f64,
    /// Window palette in milliseconds.
    pub windows_ms: Vec<i64>,
    /// Probability that a query carries a range predicate.
    pub predicate_prob: f64,
    /// Range-predicate width as a fraction of the attribute domain,
    /// drawn uniformly from this interval.
    pub selectivity: (f64, f64),
    /// Quantization steps for predicate endpoints.
    pub grid_steps: u32,
    /// Window palette for join queries, in milliseconds. Correlation
    /// joins use short windows (the paper's q1/q2-style hour windows on
    /// an auction stream are rates of a few events per hour; sensor
    /// deployments emit every 0.25–4 s, so hour-long join windows would
    /// produce result streams orders of magnitude above the inputs).
    pub join_windows_ms: Vec<i64>,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        QueryGenConfig {
            popularity: Popularity::Uniform,
            join_fraction: 0.1,
            agg_fraction: 0.05,
            windows_ms: vec![60_000, 300_000, 600_000, 1_800_000, 3_600_000],
            predicate_prob: 0.8,
            selectivity: (0.25, 0.75),
            grid_steps: 4,
            join_windows_ms: vec![5_000, 10_000, 30_000, 60_000],
        }
    }
}

/// A seeded random query generator.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    cfg: QueryGenConfig,
    sampler: PopularitySampler,
    rng: StdRng,
}

impl QueryGenerator {
    /// Build a generator over the 63 sensor streams.
    pub fn new(cfg: QueryGenConfig, seed: u64) -> QueryGenerator {
        let sampler = PopularitySampler::new(cfg.popularity, SENSOR_STREAMS);
        QueryGenerator {
            cfg,
            sampler,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn window(&mut self) -> String {
        let ms = self.cfg.windows_ms[self.rng.gen_range(0..self.cfg.windows_ms.len())];
        Self::fmt_window(ms)
    }

    fn join_window(&mut self) -> String {
        let ms = self.cfg.join_windows_ms[self.rng.gen_range(0..self.cfg.join_windows_ms.len())];
        Self::fmt_window(ms)
    }

    fn fmt_window(ms: i64) -> String {
        if ms % 3_600_000 == 0 {
            format!("[Range {} Hour]", ms / 3_600_000)
        } else if ms % 60_000 == 0 {
            format!("[Range {} Minute]", ms / 60_000)
        } else {
            format!("[Range {} Second]", ms / 1_000)
        }
    }

    /// A quantized range predicate on a random measurement of `binding`
    /// (empty string = unqualified).
    fn range_predicate(&mut self, binding: &str) -> String {
        let mi = self.rng.gen_range(0..MEASUREMENTS.len());
        self.range_predicate_on(binding, mi)
    }

    /// A quantized range predicate on measurement `mi`.
    fn range_predicate_on(&mut self, binding: &str, mi: usize) -> String {
        let (attr, lo, hi, _) = MEASUREMENTS[mi];
        let steps = self.cfg.grid_steps as f64;
        let span = hi - lo;
        let width_frac = self
            .rng
            .gen_range(self.cfg.selectivity.0..=self.cfg.selectivity.1);
        // Quantize both endpoints to the grid.
        let width_steps = ((width_frac * steps).round() as i64).max(1);
        let start_step = self
            .rng
            .gen_range(0..=(self.cfg.grid_steps as i64 - width_steps).max(0));
        let a = lo + start_step as f64 / steps * span;
        let b = lo + (start_step + width_steps) as f64 / steps * span;
        let qualify = |s: &str| {
            if binding.is_empty() {
                s.to_string()
            } else {
                format!("{binding}.{s}")
            }
        };
        format!("{} BETWEEN {a:.1} AND {b:.1}", qualify(attr))
    }

    /// Generate one query as CQL text.
    pub fn next_query(&mut self) -> String {
        let r: f64 = self.rng.gen();
        if r < self.cfg.agg_fraction {
            self.aggregate_query()
        } else if r < self.cfg.agg_fraction + self.cfg.join_fraction {
            self.join_query()
        } else {
            self.selection_query()
        }
    }

    /// Generate `n` queries.
    pub fn generate(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_query()).collect()
    }

    fn selection_query(&mut self) -> String {
        let s = stream_name(self.sampler.sample(&mut self.rng));
        let w = self.window();
        // Monitoring queries project the measurement they filter on
        // (plus the node id) — like the paper's stock-ticker example,
        // many users watch the same attribute of the same stream.
        let mi = self.rng.gen_range(0..MEASUREMENTS.len());
        let m = MEASUREMENTS[mi].0;
        let mut q = format!("SELECT node_id, {m} FROM {s} {w}");
        if self.rng.gen_bool(self.cfg.predicate_prob) {
            q.push_str(&format!(" WHERE {}", self.range_predicate_on("", mi)));
        }
        q
    }

    fn join_query(&mut self) -> String {
        // Correlation joins pair a deployment with its geographic
        // neighbor — a fixed partner, so joins over a popular stream
        // share a stream set and can merge.
        let a = self.sampler.sample(&mut self.rng);
        let b = (a + 1) % SENSOR_STREAMS;
        let (sa, sb) = (stream_name(a), stream_name(b));
        let (wa, wb) = (self.join_window(), self.join_window());
        let m1 = MEASUREMENTS[self.rng.gen_range(0..MEASUREMENTS.len())].0;
        let m2 = MEASUREMENTS[self.rng.gen_range(0..MEASUREMENTS.len())].0;
        let mut q = format!(
            "SELECT A.node_id, A.{m1}, B.{m2}, A.timestamp, B.timestamp \
             FROM {sa} {wa} A, {sb} {wb} B WHERE A.node_id = B.node_id"
        );
        if self.rng.gen_bool(self.cfg.predicate_prob) {
            q.push_str(&format!(" AND {}", self.range_predicate("A")));
        }
        q
    }

    fn aggregate_query(&mut self) -> String {
        let s = stream_name(self.sampler.sample(&mut self.rng));
        let w = self.window();
        let m = MEASUREMENTS[self.rng.gen_range(0..MEASUREMENTS.len())].0;
        let func = ["AVG", "MIN", "MAX", "SUM"][self.rng.gen_range(0..4usize)];
        let mut q = format!("SELECT node_id, {func}({m}) FROM {s} {w}");
        // aggregate filters must be on the grouping attribute to stay
        // mergeable (Theorem 2 reconstruction condition)
        if self.rng.gen_bool(self.cfg.predicate_prob * 0.5) {
            let lo = self.rng.gen_range(0..NODES_PER_DEPLOYMENT / 2);
            let hi = self.rng.gen_range(lo..NODES_PER_DEPLOYMENT);
            q.push_str(&format!(" WHERE node_id BETWEEN {lo} AND {hi}"));
        }
        q.push_str(" GROUP BY node_id");
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sensor::sensor_catalog;
    use cosmos_cql::parse_query;
    use cosmos_spe::AnalyzedQuery;

    #[test]
    fn all_generated_queries_parse_and_analyze() {
        let cat = sensor_catalog();
        for pop in [
            Popularity::Uniform,
            Popularity::Zipf(1.0),
            Popularity::Zipf(2.0),
        ] {
            let mut g = QueryGenerator::new(
                QueryGenConfig {
                    popularity: pop,
                    ..QueryGenConfig::default()
                },
                7,
            );
            for text in g.generate(300) {
                let parsed = parse_query(&text).unwrap_or_else(|e| panic!("{text}: {e}"));
                AnalyzedQuery::analyze(&parsed, cat.schema_fn())
                    .unwrap_or_else(|e| panic!("{text}: {e}"));
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = QueryGenerator::new(QueryGenConfig::default(), 5);
        let mut b = QueryGenerator::new(QueryGenConfig::default(), 5);
        assert_eq!(a.generate(50), b.generate(50));
        let mut c = QueryGenerator::new(QueryGenConfig::default(), 6);
        assert_ne!(a.generate(50), c.generate(50));
    }

    #[test]
    fn query_mix_respects_fractions() {
        let cfg = QueryGenConfig {
            join_fraction: 0.3,
            agg_fraction: 0.2,
            ..QueryGenConfig::default()
        };
        let mut g = QueryGenerator::new(cfg, 11);
        let qs = g.generate(1000);
        let joins = qs.iter().filter(|q| q.contains(" A, ")).count();
        let aggs = qs.iter().filter(|q| q.contains("GROUP BY")).count();
        assert!((250..=350).contains(&joins), "joins: {joins}");
        assert!((150..=250).contains(&aggs), "aggs: {aggs}");
    }

    #[test]
    fn zipf_concentrates_queries_on_few_streams() {
        let uni = {
            let mut g = QueryGenerator::new(QueryGenConfig::default(), 3);
            g.generate(2000)
        };
        let zipf = {
            let mut g = QueryGenerator::new(
                QueryGenConfig {
                    popularity: Popularity::Zipf(2.0),
                    ..QueryGenConfig::default()
                },
                3,
            );
            g.generate(2000)
        };
        let top_stream_count = |qs: &[String]| {
            let mut counts = vec![0usize; SENSOR_STREAMS];
            for q in qs {
                for (i, c) in counts.iter_mut().enumerate() {
                    if q.contains(&stream_name(i)) {
                        *c += 1;
                    }
                }
            }
            counts.into_iter().max().unwrap()
        };
        assert!(top_stream_count(&zipf) > 2 * top_stream_count(&uni));
    }

    #[test]
    fn predicates_are_quantized() {
        let mut g = QueryGenerator::new(QueryGenConfig::default(), 13);
        // the same BETWEEN clause must recur across many queries
        let qs = g.generate(800);
        let mut clauses = std::collections::BTreeMap::new();
        for q in &qs {
            if let Some(idx) = q.find("BETWEEN") {
                let clause = &q[idx..];
                *clauses.entry(clause.to_string()).or_insert(0usize) += 1;
            }
        }
        let max_recurrence = clauses.values().copied().max().unwrap_or(0);
        assert!(
            max_recurrence >= 5,
            "no overlap in predicates: {max_recurrence}"
        );
    }
}
