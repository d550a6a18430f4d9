//! The law of `GroupChange`: what a `GroupManager` operation returns is
//! *everything* it did. Folding every returned change into a model of
//! the layer below — running representatives by result stream, member
//! subscriptions by query — must reproduce the manager's own `groups()`
//! and `placement()` after every step of a random insert / remove /
//! reoptimize history, without the model ever looking at the manager.

use cosmos_cbn::Profile;
use cosmos_query::{retighten_profile, GroupChange, GroupManager, StatsCatalog};
use cosmos_spe::AnalyzedQuery;
use cosmos_types::{QueryId, StreamName};
use cosmos_workload::{sensor_catalog, Popularity, QueryGenConfig, QueryGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// What the layer below a manager holds, built from changes alone.
#[derive(Default)]
struct Model {
    reps: BTreeMap<StreamName, AnalyzedQuery>,
    subs: BTreeMap<QueryId, (StreamName, Profile)>,
}

impl Model {
    /// Apply one change the way the driver does — stops, starts,
    /// replacements, subscriptions — checking the change's own laws on
    /// the way. `live` holds the queries placed after the operation.
    fn fold(&mut self, change: &GroupChange, live: &BTreeMap<QueryId, AnalyzedQuery>, step: &str) {
        let before: BTreeSet<StreamName> = self.reps.keys().cloned().collect();
        let mut touched = BTreeSet::new();
        for stream in &change.stop {
            assert!(touched.insert(stream), "{step}: {stream} named twice");
            assert!(
                self.reps.remove(stream).is_some(),
                "{step}: stop of {stream}"
            );
        }
        for (stream, rep) in &change.start {
            assert!(touched.insert(stream), "{step}: {stream} named twice");
            let old = self.reps.insert(stream.clone(), rep.clone());
            assert!(old.is_none(), "{step}: start of running {stream}");
        }
        for (stream, rep) in &change.replace {
            assert!(touched.insert(stream), "{step}: {stream} named twice");
            let old = self.reps.insert(stream.clone(), rep.clone());
            assert!(old.is_some(), "{step}: replace of absent {stream}");
        }
        self.subs.retain(|qid, _| live.contains_key(qid));
        for (qid, stream, profile) in &change.subscribe {
            let fresh = retighten_profile(&live[qid], &self.reps[stream], stream).unwrap();
            assert_eq!(
                profile, &fresh,
                "{step}: {qid}'s profile is not re-tightened"
            );
            self.subs.insert(*qid, (stream.clone(), profile.clone()));
        }
        let named = touched
            .into_iter()
            .chain(change.subscribe.iter().map(|(_, s, _)| s));
        for stream in named {
            let live_around = before.contains(stream) || self.reps.contains_key(stream);
            assert!(
                live_around,
                "{step}: {stream} is live neither before nor after"
            );
        }
    }

    /// The model and the manager describe the same groups.
    fn assert_matches(&self, gm: &GroupManager, step: &str) {
        let groups: BTreeMap<StreamName, AnalyzedQuery> = gm
            .groups()
            .map(|g| (g.result_stream.clone(), g.representative.clone()))
            .collect();
        assert_eq!(self.reps, groups, "{step}: representatives");
        assert_eq!(self.subs.len(), gm.query_count(), "{step}: query count");
        for (qid, (stream, profile)) in &self.subs {
            let (group, placed) = gm.placement(*qid).expect("subscribed query is placed");
            assert_eq!(&group.result_stream, stream, "{step}: {qid}'s stream");
            assert_eq!(placed, profile, "{step}: {qid}'s placement");
        }
    }
}

fn analyze(catalog: &StatsCatalog, text: &str) -> AnalyzedQuery {
    let parsed = cosmos_cql::parse_query(text).unwrap();
    AnalyzedQuery::analyze(&parsed, catalog.schema_fn()).unwrap()
}

/// Run 24 seeded insert / remove / reoptimize histories against a
/// sharing (`share`) or never-merging manager, folding and checking every
/// change. Returns how many changes widened, shrank, dissolved and
/// regrouped.
fn run_histories(share: bool) -> [usize; 4] {
    let catalog = sensor_catalog();
    let (mut widened, mut shrunk, mut dissolved, mut regrouped) = (0, 0, 0, 0);
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = QueryGenConfig {
            popularity: Popularity::Zipf(1.5),
            ..QueryGenConfig::default()
        };
        let mut queries = QueryGenerator::new(cfg, seed ^ 0x51);
        let mut gm = if share {
            GroupManager::new("rep")
        } else {
            GroupManager::unshared("rep")
        };
        let mut model = Model::default();
        let mut live: BTreeMap<QueryId, AnalyzedQuery> = BTreeMap::new();
        for i in 0..120u64 {
            let step = format!("share {share} seed {seed} step {i}");
            let change = match rng.gen_range(0..10u32) {
                0..=5 => {
                    let q = analyze(&catalog, &queries.next_query());
                    live.insert(QueryId(i), q.clone());
                    let change = gm.insert(QueryId(i), q, &catalog).unwrap();
                    assert_eq!(change.subscribe.last().unwrap().0, QueryId(i), "{step}");
                    widened += usize::from(!change.replace.is_empty());
                    change
                }
                6..=8 if !live.is_empty() => {
                    let nth = rng.gen_range(0..live.len());
                    let qid = *live.keys().nth(nth).unwrap();
                    live.remove(&qid);
                    let change = gm.remove(qid).unwrap();
                    shrunk += usize::from(!change.replace.is_empty());
                    dissolved += usize::from(!change.stop.is_empty());
                    change
                }
                _ => {
                    let change = gm.reoptimize(&catalog).unwrap();
                    regrouped += usize::from(!change.is_empty());
                    change
                }
            };
            model.fold(&change, &live, &step);
            model.assert_matches(&gm, &step);
            if !share {
                assert_eq!(gm.group_count(), gm.query_count(), "{step}: singletons");
            }
        }
    }
    [widened, shrunk, dissolved, regrouped]
}

#[test]
fn folding_every_change_reproduces_the_manager() {
    // A sharing manager's histories exercise widening inserts, shrinking
    // and dissolving removals, and adopted regroupings.
    let shared = run_histories(true);
    assert!(shared.iter().all(|&n| n >= 8), "{shared:?}");
    // A never-merging one only founds and dissolves: nothing is ever
    // replaced, and no regrouping is ever adopted.
    let [widened, shrunk, dissolved, regrouped] = run_histories(false);
    assert_eq!([widened, shrunk, regrouped], [0, 0, 0]);
    assert!(dissolved >= 8, "{dissolved}");
}
