//! Every pattern the determinism gate bans, once. This crate must fail
//! clippy under `crates/clippy.toml`; see DESIGN §15.

use std::collections::{HashMap, HashSet};
use std::hash::RandomState;
use std::sync::mpsc::Receiver;
use std::time::{Duration, Instant, SystemTime};

pub fn hash_order(mut m: HashMap<u32, u32>, mut s: HashSet<u32>) {
    for _ in &m {}
    m.iter().for_each(drop);
    m.iter_mut().for_each(drop);
    m.keys().for_each(drop);
    m.values().for_each(drop);
    m.values_mut().for_each(drop);
    m.retain(|_, _| true);
    m.drain().for_each(drop);
    m.clone().into_keys().for_each(drop);
    m.into_values().for_each(drop);
    s.iter().for_each(drop);
    s.retain(|_| true);
    s.drain().for_each(drop);
}

pub fn wall_clock() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
}

pub fn entropy() -> RandomState {
    RandomState::new()
}

pub fn concurrency(rx: &Receiver<u32>) {
    std::thread::spawn(|| {});
    let _ = rx.try_recv();
    let _ = rx.recv_timeout(Duration::ZERO);
}
