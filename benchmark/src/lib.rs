//! The COSMOS benchmark: five workloads driven through the workspace's
//! public API, nine end-to-end metrics from a measured run, and 48
//! per-layer metrics from a separate traced run. See `README.md`.
#![deny(unsafe_code)]

pub mod alloc;
pub mod cli;
pub mod host;
pub mod measure;
pub mod stats;
pub mod sut;
pub mod trace;
pub mod verify;
pub mod workloads;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;
