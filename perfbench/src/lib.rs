//! The repository benchmark: four seeded workloads driven through ASDF's
//! public API (`Session`, `CompileServer::handle_line`, the backend
//! registry, `asdf_resource::estimate`), hand-written known-answer checks
//! on every output, and a traced run that re-issues the same requests
//! through each layer's public functions. See `README.md` beside this
//! crate for the workloads, the metrics and how to run it.

pub mod check;
pub mod programs;
pub mod stats;
pub mod trace;
pub mod workloads;
