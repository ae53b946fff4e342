//! `trajectory` — the repo's benchmark. Six named workloads drive the
//! G-CORE reproduction end to end (through a loopback `gcore_serve`
//! socket, or through `gcore-store` for the restart workload), check
//! every answer against an in-process oracle and print one JSON record;
//! a traced pass attributes the time to the layers by bracketing the
//! calls into their public functions. See `README.md` in this directory.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod fixture;
pub mod json;
pub mod keep_awake;
pub mod metrics;
pub mod oracle;
pub mod probes;
pub mod record;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
