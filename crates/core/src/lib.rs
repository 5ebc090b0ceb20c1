//! ActFort — the paper's primary contribution: systematic analysis of
//! Online Account Ecosystem dependency vulnerabilities.
//!
//! The pipeline mirrors Fig. 2 of the paper:
//!
//! 1. **Authentication Process** and **Personal Information Collection**
//!    are captured as [`actfort_ecosystem::spec::ServiceSpec`] profiles
//!    (curated + synthetic populations live in `actfort-ecosystem`).
//! 2. **Dependency Graph Generation** — [`tdg::Tdg`] classifies
//!    full-capacity parents (strong-directivity edges) and couple nodes
//!    (weak-directivity edges / the Couple File) against an
//!    [`profile::AttackerProfile`].
//! 3. **Strategy Output** — [`strategy::StrategyEngine`] answers the two
//!    queries of §III-E: forward (OAAS → IAD → PAV fixed point) and
//!    backward (attack chains from phone+SMS fringe nodes to a target).
//!
//! [`metrics`] reproduces the measurement statistics (Fig. 3, Table I,
//! dependency depth), [`counter`] implements the §VII countermeasures
//! with differential re-analysis, and [`dot`] exports Fig. 4-style
//! graphs. [`obs`] is the zero-dependency observability layer every
//! runtime crate reports through: counters, latency histograms,
//! hierarchical spans and a bounded event journal behind one global
//! recorder that is free when disabled (DESIGN.md §9).
//!
//! Every query goes through the [`query::Analysis`] facade; failures
//! surface as the unified [`error::Error`] with stable wire
//! discriminants (the contract `actfort-serve` exposes over HTTP).
//!
//! # Example
//!
//! ```
//! use actfort_core::profile::AttackerProfile;
//! use actfort_core::query::Analysis;
//! use actfort_ecosystem::dataset::curated_services;
//! use actfort_ecosystem::policy::Platform;
//!
//! let specs = curated_services();
//! let ap = AttackerProfile::paper_default();
//!
//! // Forward: which accounts fall to the paper's default attacker?
//! let result = Analysis::over(&specs, Platform::MobileApp, ap).forward(&[]).run().unwrap();
//! assert!(result.compromised_count() > 0);
//!
//! // Backward: the best attack chain reaching Alipay.
//! let tdg = actfort_core::Tdg::build(&specs, Platform::MobileApp, ap);
//! let chains = Analysis::of(&tdg).backward(&"alipay".into()).max_chains(1).run().unwrap();
//! println!("{} steps", chains[0].len());
//! ```

pub mod analysis;
pub mod backward;
pub mod batch;
pub mod breach;
pub mod campaign;
pub mod counter;
pub mod dot;
pub mod error;
pub mod metrics;
pub mod pool;
pub mod prepared;
pub mod profile;
pub mod query;
pub mod report;
pub mod score;
pub mod strategy;
pub mod tdg;

/// The zero-dependency observability layer ([`actfort_obs`]), re-exported
/// at its historical path. It lives in its own crate so the GSM substrate
/// (a dependency of `actfort-ecosystem`, hence *beneath* this crate) can
/// report through the same global recorder without a dependency cycle.
pub use actfort_obs as obs;

pub use actfort_ecosystem::policy::EdgeClass;
pub use analysis::{AttackChain, ForwardResult};
pub use backward::BackwardEngine;
pub use error::Error;
pub use prepared::{ForwardScratch, Prepared};
pub use query::{Analysis, Engine, WhatifReport};
pub use score::{OverlayFactor, OverlayScratch, UserOverlay, UserProfile, UserScore};
pub use counter::{Countermeasure, Patcher};
pub use pool::InfoPool;
pub use profile::AttackerProfile;
pub use strategy::StrategyEngine;
pub use tdg::Tdg;
