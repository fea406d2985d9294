//! The paper's primary contribution as a library: safe, budgeted
//! overclocking for immersion-cooled cloud datacenters.
//!
//! Everything else in the workspace is substrate; this crate is the
//! control plane that Sections IV–V of "Cost-Efficient Overclocking in
//! Immersion-Cooled Datacenters" (ISCA 2021) describe:
//!
//! * [`domains`] — the Figure 4/5 operating-domain model: guaranteed,
//!   turbo, overclocking (green, lifetime-neutral) and aggressive
//!   overclocking (red, lifetime-consuming) frequency bands per cooling
//!   technology.
//! * [`bottleneck`] — counter-based bottleneck analysis: which component
//!   (core, uncore, memory) is worth overclocking for the workload at
//!   hand, from Aperf/Pperf telemetry.
//! * [`governor`] — the overclock governor: combines the power budget
//!   (`ic-power` capping), the lifetime budget (`ic-reliability` wear
//!   tracking), and the stability envelope into one answer: *the highest
//!   safe frequency right now*.
//! * [`usecases`] — orchestrators for the paper's Section V scenarios:
//!   high-performance VMs, dense packing via oversubscription, virtual
//!   buffers, and capacity-crisis bridging.
//!
//! # Example
//!
//! ```
//! use ic_core::domains::OperatingDomains;
//! use ic_power::units::Frequency;
//!
//! let domains = OperatingDomains::skylake_2pic_hfe();
//! let f = Frequency::from_ghz(4.0);
//! assert!(f > domains.turbo()); // overclocked, inside the green band
//! assert!(f <= domains.green_top());
//! ```

pub mod bottleneck;
pub mod domains;
pub mod governor;
pub mod usecases;

pub use bottleneck::{BottleneckAnalysis, OverclockTarget};
pub use domains::OperatingDomains;
pub use governor::{GovernorConfig, GovernorDecision, OverclockGovernor};
