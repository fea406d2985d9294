//! Processor and datacenter power models for Section IV of
//! "Cost-Efficient Overclocking in Immersion-Cooled Datacenters"
//! (ISCA 2021).
//!
//! Overclocking's first cost is power. This crate models:
//!
//! * [`units`] — frequency/voltage newtypes and 100 MHz frequency bins,
//! * [`vf`] — the voltage/frequency curve measured on the Xeon W-3175X
//!   (0.90 V @ 205 W → 0.98 V @ 305 W buys +23 % frequency),
//! * [`leakage`] — temperature- and voltage-dependent static power,
//!   calibrated to the paper's "11 W of static power per socket saved
//!   when junction temperature drops 17–22 °C",
//! * [`cpu`] — whole-socket power with thermal feedback (leakage depends
//!   on junction temperature, which depends on power), reproducing Table
//!   III's "one extra turbo bin in 2PIC at identical power",
//! * [`server`] — the Open Compute server component breakdown (700 W in
//!   air, 42 W of it fans) and the paper's 182 W/server savings estimate,
//! * [`capping`] — RAPL-style priority-aware power capping for
//!   oversubscribed power delivery infrastructure,
//! * [`cache`] — memoized steady-state solves for sweep-style callers,
//! * [`batch`] — a structure-of-arrays batch solver running the same
//!   fixed point across many operating points per pass, bitwise-equal
//!   to the scalar path.
//!
//! # Example
//!
//! ```
//! use ic_power::cpu::CpuSku;
//! use ic_thermal::junction::ThermalInterface;
//! use ic_thermal::fluid::DielectricFluid;
//!
//! let sku = CpuSku::skylake_8180();
//! let air = ThermalInterface::air(35.0, 12.1, 0.21);
//! let tank = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6);
//! // 2PIC's lower junction temperature buys one extra 100 MHz turbo bin
//! // at the same 205 W TDP (Table III).
//! let air_turbo = sku.max_turbo(&air, sku.tdp_w());
//! let tank_turbo = sku.max_turbo(&tank, sku.tdp_w());
//! assert_eq!((tank_turbo.ghz() - air_turbo.ghz() * 1.0) .max(0.0) > 0.05, true);
//! ```

pub mod batch;
pub mod cache;
pub mod capping;
pub mod cpu;
pub mod hierarchy;
pub mod leakage;
pub mod server;
pub mod turbo;
pub mod units;
pub mod vf;

pub use cpu::CpuSku;
pub use units::{Frequency, Voltage};
pub use vf::VfCurve;
