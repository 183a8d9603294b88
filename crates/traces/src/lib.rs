//! # soc-traces — synthetic production traces
//!
//! The paper's characterization and large-scale evaluation are driven by six
//! weeks of production telemetry: rack and server power plus VM-level CPU
//! utilization at 5-minute granularity across 7.1k dedicated racks (§III,
//! §V-B). That data is proprietary, so this crate generates the closest
//! synthetic equivalent:
//!
//! * [`shape`] — parametric load shapes: diurnal plateaus (Service A),
//!   top/bottom-of-the-hour spikes (Services B/C), constant batch load,
//!   night-shifted and office-hours patterns.
//! * [`services`] — a catalog of named service profiles, including the three
//!   services of Fig. 1 and a population of background services used to fill
//!   racks with heterogeneous multi-tenant mixes.
//! * [`gen`] — the fleet generator: VMs (2–8 cores) are placed on servers,
//!   servers into racks, each VM driven by its service's shape plus noise
//!   and occasional outlier days; power comes from `soc-power`'s model. The
//!   generator reproduces the statistical properties the paper's findings
//!   rest on: diurnal repeatability (Q3), server heterogeneity within a rack
//!   (Q4), and headroom distributions (Q2).
//! * [`fleet`] — trace containers ([`fleet::ServerTrace`],
//!   [`fleet::RackTrace`], [`fleet::FleetTrace`]) with the aggregate
//!   statistics the figures plot.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod gen;
pub mod services;
pub mod shape;

pub use fleet::{FleetTrace, RackTrace, ServerTrace};
pub use gen::{FleetConfig, TraceGenerator};
pub use shape::LoadShape;
