//! # soc-workloads — cloud workload models
//!
//! The paper evaluates SmartOClock on latency-critical microservices
//! (DeathStarBench SocialNet), throughput-oriented ML training
//! (FunctionBench MLTrain), and a proprietary web-conferencing application
//! (WebConf). This crate provides executable stand-ins for all three:
//!
//! * [`microservice`] — an open-loop discrete-event queueing simulator:
//!   Poisson arrivals sampled by a shareable `Traffic` generator,
//!   per-service heavy-tailed service times, multi-core
//!   VMs, least-loaded routing, online frequency changes and VM add/remove.
//!   Latency percentiles, SLO misses (SLO = 5× unloaded execution time, as
//!   in §III and §V-A), and CPU utilization come out per observation window,
//!   so control systems (autoscalers, SmartOClock) can close the loop.
//! * [`socialnet`] — the eight SocialNet-like service specifications used in
//!   Figs. 2, 3, and 12, with heterogeneous tail sensitivity (some services
//!   violate their SLO at low CPU utilization, others tolerate high
//!   utilization — the paper's Q1 observation).
//! * [`mltrain`] — frequency-proportional batch training with constant high
//!   power draw; throughput is the metric (§V-A "power-constrained").
//! * [`webconf`] — deployment-level utilization model for the WebConf
//!   scenario of Fig. 4.
//! * [`loadgen`] — piecewise-constant arrival-rate schedules, including
//!   diurnal and spike patterns derived from `soc-traces` shapes.

#![forbid(unsafe_code)]

pub mod loadgen;
pub mod microservice;
pub mod mltrain;
pub mod socialnet;
pub mod webconf;

pub use loadgen::RateSchedule;
pub use microservice::{MicroserviceSim, ServiceSpec, Traffic, WindowStats};
pub use mltrain::MlTrain;
pub use webconf::WebConfDeployment;
