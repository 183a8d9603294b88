//! Trace containers: server, rack, and fleet.
//!
//! Mirrors the data the paper collects in production: "The traces include
//! rack and server power, and VM-level CPU utilization. All data is collected
//! for 6 weeks, at a 5-minute granularity" (§V-B).
//!
//! Server series are held at 10 bytes per sample (see [`ServerTrace`]):
//! server power is derived from utilization on read, and the rack's base
//! draw is the rack series itself, the sum of the derived server draws in
//! server order.

use simcore::series::TimeSeries;
use simcore::stats::Ecdf;
use simcore::time::SimTime;
use soc_power::model::UniformPowerFn;
use soc_power::units::Watts;

/// CPU generation of a rack's servers (the §V-B fleets mix Intel and AMD).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuGeneration {
    /// AMD-generation servers (the paper's cluster hardware).
    Amd,
    /// Intel-generation servers.
    Intel,
}

impl std::fmt::Display for CpuGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CpuGeneration::Amd => "AMD",
            CpuGeneration::Intel => "Intel",
        })
    }
}

/// Telemetry for one server over the trace span.
///
/// A sample costs 10 bytes: the utilization (`f64`) and the count of cores
/// requesting overclocking (`u16`). The baseline power is not stored: it is
/// the rack's server power function at turbo applied to the utilization,
/// which is how the generator computed the draw it summed into the rack
/// series, so every derived sample is bit-identical to that draw.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerTrace {
    /// Server index within its rack.
    pub index: usize,
    /// Mean CPU utilization per sample, in `[0, 1]`.
    pub utilization: TimeSeries,
    /// Baseline (non-overclocked) power draw, derived from `utilization`.
    pub power: ServerPower,
    /// Number of cores requesting overclocking per sample, aligned with
    /// `utilization` (same start, step and length).
    pub oc_demand_cores: Vec<u16>,
}

/// A server's baseline power series, held as the function that derives it:
/// sample `k` is `at(utilization[k])` for the [`UniformPowerFn`] of the
/// server's rack at turbo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerPower {
    at: UniformPowerFn,
    len: usize,
}

impl ServerPower {
    /// Number of samples (the utilization series' length).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Borrowed raw-sample view of one server's trace, for columnar consumers.
///
/// Both slices are aligned: built by [`ServerTrace::view`], they share
/// the trace's start, step, and length, so one slot index (computed once per
/// simulation step via `TimeSeries::index_at`) addresses all of them.
#[derive(Debug, Clone, Copy)]
pub struct ServerSeriesView<'a> {
    /// Mean CPU utilization samples, in `[0, 1]`.
    pub utilization: &'a [f64],
    /// Overclock-demanding core counts per sample.
    pub oc_demand_cores: &'a [u16],
    /// Baseline power of a utilization sample, in watts.
    pub power: UniformPowerFn,
}

impl ServerTrace {
    /// A server's trace from its utilization and OC-demand samples and its
    /// rack's server power function at turbo.
    ///
    /// # Panics
    /// Panics if the two series differ in length.
    pub(crate) fn new(
        index: usize,
        utilization: TimeSeries,
        oc_demand_cores: Vec<u16>,
        power: UniformPowerFn,
    ) -> ServerTrace {
        assert_eq!(
            utilization.len(),
            oc_demand_cores.len(),
            "utilization and OC-demand series must be aligned"
        );
        ServerTrace {
            index,
            power: ServerPower {
                at: power,
                len: utilization.len(),
            },
            utilization,
            oc_demand_cores,
        }
    }

    /// Borrowed raw-sample slices of the utilization and demand series.
    pub fn view(&self) -> ServerSeriesView<'_> {
        ServerSeriesView {
            utilization: self.utilization.values(),
            oc_demand_cores: &self.oc_demand_cores,
            power: self.power.at,
        }
    }

    /// Baseline power over `[from, to)` (clamped like
    /// [`TimeSeries::slice`]), derived sample by sample in watts.
    pub fn power_series(&self, from: SimTime, to: SimTime) -> TimeSeries {
        self.derive(from, to, |u, _| self.power.at.at(u).get())
    }

    /// Overclock-demanding core counts over `[from, to)` (clamped like
    /// [`TimeSeries::slice`]), as the `f64` series the gOA's profiles are
    /// built from.
    pub fn oc_demand_series(&self, from: SimTime, to: SimTime) -> TimeSeries {
        self.derive(from, to, |_, cores| f64::from(cores))
    }

    /// One value per sample in `[from, to)` from its utilization and
    /// OC-demand count, on the utilization series' grid.
    fn derive(&self, from: SimTime, to: SimTime, f: impl Fn(f64, u16) -> f64) -> TimeSeries {
        let range = self.utilization.index_range(from, to);
        let start = self.utilization.time_at_index(range.start);
        let util = self.utilization.values().get(range.clone()).unwrap_or(&[]);
        let cores = self.oc_demand_cores.get(range).unwrap_or(&[]);
        let values = util.iter().zip(cores).map(|(&u, &c)| f(u, c)).collect();
        TimeSeries::from_values(start, self.utilization.step(), values)
    }
}

/// Telemetry for one rack.
#[derive(Debug, Clone, PartialEq)]
pub struct RackTrace {
    /// Rack index within the fleet.
    pub index: usize,
    /// CPU generation of the rack's servers.
    pub generation: CpuGeneration,
    /// Provisioned rack power limit.
    pub limit: Watts,
    /// Aggregate baseline rack power per sample, watts.
    pub power: TimeSeries,
    /// Per-server traces (may be empty when the generator was asked to keep
    /// only rack-level aggregates to bound memory).
    pub servers: Vec<ServerTrace>,
}

impl RackTrace {
    /// Rack power utilization series (power / limit).
    pub fn utilization(&self) -> TimeSeries {
        let limit = self.limit.get();
        self.power.map(|p| p / limit)
    }

    /// Mean power utilization.
    ///
    /// # Panics
    /// Panics if the trace is empty.
    pub fn mean_utilization(&self) -> f64 {
        self.power.mean() / self.limit.get()
    }

    /// Percentile of power utilization.
    ///
    /// # Panics
    /// Panics if the trace is empty or `p` outside `[0, 100]`.
    fn utilization_percentile(&self, p: f64) -> f64 {
        self.power.percentile(p) / self.limit.get()
    }

    /// Headroom series: limit minus draw (clamped at zero).
    pub fn headroom(&self) -> TimeSeries {
        let limit = self.limit.get();
        self.power.map(|p| (limit - p).max(0.0))
    }
}

/// A complete fleet trace: many racks, one region tag.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTrace {
    /// Region label (for Fig. 5 / Fig. 8 style multi-region comparisons).
    pub region: String,
    /// All racks.
    pub racks: Vec<RackTrace>,
}

impl FleetTrace {
    /// ECDF of per-rack *mean* power utilization (Fig. 5 "Average").
    ///
    /// # Panics
    /// Panics if the fleet is empty.
    pub fn mean_utilization_cdf(&self) -> Ecdf {
        assert!(!self.racks.is_empty(), "empty fleet");
        Ecdf::from_samples(
            &self
                .racks
                .iter()
                .map(RackTrace::mean_utilization)
                .collect::<Vec<_>>(),
        )
    }

    /// ECDF of per-rack utilization percentile `p` (Fig. 5 "P50"/"P99").
    ///
    /// # Panics
    /// Panics if the fleet is empty.
    pub fn utilization_percentile_cdf(&self, p: f64) -> Ecdf {
        assert!(!self.racks.is_empty(), "empty fleet");
        Ecdf::from_samples(
            &self
                .racks
                .iter()
                .map(|r| r.utilization_percentile(p))
                .collect::<Vec<_>>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimDuration;

    fn series(values: Vec<f64>) -> TimeSeries {
        TimeSeries::from_values(SimTime::ZERO, SimDuration::from_minutes(5), values)
    }

    fn rack() -> RackTrace {
        RackTrace {
            index: 0,
            generation: CpuGeneration::Amd,
            limit: Watts::new(1000.0),
            power: series(vec![500.0, 700.0, 900.0, 600.0]),
            servers: Vec::new(),
        }
    }

    #[test]
    fn utilization_divides_by_limit() {
        let r = rack();
        assert_eq!(r.utilization().values(), &[0.5, 0.7, 0.9, 0.6]);
        assert!((r.mean_utilization() - 0.675).abs() < 1e-12);
    }

    #[test]
    fn headroom_and_fraction_below() {
        let r = rack();
        assert_eq!(r.headroom().values(), &[500.0, 300.0, 100.0, 400.0]);
    }

    #[test]
    fn server_trace_helpers() {
        let model = soc_power::model::PowerModel::reference_server();
        let turbo = model.plan().turbo();
        let s = ServerTrace::new(
            0,
            series(vec![0.2, 0.4, 0.6]),
            vec![0, 8, 3],
            model.uniform_power_fn(turbo),
        );
        assert_eq!(s.power.len(), 3);
        let end = SimTime::ZERO + SimDuration::from_minutes(15);
        let later = end + SimDuration::from_minutes(15);
        let power = s.power_series(SimTime::ZERO, end);
        let want: Vec<f64> = [0.2, 0.4, 0.6]
            .iter()
            .map(|&u| model.server_power_uniform(u, turbo).get())
            .collect();
        assert_eq!(power.values(), want.as_slice());
        // A span is clamped to the series and keeps its grid.
        let tail = s.oc_demand_series(SimTime::ZERO + SimDuration::from_minutes(4), later);
        assert_eq!(tail.values(), &[8.0, 3.0]);
        assert_eq!(tail.start(), SimTime::ZERO + SimDuration::from_minutes(5));
        assert!(s.power_series(end, later).is_empty());
    }

    #[test]
    fn fleet_cdfs() {
        let mut r1 = rack();
        r1.index = 0;
        let mut r2 = rack();
        r2.index = 1;
        r2.power = series(vec![100.0, 100.0, 100.0, 100.0]);
        let fleet = FleetTrace {
            region: "test".into(),
            racks: vec![r1, r2],
        };
        let cdf = fleet.mean_utilization_cdf();
        assert_eq!(cdf.len(), 2);
        // Rack 2 has mean utilization 0.1.
        assert_eq!(cdf.quantile(0.0), 0.1);
        let p99_cdf = fleet.utilization_percentile_cdf(99.0);
        assert!(p99_cdf.quantile(1.0) <= 0.9 + 1e-9);
    }
}
