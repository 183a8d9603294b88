//! Deployment-level utilization model for the WebConf scenario.
//!
//! WebConf provisions VMs across availability zones and keeps the *average
//! deployment-level* CPU utilization below a target (50 %) so it can absorb
//! a failed zone's load (§III-Q1, Fig. 4). The paper's point: a VM-local
//! overclocking policy would boost a hot VM even though the deployment as a
//! whole is already meeting its goal — workload intelligence must aggregate
//! at the deployment level.

use soc_power::units::MegaHertz;

/// One WebConf VM: its offered load expressed as CPU utilization at turbo.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WebConfVm {
    /// Utilization the VM would show at max turbo, `[0, 1]`.
    pub load_at_turbo: f64,
    /// Current core frequency.
    pub frequency: MegaHertz,
}

/// A WebConf deployment with a deployment-level utilization goal.
///
/// ```
/// use soc_workloads::webconf::{WebConfDeployment, WebConfVm};
/// use soc_power::units::MegaHertz;
///
/// let turbo = MegaHertz::new(3300);
/// let mut dep = WebConfDeployment::new(turbo, 0.5);
/// dep.add_vm(0.10); // lightly loaded VM
/// dep.add_vm(0.80); // hot VM
/// // Deployment-level utilization is 45% — already meeting the 50% goal,
/// // so overclocking the hot VM is unnecessary (Fig. 4).
/// assert!(dep.meets_goal());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WebConfDeployment {
    turbo: MegaHertz,
    goal: f64,
    vms: Vec<WebConfVm>,
}

impl WebConfDeployment {
    /// Create a deployment with a mean-utilization goal.
    ///
    /// # Panics
    /// Panics if `goal` is outside `(0, 1]` or the frequency is zero.
    pub fn new(turbo: MegaHertz, goal: f64) -> WebConfDeployment {
        assert!(turbo.get() > 0, "turbo frequency must be positive");
        assert!(goal > 0.0 && goal <= 1.0, "goal must be in (0, 1]");
        WebConfDeployment {
            turbo,
            goal,
            vms: Vec::new(),
        }
    }

    /// Add a VM with the given load, starting at turbo.
    ///
    /// # Panics
    /// Panics if `load_at_turbo` is outside `[0, 1]`.
    pub fn add_vm(&mut self, load_at_turbo: f64) -> usize {
        assert!(
            (0.0..=1.0).contains(&load_at_turbo),
            "load must be in [0, 1], got {load_at_turbo}"
        );
        self.vms.push(WebConfVm {
            load_at_turbo,
            frequency: self.turbo,
        });
        self.vms.len() - 1
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Set the frequency of VM `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set_frequency(&mut self, i: usize, f: MegaHertz) {
        assert!(f.get() > 0, "frequency must be positive");
        self.vms[i].frequency = f;
    }

    /// Current utilization of VM `i`: the same work at higher frequency
    /// occupies proportionally fewer cycles (`u = load · f_turbo / f`,
    /// clamped at 1).
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn vm_utilization(&self, i: usize) -> f64 {
        let vm = self.vms[i];
        (vm.load_at_turbo * self.turbo.ratio(vm.frequency)).min(1.0)
    }

    /// Deployment-level mean utilization.
    ///
    /// # Panics
    /// Panics if the deployment has no VMs.
    pub fn deployment_utilization(&self) -> f64 {
        assert!(!self.vms.is_empty(), "deployment has no VMs");
        (0..self.vms.len())
            .map(|i| self.vm_utilization(i))
            .sum::<f64>()
            / self.vms.len() as f64
    }

    /// Whether the deployment meets its utilization goal.
    pub fn meets_goal(&self) -> bool {
        self.deployment_utilization() <= self.goal
    }

    /// VM indices a *VM-local* policy (threshold on per-VM utilization)
    /// would overclock — used to demonstrate the Fig. 4 inefficiency.
    pub fn vms_above(&self, threshold: f64) -> Vec<usize> {
        (0..self.vms.len())
            .filter(|&i| self.vm_utilization(i) > threshold)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> WebConfDeployment {
        let mut dep = WebConfDeployment::new(MegaHertz::new(3300), 0.5);
        dep.add_vm(0.10);
        dep.add_vm(0.80);
        dep
    }

    #[test]
    fn paper_scenario_meets_goal_without_overclocking() {
        let dep = deployment();
        assert!((dep.deployment_utilization() - 0.45).abs() < 1e-12);
        assert!(dep.meets_goal());
        // A VM-local policy would still flag VM2.
        assert_eq!(dep.vms_above(0.7), vec![1]);
    }

    #[test]
    fn overclocking_lowers_vm_utilization() {
        let mut dep = deployment();
        dep.set_frequency(1, MegaHertz::new(4000));
        let u = dep.vm_utilization(1);
        assert!((u - 0.8 * 3300.0 / 4000.0).abs() < 1e-12);
        assert!(dep.deployment_utilization() < 0.45);
    }

    #[test]
    fn utilization_clamps_at_one() {
        let mut dep = WebConfDeployment::new(MegaHertz::new(3300), 0.5);
        dep.add_vm(1.0);
        dep.set_frequency(0, MegaHertz::new(2000)); // underclock
        assert_eq!(dep.vm_utilization(0), 1.0);
    }

    #[test]
    fn goal_violated_when_all_vms_hot() {
        let mut dep = WebConfDeployment::new(MegaHertz::new(3300), 0.5);
        dep.add_vm(0.7);
        dep.add_vm(0.8);
        assert!(!dep.meets_goal());
    }

    #[test]
    #[should_panic(expected = "load must be in")]
    fn rejects_bad_load() {
        let mut dep = WebConfDeployment::new(MegaHertz::new(3300), 0.5);
        dep.add_vm(1.5);
    }
}
