//! The system variants evaluated in Table I.
//!
//! "We compare SmartOClock to (1) Central – an oracle with a global view of
//! power draw …, (2) NaiveOClock – a system that grants all overclocking
//! requests, (3) NoFeedback – a system that adheres to the per-server power
//! budgets with no exploration beyond, and (4) NoWarning – a system that
//! allows exploring but with no warnings." (paper §V-B)

/// Which overclocking-management policy a deployment runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Oracle with a global, instantaneous view of rack power; admission is
    /// decided against the *actual* rack headroom rather than predictions.
    Central,
    /// Grants every request; splits the rack budget evenly on capping.
    NaiveOClock,
    /// Prediction-based admission and heterogeneous budgets, but servers
    /// never explore beyond their assigned budgets.
    NoFeedback,
    /// Exploration enabled, but warning messages are ignored; servers only
    /// retreat on actual capping events.
    NoWarning,
    /// The full system.
    SmartOClock,
}

impl PolicyKind {
    /// All policies, in Table I's row order.
    pub const ALL: [PolicyKind; 5] = [
        PolicyKind::Central,
        PolicyKind::NaiveOClock,
        PolicyKind::NoFeedback,
        PolicyKind::NoWarning,
        PolicyKind::SmartOClock,
    ];

    /// Whether admission control checks power predictions.
    /// (`NaiveOClock` grants everything.)
    pub fn admission_checked(self) -> bool {
        !matches!(self, PolicyKind::NaiveOClock)
    }

    /// Whether rack budgets are split heterogeneously by demand.
    /// "All systems bar NaiveOClock employ this optimization" (§V-B).
    pub(crate) fn heterogeneous_budgets(self) -> bool {
        !matches!(self, PolicyKind::NaiveOClock)
    }

    /// Whether servers explore beyond their assigned budget.
    pub fn explores(self) -> bool {
        matches!(self, PolicyKind::NoWarning | PolicyKind::SmartOClock)
    }

    /// Whether exploring servers back off on rack warnings.
    pub fn heeds_warnings(self) -> bool {
        matches!(self, PolicyKind::SmartOClock)
    }

    /// Whether admission consults a live global view instead of local
    /// predictions.
    pub fn is_central(self) -> bool {
        matches!(self, PolicyKind::Central)
    }

    /// Whether admission reads the power templates' predictions and the
    /// gOA budgets split from them. `Central` admits against the live rack
    /// draw and `NaiveOClock` grants everything, so neither does, and
    /// large-scale runs of them train no templates.
    pub fn reads_predictions(self) -> bool {
        self.admission_checked() && !self.is_central()
    }

    /// Display name matching Table I.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Central => "Central",
            PolicyKind::NaiveOClock => "NaiveOClock",
            PolicyKind::NoFeedback => "NoFeedback",
            PolicyKind::NoWarning => "NoWarning",
            PolicyKind::SmartOClock => "SmartOClock",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_matrix_matches_paper() {
        use PolicyKind::*;
        // Admission: all but NaiveOClock.
        assert!(Central.admission_checked());
        assert!(!NaiveOClock.admission_checked());
        assert!(SmartOClock.admission_checked());
        // Heterogeneous budgets: all but NaiveOClock.
        assert!(!NaiveOClock.heterogeneous_budgets());
        assert!(NoFeedback.heterogeneous_budgets());
        // Exploration: NoWarning + SmartOClock only.
        assert!(!NoFeedback.explores());
        assert!(NoWarning.explores());
        assert!(SmartOClock.explores());
        // Warnings: SmartOClock only.
        assert!(!NoWarning.heeds_warnings());
        assert!(SmartOClock.heeds_warnings());
        // Central oracle.
        assert!(Central.is_central());
        assert!(!SmartOClock.is_central());
    }

    #[test]
    fn all_lists_five_in_table_order() {
        assert_eq!(PolicyKind::ALL.len(), 5);
        assert_eq!(PolicyKind::ALL[0], PolicyKind::Central);
        assert_eq!(PolicyKind::ALL[4], PolicyKind::SmartOClock);
        assert_eq!(PolicyKind::SmartOClock.to_string(), "SmartOClock");
    }
}
