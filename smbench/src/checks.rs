//! Output checks and quality reads, made after timing ends on what the
//! campaign left in its store.

use std::collections::BTreeSet;
use std::path::Path;

use sm_core::correction::correction_cells_legal;
use sm_core::flow::ProtectedDesign;
use sm_engine::{ArtifactStore, Campaign, JobMetrics, Stage};
use sm_netlist::Netlist;
use sm_sim::equiv::{check, Equivalence};

/// Conflict budget of the SAT equivalence check.
pub const EQUIV_CONFLICTS: u64 = 200_000;

/// What the checks found.
#[derive(Debug, Default)]
pub struct Quality {
    /// Highest flow-attack CCR over randomized connections (%), when
    /// the campaign ran flow jobs.
    pub ccr_protected_pct: Option<f64>,
    /// Worst power/delay overhead over the protected designs (%).
    pub ppa_overhead_pct: f64,
    /// Checks made.
    pub checks: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Quality {
    /// Records one check.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The first sink whose driving net differs between `golden` and
/// `restored`, if any: every cell input pin and every output port must
/// be driven by the same net in both.
pub fn connectivity_mismatch(golden: &Netlist, restored: &Netlist) -> Option<String> {
    if golden.num_cells() != restored.num_cells() || golden.num_nets() != restored.num_nets() {
        return Some("cell or net count differs".into());
    }
    for (id, cell) in golden.cells() {
        if cell.inputs() != restored.cell(id).inputs() {
            return Some(format!("cell {} is driven by other nets", id.index()));
        }
    }
    let ports = golden.output_ports().iter().zip(restored.output_ports());
    for (i, (g, r)) in ports.enumerate() {
        if g.net != r.net {
            return Some(format!("output port {i} is driven by another net"));
        }
    }
    None
}

/// Reads the campaign's quality figures and checks every protected
/// design it stored: golden connectivity of the restored netlist, legal
/// correction cells and, with `equiv`, SAT equivalence.
pub fn check_campaign(campaign: &Campaign, store_root: &Path, equiv: bool) -> Quality {
    let mut q = Quality::default();
    let store = ArtifactStore::open(store_root, None);
    for outcome in &campaign.outcomes {
        if let JobMetrics::Flow {
            ccr_protected_pct, ..
        } = outcome.metrics
        {
            let best = q.ccr_protected_pct.unwrap_or(0.0).max(ccr_protected_pct);
            q.ccr_protected_pct = Some(best);
        }
    }
    let keys: BTreeSet<String> = campaign
        .outcomes
        .iter()
        .map(|o| o.job.bundle_key().id())
        .collect();
    for id in keys {
        let golden = store.load_stage::<Netlist>(Stage::Netlist, &id);
        let protected = store.load_stage::<ProtectedDesign>(Stage::Protect, &id);
        let (Some(golden), Some(protected)) = (golden, protected) else {
            q.expect(false, || {
                format!("{id}: netlist or protected design missing from the store")
            });
            continue;
        };
        q.ppa_overhead_pct = q.ppa_overhead_pct.max(protected.ppa_overhead.worst_pct());
        let mismatch = connectivity_mismatch(&golden, &protected.restored);
        q.expect(mismatch.is_none(), || {
            format!(
                "{id}: restored netlist differs from golden: {}",
                mismatch.unwrap_or_default()
            )
        });
        q.expect(correction_cells_legal(&protected.correction_cells), || {
            format!("{id}: correction cells overlap")
        });
        if equiv {
            let verdict = check(&golden, &protected.restored, EQUIV_CONFLICTS);
            q.expect(matches!(verdict, Ok(Equivalence::Equivalent)), || {
                format!("{id}: equivalence check returned {verdict:?}")
            });
        }
    }
    q
}
