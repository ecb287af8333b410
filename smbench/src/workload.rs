//! The benchmark's workloads: each turns the workload seed into the
//! [`SweepSpec`] the program sees, and nothing else.

use sm_engine::{AttackKind, SweepSpec};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Four mid-size ISCAS-85 designs under the flow attack on a cold
    /// store: the attack layer on the SSP min-cost-flow engine.
    IscasFlow,
    /// All five superblue profiles under the crouting attack on a cold
    /// store: the defense side (generate, place, route, protect, lift)
    /// plus store writes.
    SuperblueProtect,
    /// superblue18 with a pinned layout, four attack seeds, submitted to
    /// an in-process service whose store already holds the layout: the
    /// store read path and the cost-scaling min-cost-flow engine.
    SuperblueSeeds,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::IscasFlow,
        Workload::SuperblueProtect,
        Workload::SuperblueSeeds,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IscasFlow => "iscas-flow",
            Workload::SuperblueProtect => "superblue-protect",
            Workload::SuperblueSeeds => "superblue-seeds",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!(
                    "unknown workload `{name}` (expected {} or all)",
                    names.join(", ")
                )
            })
    }

    /// `true` when the timed campaign is submitted to a service instead
    /// of running as a solo sweep.
    pub fn served(self) -> bool {
        self == Workload::SuperblueSeeds
    }

    /// `true` when the workload's designs are ISCAS-85-class, where SAT
    /// equivalence of the restored netlist is affordable.
    pub fn iscas(self) -> bool {
        self == Workload::IscasFlow
    }

    /// The timed campaign's spec for workload seed `seed`.
    ///
    /// Designs are listed slowest first, so the two workers start on
    /// the longest jobs and the campaign's wall time does not hinge on
    /// which worker happens to pick up the slowest job last.
    ///
    /// The attack workloads pin the layout seed to 1 (the reference
    /// layouts) and take their user seeds from the workload seed, which
    /// changes the attack's evaluation stream but not the size of its
    /// min-cost-flow problems: seed-to-seed layout variation moved
    /// `iscas-flow`'s campaign time by more than the benchmark's bound
    /// (see `CATALOGUE.md`). `superblue-protect` measures the defense
    /// side, so there the seed picks the layouts.
    pub fn spec(self, seed: u64) -> SweepSpec {
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect();
        match self {
            Workload::IscasFlow => SweepSpec {
                benchmarks: names(&["c3540", "c2670", "c1908", "c1355"]),
                seeds: vec![seed],
                split_layers: vec![4],
                attacks: vec![AttackKind::NetworkFlow],
                scale: 100,
                master_seed: 1,
                layout_seed: Some(1),
            },
            Workload::SuperblueProtect => SweepSpec {
                benchmarks: names(&[
                    "superblue12",
                    "superblue1",
                    "superblue5",
                    "superblue10",
                    "superblue18",
                ]),
                seeds: vec![seed],
                split_layers: vec![4],
                attacks: vec![AttackKind::Crouting],
                scale: 100,
                master_seed: 1,
                layout_seed: None,
            },
            Workload::SuperblueSeeds => SweepSpec {
                benchmarks: names(&["superblue18"]),
                seeds: (4 * seed.saturating_sub(1) + 1..=4 * seed.max(1)).collect(),
                split_layers: vec![4],
                attacks: vec![AttackKind::NetworkFlow],
                scale: 100,
                master_seed: 1,
                layout_seed: Some(1),
            },
        }
    }

    /// The untimed warm-up campaign of every set-up, which lets the
    /// process's allocator, page cache and worker pool settle before the
    /// timed campaign.
    ///
    /// For `superblue-seeds` it is part of the workload: a crouting job
    /// on the pinned layout, run into the timed campaign's own store, so
    /// the store holds the bundle and its layer-4 splits but no outcome
    /// the timed campaign could reuse. The other workloads warm up on
    /// two small designs of their own class in a store of its own, so
    /// their timed campaigns still start cold.
    pub fn warmup(self, seed: u64) -> SweepSpec {
        let base = self.spec(seed);
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect();
        match self {
            Workload::IscasFlow => SweepSpec {
                benchmarks: names(&["c880", "c432"]),
                ..base
            },
            Workload::SuperblueProtect => SweepSpec {
                benchmarks: names(&["superblue10", "superblue18"]),
                scale: 400,
                // One layout for every seed keeps the set-up's work, and
                // so `setup_s`, independent of the seed.
                layout_seed: Some(1),
                ..base
            },
            Workload::SuperblueSeeds => SweepSpec {
                seeds: vec![0],
                attacks: vec![AttackKind::Crouting],
                ..base
            },
        }
    }

    /// `true` when the warm-up runs into the timed campaign's store.
    pub fn warmup_shares_store(self) -> bool {
        self == Workload::SuperblueSeeds
    }
}
