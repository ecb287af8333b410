//! Minimum-cost maximum-flow, the combinatorial core of the network-flow
//! attack.
//!
//! The attack builds `source → drivers → sinks → target` with driver
//! capacities from the load-capacitance hint and per-edge costs from the
//! proximity/direction hints, then reads the optimal assignment off the
//! flow. A global optimum matters: each sink may have many closer false
//! drivers, but the *total*-cost-minimizing matching recovers the placed
//! netlist because the placer minimized the same objective.
//!
//! # Engine
//!
//! [`MinCostFlow::run`] solves every instance, at every scale, in two
//! stages:
//!
//! 1. **Value** — a capped Dinic max-flow fixes the flow value
//!    `F = min(max_flow, maxflow(s, t))` in `O(E·√V)` on the attack's
//!    unit-capacity-dominated bipartite instances.
//! 2. **Cost** — a cost-scaling (ε-scaling push-relabel) refinement
//!    drives that flow to minimum cost: costs are scaled by `n + 1` so
//!    that a 1-optimal flow (every residual edge's reduced cost
//!    ≥ −ε with ε = 1) is *exactly* optimal, and ε is halved each phase
//!    from the largest scaled cost down to 1 — `O(log(nC))` phases of
//!    near-linear push/relabel work, replacing the successive-shortest-
//!    path engine that was quadratic in cut pins (245 s on superblue18
//!    at bench scale; the scaling engine solves the same instance in
//!    seconds).
//!
//! Every data structure is index-ordered (flat vectors, FIFO discharge,
//! lowest-edge-id-first arc scans — no hash-map iteration anywhere), so
//! the solution is a pure function of the instance: the same graph
//! always yields the same flow, which is what lets campaign reports stay
//! byte-identical across runs, thread counts and machines. Min-cost
//! optima are not unique — real attack instances carry exact cost ties —
//! so *which* optimum is returned is this engine's traversal order; any
//! change to that order is a versioned report change.
//!
//! # Oracle and certificate
//!
//! Test builds carry the previous successive-shortest-path engine as
//! `reference::SspFlow`, the differential-test oracle the scaling engine
//! is measured against. [`certificate`] checks any solved instance
//! against the textbook optimality conditions — capacity feasibility,
//! flow conservation, maximality of the value, and non-negative reduced
//! costs under potentials recovered from the residual graph — and runs
//! automatically after every solve in debug builds (hence under
//! `cargo test`), so a regression cannot produce a plausible-but-
//! suboptimal assignment silently.

use std::collections::VecDeque;

/// One directed edge with residual bookkeeping. Edges are stored in
/// pairs: edge `id ^ 1` is the reverse of edge `id`.
#[derive(Debug, Clone)]
struct Edge {
    to: usize,
    cap: i64,
    cost: i64,
    flow: i64,
}

/// A min-cost max-flow problem instance, solved by Dinic + cost-scaling
/// push-relabel (see the module docs).
#[derive(Debug, Default)]
pub struct MinCostFlow {
    edges: Vec<Edge>,
    adj: Vec<Vec<u32>>,
}

impl MinCostFlow {
    /// Creates an instance with `nodes` vertices.
    pub fn new(nodes: usize) -> Self {
        MinCostFlow {
            edges: Vec::new(),
            adj: vec![Vec::new(); nodes],
        }
    }

    /// Adds a directed edge; returns its handle (use with
    /// [`MinCostFlow::flow_on`]).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range or the cost is negative
    /// (the SSP oracle's contract, kept so the engine and its test oracle
    /// accept exactly the same instances).
    pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
        assert!(from < self.adj.len() && to < self.adj.len(), "node range");
        assert!(cost >= 0, "negative costs unsupported");
        let id = self.edges.len();
        self.edges.push(Edge {
            to,
            cap,
            cost,
            flow: 0,
        });
        self.edges.push(Edge {
            to: from,
            cap: 0,
            cost: -cost,
            flow: 0,
        });
        self.adj[from].push(id as u32);
        self.adj[to].push(id as u32 + 1);
        id
    }

    /// Flow currently on edge `handle`.
    pub fn flow_on(&self, handle: usize) -> i64 {
        self.edges[handle].flow
    }

    /// Number of nodes of the instance.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// The forward edges as certificate views (tail, head, capacity,
    /// cost, flow).
    pub fn edge_views(&self) -> Vec<certificate::EdgeView> {
        (0..self.edges.len())
            .step_by(2)
            .map(|eid| {
                let e = &self.edges[eid];
                certificate::EdgeView {
                    from: self.edges[eid ^ 1].to,
                    to: e.to,
                    cap: e.cap,
                    cost: e.cost,
                    flow: e.flow,
                }
            })
            .collect()
    }

    /// Sends up to `max_flow` units from `s` to `t`; returns
    /// `(flow, cost)`. In debug builds the solution is re-verified
    /// against the optimality certificate before it is returned.
    pub fn run(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64) {
        self.run_interruptible(s, t, max_flow, &mut || false)
            .expect("uncancellable run")
    }

    /// [`MinCostFlow::run`] with a cooperative stop check, consulted at
    /// phase boundaries — after the Dinic stage and between ε-scaling
    /// phases — and never inside one, so a solve that *completes* is
    /// bit-identical whether or not a token was attached. Returns `None`
    /// if `should_stop` reported `true` at a boundary; the instance is
    /// then left holding a partial flow and must not be read further.
    pub fn run_interruptible(
        &mut self,
        s: usize,
        t: usize,
        max_flow: i64,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> Option<(i64, i64)> {
        assert!(s < self.adj.len() && t < self.adj.len(), "node range");
        let flow = self.dinic(s, t, max_flow);
        if should_stop() {
            return None;
        }
        self.min_cost_refine(should_stop)?;
        let total_cost: i64 = (0..self.edges.len())
            .step_by(2)
            .map(|eid| self.edges[eid].flow * self.edges[eid].cost)
            .sum();
        #[cfg(debug_assertions)]
        certificate::verify(self, s, t, max_flow).expect("optimality certificate");
        Some((flow, total_cost))
    }

    // ----- stage 1: flow value (Dinic) -----------------------------------

    /// Augments the current flow to `min(limit, maxflow)` additional
    /// units from `s` to `t` via Dinic's blocking flows; returns the
    /// units sent.
    fn dinic(&mut self, s: usize, t: usize, limit: i64) -> i64 {
        let n = self.adj.len();
        let mut level: Vec<u32> = vec![u32::MAX; n];
        let mut arc: Vec<u32> = vec![0; n];
        let mut queue: VecDeque<usize> = VecDeque::new();
        let mut sent = 0i64;
        while sent < limit {
            // BFS level graph over residual edges.
            level.fill(u32::MAX);
            level[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                for &eid in &self.adj[u] {
                    let e = &self.edges[eid as usize];
                    if e.cap - e.flow > 0 && level[e.to] == u32::MAX {
                        level[e.to] = level[u] + 1;
                        queue.push_back(e.to);
                    }
                }
            }
            if level[t] == u32::MAX {
                break;
            }
            // Blocking flow along the level graph, lowest edge id first.
            arc.fill(0);
            loop {
                let pushed = self.blocking_dfs(s, t, limit - sent, &mut level, &mut arc);
                if pushed == 0 {
                    break;
                }
                sent += pushed;
                if sent == limit {
                    break;
                }
            }
        }
        sent
    }

    /// One augmenting path of the blocking-flow phase (current-arc DFS).
    fn blocking_dfs(
        &mut self,
        u: usize,
        t: usize,
        f: i64,
        level: &mut [u32],
        arc: &mut [u32],
    ) -> i64 {
        if u == t {
            return f;
        }
        while (arc[u] as usize) < self.adj[u].len() {
            let eid = self.adj[u][arc[u] as usize] as usize;
            let (to, res) = {
                let e = &self.edges[eid];
                (e.to, e.cap - e.flow)
            };
            if res > 0 && level[to] == level[u] + 1 {
                let d = self.blocking_dfs(to, t, f.min(res), level, arc);
                if d > 0 {
                    self.edges[eid].flow += d;
                    self.edges[eid ^ 1].flow -= d;
                    return d;
                }
            }
            arc[u] += 1;
        }
        level[u] = u32::MAX; // dead end for this phase
        0
    }

    // ----- stage 2: flow cost (ε-scaling push-relabel) --------------------

    /// Refines the current (max) flow to minimum cost. Costs are scaled
    /// by `n + 1` in `i128` (overflow-free for any `i64` input), so
    /// 1-optimality at the final phase implies exact optimality: a
    /// residual cycle's reduced costs telescope to its plain scaled cost,
    /// a multiple of `n + 1`, which `≥ −n` forces to be non-negative.
    fn min_cost_refine(&mut self, should_stop: &mut dyn FnMut() -> bool) -> Option<()> {
        let n = self.adj.len();
        let alpha = n as i128 + 1;
        let scaled: Vec<i128> = self.edges.iter().map(|e| e.cost as i128 * alpha).collect();
        let max_cost = (0..self.edges.len())
            .step_by(2)
            .filter(|&eid| self.edges[eid].cap > 0)
            .map(|eid| scaled[eid].abs())
            .max()
            .unwrap_or(0);
        if max_cost <= 1 {
            return Some(()); // all costs zero: any max flow is optimal
        }
        let mut pot: Vec<i128> = vec![0; n];
        let mut excess: Vec<i64> = vec![0; n];
        let mut cur: Vec<u32> = vec![0; n];
        let mut in_queue: Vec<bool> = vec![false; n];
        let mut active: VecDeque<u32> = VecDeque::new();
        let mut eps = max_cost;
        while eps > 1 {
            eps = (eps / 2).max(1);
            self.refine(
                eps,
                &scaled,
                &mut pot,
                &mut excess,
                &mut cur,
                &mut in_queue,
                &mut active,
            );
            if should_stop() {
                return None;
            }
        }
        Some(())
    }

    /// One scaling phase: restores ε-optimality from (at most)
    /// 2ε-optimality by saturating every negative-reduced-cost residual
    /// edge and then discharging the resulting excesses FIFO with
    /// current-arc scans and ε-tight relabels.
    #[allow(clippy::too_many_arguments)]
    fn refine(
        &mut self,
        eps: i128,
        scaled: &[i128],
        pot: &mut [i128],
        excess: &mut [i64],
        cur: &mut [u32],
        in_queue: &mut [bool],
        active: &mut VecDeque<u32>,
    ) {
        debug_assert!(excess.iter().all(|&e| e == 0), "refine starts balanced");
        // Convert to a 0-optimal pseudoflow: saturate admissible edges.
        #[allow(clippy::needless_range_loop)] // eid indexes both arrays and `edges` is mutated
        for eid in 0..self.edges.len() {
            let res = self.edges[eid].cap - self.edges[eid].flow;
            if res > 0 {
                let from = self.edges[eid ^ 1].to;
                let to = self.edges[eid].to;
                if scaled[eid] + pot[from] - pot[to] < 0 {
                    self.edges[eid].flow += res;
                    self.edges[eid ^ 1].flow -= res;
                    excess[from] -= res;
                    excess[to] += res;
                }
            }
        }
        active.clear();
        for (v, &e) in excess.iter().enumerate() {
            in_queue[v] = e > 0;
            if e > 0 {
                active.push_back(v as u32);
            }
        }
        cur.iter_mut().for_each(|c| *c = 0);
        // FIFO discharge until the pseudoflow is a flow again.
        while let Some(u) = active.pop_front() {
            let u = u as usize;
            in_queue[u] = false;
            while excess[u] > 0 {
                if (cur[u] as usize) == self.adj[u].len() {
                    // Relabel: the ε-tightest potential that re-admits
                    // at least one residual arc.
                    let mut best = i128::MIN;
                    for &eid in &self.adj[u] {
                        let e = &self.edges[eid as usize];
                        if e.cap - e.flow > 0 {
                            best = best.max(pot[e.to] - scaled[eid as usize]);
                        }
                    }
                    debug_assert!(best > i128::MIN, "active node without residual arcs");
                    pot[u] = best - eps;
                    cur[u] = 0;
                    continue;
                }
                let eid = self.adj[u][cur[u] as usize] as usize;
                let (to, res) = {
                    let e = &self.edges[eid];
                    (e.to, e.cap - e.flow)
                };
                if res > 0 && scaled[eid] + pot[u] - pot[to] < 0 {
                    let amt = res.min(excess[u]);
                    self.edges[eid].flow += amt;
                    self.edges[eid ^ 1].flow -= amt;
                    excess[u] -= amt;
                    excess[to] += amt;
                    if excess[to] > 0 && !in_queue[to] {
                        in_queue[to] = true;
                        active.push_back(to as u32);
                    }
                } else {
                    cur[u] += 1;
                }
            }
        }
    }
}

pub mod certificate {
    //! Optimality certificates for solved min-cost-flow instances.
    //!
    //! [`verify`] re-derives, from nothing but the edge list and the flow
    //! on it, the three textbook conditions that together prove the flow
    //! is a minimum-cost maximum flow:
    //!
    //! 1. **feasibility** — every edge within capacity, reverse edges
    //!    mirroring their forward twin;
    //! 2. **conservation & maximality** — flow balanced at every interior
    //!    node, and no residual `s → t` path left when the value is below
    //!    the requested cap;
    //! 3. **optimality** — node potentials recovered from the residual
    //!    graph (queue-based Bellman–Ford from a virtual root) under
    //!    which every residual edge has non-negative reduced cost; a
    //!    residual negative cycle (the signature of a suboptimal flow)
    //!    makes the recovery itself fail.
    //!
    //! The checker is deliberately engine-agnostic — it consumes
    //! [`EdgeView`]s, so it verifies the scaling engine, the test-only
    //! SSP oracle, and deliberately corrupted flows (which it must
    //! reject) through one code path. Debug builds
    //! run it after every [`MinCostFlow::run`](super::MinCostFlow::run).

    use super::MinCostFlow;

    /// One forward edge of a solved instance.
    #[derive(Debug, Clone, Copy)]
    pub struct EdgeView {
        /// Tail node.
        pub from: usize,
        /// Head node.
        pub to: usize,
        /// Capacity.
        pub cap: i64,
        /// Cost per unit of flow.
        pub cost: i64,
        /// Flow assigned by the solver.
        pub flow: i64,
    }

    /// Why a claimed solution is not a min-cost max-flow.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Violation {
        /// An edge's flow is negative or exceeds its capacity.
        Capacity {
            /// Forward-edge index into the view list.
            edge: usize,
            /// Offending flow value.
            flow: i64,
            /// The edge's capacity.
            cap: i64,
        },
        /// A non-terminal node creates or destroys flow.
        Conservation {
            /// The unbalanced node.
            node: usize,
            /// Net outflow minus inflow.
            imbalance: i64,
        },
        /// The flow value is below the cap yet an augmenting path remains.
        NotMaximal {
            /// The achieved value.
            flow: i64,
        },
        /// The residual graph contains a negative-cost cycle: a cheaper
        /// flow of the same value exists.
        NegativeCycle,
        /// A residual edge has negative reduced cost under the recovered
        /// potentials (unreachable when cycle detection passes; kept as
        /// an explicit final re-check).
        NegativeReducedCost {
            /// Forward-edge index into the view list.
            edge: usize,
            /// The offending reduced cost.
            reduced: i64,
        },
    }

    impl std::fmt::Display for Violation {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Violation::Capacity { edge, flow, cap } => {
                    write!(f, "edge {edge}: flow {flow} outside [0, {cap}]")
                }
                Violation::Conservation { node, imbalance } => {
                    write!(f, "node {node}: flow imbalance {imbalance}")
                }
                Violation::NotMaximal { flow } => {
                    write!(f, "flow {flow} below cap but an augmenting path remains")
                }
                Violation::NegativeCycle => {
                    write!(f, "residual graph has a negative-cost cycle")
                }
                Violation::NegativeReducedCost { edge, reduced } => {
                    write!(f, "edge {edge}: residual reduced cost {reduced} < 0")
                }
            }
        }
    }

    /// The witnesses of optimality: value, cost and dual potentials.
    #[derive(Debug, Clone)]
    pub struct Certificate {
        /// Units of flow from `s` to `t`.
        pub flow_value: i64,
        /// Total cost of the flow.
        pub total_cost: i64,
        /// Node potentials under which every residual edge has
        /// non-negative reduced cost (the LP dual solution).
        pub potentials: Vec<i64>,
    }

    /// Verifies a solved [`MinCostFlow`] instance.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn verify(
        f: &MinCostFlow,
        s: usize,
        t: usize,
        max_flow: i64,
    ) -> Result<Certificate, Violation> {
        verify_edges(f.num_nodes(), &f.edge_views(), s, t, max_flow)
    }

    /// Verifies a claimed solution given as an explicit edge list (see
    /// the module docs for the conditions checked).
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] found.
    pub fn verify_edges(
        nodes: usize,
        edges: &[EdgeView],
        s: usize,
        t: usize,
        max_flow: i64,
    ) -> Result<Certificate, Violation> {
        // 1. Capacity feasibility.
        for (i, e) in edges.iter().enumerate() {
            if e.flow < 0 || e.flow > e.cap {
                return Err(Violation::Capacity {
                    edge: i,
                    flow: e.flow,
                    cap: e.cap,
                });
            }
        }
        // 2. Conservation everywhere but s/t; read the value off s.
        let mut imbalance = vec![0i64; nodes];
        for e in edges {
            imbalance[e.from] += e.flow;
            imbalance[e.to] -= e.flow;
        }
        for (v, &im) in imbalance.iter().enumerate() {
            if v != s && v != t && im != 0 {
                return Err(Violation::Conservation {
                    node: v,
                    imbalance: im,
                });
            }
        }
        let flow_value = imbalance[s];
        if flow_value < 0 || flow_value > max_flow || flow_value != -imbalance[t] {
            return Err(Violation::Conservation {
                node: s,
                imbalance: flow_value,
            });
        }
        // Residual adjacency: forward views with headroom, plus reverse
        // views for every unit already flowing.
        let mut radj: Vec<Vec<(usize, i64, usize)>> = vec![Vec::new(); nodes]; // (to, cost, edge)
        for (i, e) in edges.iter().enumerate() {
            if e.flow < e.cap {
                radj[e.from].push((e.to, e.cost, i));
            }
            if e.flow > 0 {
                radj[e.to].push((e.from, -e.cost, i));
            }
        }
        // 3a. Maximality: below the cap, t must be residual-unreachable.
        if flow_value < max_flow {
            let mut seen = vec![false; nodes];
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(u) = stack.pop() {
                for &(v, _, _) in &radj[u] {
                    if !seen[v] {
                        seen[v] = true;
                        stack.push(v);
                    }
                }
            }
            if seen[t] {
                return Err(Violation::NotMaximal { flow: flow_value });
            }
        }
        // 3b. Optimality: recover potentials by queue-based Bellman–Ford
        // from a virtual root wired to every node at cost 0. More than
        // `nodes` relaxation rounds on one node means a negative residual
        // cycle — i.e. the flow is not cost-optimal.
        let mut pot = vec![0i64; nodes];
        let mut in_queue = vec![true; nodes];
        let mut rounds = vec![0u32; nodes];
        let mut queue: std::collections::VecDeque<usize> = (0..nodes).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            rounds[u] += 1;
            if rounds[u] > nodes as u32 + 1 {
                return Err(Violation::NegativeCycle);
            }
            for &(v, cost, _) in &radj[u] {
                if pot[u] + cost < pot[v] {
                    pot[v] = pot[u] + cost;
                    if !in_queue[v] {
                        in_queue[v] = true;
                        queue.push_back(v);
                    }
                }
            }
        }
        // Final explicit scan: every residual edge's reduced cost ≥ 0.
        for (i, e) in edges.iter().enumerate() {
            if e.flow < e.cap && e.cost + pot[e.from] - pot[e.to] < 0 {
                return Err(Violation::NegativeReducedCost {
                    edge: i,
                    reduced: e.cost + pot[e.from] - pot[e.to],
                });
            }
            if e.flow > 0 && -e.cost + pot[e.to] - pot[e.from] < 0 {
                return Err(Violation::NegativeReducedCost {
                    edge: i,
                    reduced: -e.cost + pot[e.to] - pot[e.from],
                });
            }
        }
        let total_cost = edges.iter().map(|e| e.flow * e.cost).sum();
        Ok(Certificate {
            flow_value,
            total_cost,
            potentials: pot,
        })
    }
}

#[cfg(test)]
pub mod reference {
    //! The successive-shortest-path engine the scaling rewrite replaced,
    //! kept in test builds as the differential-test oracle: slow
    //! (quadratic in the flow value) but classical and easy to audit.
    //! It exists so every change to [`MinCostFlow`](super::MinCostFlow)
    //! is pinned against an independent implementation.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone)]
    struct Edge {
        to: usize,
        cap: i64,
        cost: i64,
        flow: i64,
    }

    /// Successive-shortest-path min-cost max-flow (Dijkstra on reduced
    /// costs with Johnson potentials). Same API surface as the
    /// production engine.
    #[derive(Debug, Default)]
    pub struct SspFlow {
        edges: Vec<Edge>,
        adj: Vec<Vec<usize>>,
    }

    impl SspFlow {
        /// Creates an instance with `nodes` vertices.
        pub fn new(nodes: usize) -> Self {
            SspFlow {
                edges: Vec::new(),
                adj: vec![Vec::new(); nodes],
            }
        }

        /// Adds a directed edge; returns its handle.
        ///
        /// # Panics
        ///
        /// Panics if an endpoint is out of range or the cost is negative
        /// (Dijkstra-based SSP requires non-negative costs).
        pub fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) -> usize {
            assert!(from < self.adj.len() && to < self.adj.len(), "node range");
            assert!(cost >= 0, "negative costs unsupported");
            let id = self.edges.len();
            self.edges.push(Edge {
                to,
                cap,
                cost,
                flow: 0,
            });
            self.edges.push(Edge {
                to: from,
                cap: 0,
                cost: -cost,
                flow: 0,
            });
            self.adj[from].push(id);
            self.adj[to].push(id + 1);
            id
        }

        /// Flow currently on edge `handle`.
        pub fn flow_on(&self, handle: usize) -> i64 {
            self.edges[handle].flow
        }

        /// Number of nodes of the instance.
        pub fn num_nodes(&self) -> usize {
            self.adj.len()
        }

        /// The forward edges as certificate views.
        pub fn edge_views(&self) -> Vec<super::certificate::EdgeView> {
            (0..self.edges.len())
                .step_by(2)
                .map(|eid| {
                    let e = &self.edges[eid];
                    super::certificate::EdgeView {
                        from: self.edges[eid ^ 1].to,
                        to: e.to,
                        cap: e.cap,
                        cost: e.cost,
                        flow: e.flow,
                    }
                })
                .collect()
        }

        /// Sends up to `max_flow` units from `s` to `t`; returns
        /// `(flow, cost)`.
        pub fn run(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64) {
            let n = self.adj.len();
            let mut potential = vec![0i64; n];
            let mut total_flow = 0i64;
            let mut total_cost = 0i64;
            // Dijkstra state is reused across augmenting rounds: `reached`
            // records which nodes this round touched, so the reset and the
            // potential update walk only the reachable frontier instead of
            // scanning all |V| nodes per round (unreached nodes keep
            // `dist == MAX` and, as before, an unchanged potential).
            let mut dist = vec![i64::MAX; n];
            let mut prev_edge = vec![usize::MAX; n];
            let mut reached: Vec<usize> = Vec::with_capacity(n);
            let mut heap = BinaryHeap::new();
            while total_flow < max_flow {
                // Dijkstra on reduced costs.
                for &v in &reached {
                    dist[v] = i64::MAX;
                    prev_edge[v] = usize::MAX;
                }
                reached.clear();
                heap.clear();
                dist[s] = 0;
                reached.push(s);
                heap.push(Reverse((0i64, s)));
                while let Some(Reverse((d, u))) = heap.pop() {
                    if d > dist[u] {
                        continue;
                    }
                    for &eid in &self.adj[u] {
                        let e = &self.edges[eid];
                        if e.cap - e.flow <= 0 {
                            continue;
                        }
                        let nd = d + e.cost + potential[u] - potential[e.to];
                        if nd < dist[e.to] {
                            if dist[e.to] == i64::MAX {
                                reached.push(e.to);
                            }
                            dist[e.to] = nd;
                            prev_edge[e.to] = eid;
                            heap.push(Reverse((nd, e.to)));
                        }
                    }
                }
                if dist[t] == i64::MAX {
                    break;
                }
                for &v in &reached {
                    potential[v] += dist[v];
                }
                // Bottleneck along the path.
                let mut push = max_flow - total_flow;
                let mut v = t;
                while v != s {
                    let e = &self.edges[prev_edge[v]];
                    push = push.min(e.cap - e.flow);
                    v = self.edges[prev_edge[v] ^ 1].to;
                }
                let mut v = t;
                while v != s {
                    let eid = prev_edge[v];
                    self.edges[eid].flow += push;
                    self.edges[eid ^ 1].flow -= push;
                    total_cost += push * self.edges[eid].cost;
                    v = self.edges[eid ^ 1].to;
                }
                total_flow += push;
            }
            (total_flow, total_cost)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::certificate::{verify, verify_edges, Violation};
    use super::reference::SspFlow;
    use super::*;

    #[test]
    fn simple_assignment_prefers_cheap_edges() {
        // 2 drivers, 2 sinks; optimal total picks the diagonal.
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        let e11 = f.add_edge(1, 3, 1, 1);
        let e12 = f.add_edge(1, 4, 1, 10);
        let e21 = f.add_edge(2, 3, 1, 10);
        let e22 = f.add_edge(2, 4, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        let (flow, cost) = f.run(s, t, 2);
        assert_eq!(flow, 2);
        assert_eq!(cost, 2);
        assert_eq!(f.flow_on(e11), 1);
        assert_eq!(f.flow_on(e22), 1);
        assert_eq!(f.flow_on(e12), 0);
        assert_eq!(f.flow_on(e21), 0);
    }

    #[test]
    fn global_optimum_beats_greedy() {
        // Greedy would grab the (1→3) cost-0 edge and force 2→4 at 100;
        // the optimum pays 1+1.
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        f.add_edge(1, 3, 1, 0);
        f.add_edge(1, 4, 1, 1);
        f.add_edge(2, 3, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        let (flow, cost) = f.run(s, t, 2);
        assert_eq!(flow, 2);
        assert_eq!(cost, 2); // 1→4 (1) + 2→3 (1), not 1→3 (0) + stuck
    }

    #[test]
    fn capacity_limits_flow() {
        let mut f = MinCostFlow::new(4);
        f.add_edge(0, 1, 2, 1);
        f.add_edge(1, 2, 1, 1); // bottleneck
        f.add_edge(2, 3, 2, 1);
        let (flow, cost) = f.run(0, 3, 10);
        assert_eq!(flow, 1);
        assert_eq!(cost, 3);
    }

    #[test]
    fn disconnected_target_yields_zero() {
        let mut f = MinCostFlow::new(3);
        f.add_edge(0, 1, 1, 1);
        let (flow, cost) = f.run(0, 2, 5);
        assert_eq!(flow, 0);
        assert_eq!(cost, 0);
    }

    #[test]
    fn interruption_at_a_phase_boundary_returns_none() {
        // The stop check must be honored, and a never-firing check must
        // change nothing.
        let build = || {
            let mut f = MinCostFlow::new(4);
            f.add_edge(0, 1, 2, 3);
            f.add_edge(1, 2, 2, 5);
            f.add_edge(2, 3, 2, 1);
            f
        };
        let mut calls = 0usize;
        let out = build().run_interruptible(0, 3, 2, &mut || {
            calls += 1;
            true
        });
        assert!(out.is_none());
        assert!(calls >= 1);
        let solved = build().run_interruptible(0, 3, 2, &mut || false);
        assert_eq!(solved, Some((2, 2 * 9)));
    }

    /// The first 64 generator seeds, checked edge-for-edge: on these
    /// tie-free instances the engine must pick exactly the oracle's
    /// matching, not just an equally cheap one.
    #[test]
    fn small_bipartite_seeds_match_the_oracle_edge_for_edge() {
        for seed in 0..64u64 {
            let (mut pair, s, t, demand) = bipartite_instance(seed);
            let (_, _, same) = pair.run_both(s, t, demand);
            assert!(same, "seed {seed}: engines disagreed on the matching");
        }
    }

    // ----- the differential harness ---------------------------------------

    /// A generated instance: both engines built from one edge list.
    struct Pair {
        fast: MinCostFlow,
        oracle: SspFlow,
        handles: Vec<usize>,
    }

    impl Pair {
        fn new(nodes: usize) -> Pair {
            Pair {
                fast: MinCostFlow::new(nodes),
                oracle: SspFlow::new(nodes),
                handles: Vec::new(),
            }
        }

        fn add_edge(&mut self, from: usize, to: usize, cap: i64, cost: i64) {
            let h = self.fast.add_edge(from, to, cap, cost);
            let ho = self.oracle.add_edge(from, to, cap, cost);
            assert_eq!(h, ho, "engines hand out identical handles");
            self.handles.push(h);
        }

        /// Runs the engine against the oracle and checks value/cost
        /// equality plus both certificates. Returns
        /// `(flow, cost, matchings_equal)`.
        fn run_both(&mut self, s: usize, t: usize, max_flow: i64) -> (i64, i64, bool) {
            let fast = self.fast.run(s, t, max_flow);
            let oracle = self.oracle.run(s, t, max_flow);
            assert_eq!(fast.0, oracle.0, "flow value differs from the oracle");
            assert_eq!(fast.1, oracle.1, "total cost differs from the oracle");
            verify(&self.fast, s, t, max_flow).expect("scaling certificate");
            verify_edges(
                self.oracle.num_nodes(),
                &self.oracle.edge_views(),
                s,
                t,
                max_flow,
            )
            .expect("oracle certificate");
            let same = self
                .handles
                .iter()
                .all(|&h| self.fast.flow_on(h) == self.oracle.flow_on(h));
            (fast.0, fast.1, same)
        }
    }

    /// Deterministic bipartite driver/sink instance from a seed: the
    /// exact shape the proximity attack builds (source → drivers with
    /// capacities → sinks with unit demand → target), with costs drawn
    /// wide enough that total-cost ties (the only case where two optimal
    /// matchings exist) are not generated.
    fn bipartite_instance(seed: u64) -> (Pair, usize, usize, i64) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            // xorshift64*: deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        let drivers = 1 + (next() % 9) as usize;
        let sinks = 1 + (next() % 9) as usize;
        let nodes = 2 + drivers + sinks;
        let (s, t) = (0usize, nodes - 1);
        let mut pair = Pair::new(nodes);
        for d in 0..drivers {
            let cap = 1 + (next() % 4) as i64;
            pair.add_edge(s, 1 + d, cap, 0);
        }
        for k in 0..sinks {
            let sink = 1 + drivers + k;
            for d in 0..drivers {
                // ~70% edge density; occasional sinks end up infeasible,
                // which both engines must agree on too.
                if next() % 10 < 7 {
                    let cost = (next() % 1_000_000) as i64;
                    pair.add_edge(1 + d, sink, 1, cost);
                }
            }
            pair.add_edge(sink, t, 1, 0);
        }
        (pair, s, t, sinks as i64)
    }

    /// General layered instance (not the attack shape) from a seed:
    /// longer paths, larger capacities, a flow cap below the max flow.
    fn layered_instance(seed: u64) -> (Pair, usize, usize, i64) {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545f4914f6cdd1d)
        };
        let layers = 2 + (next() % 4) as usize;
        let width = 1 + (next() % 4) as usize;
        let nodes = 2 + layers * width;
        let (s, t) = (0usize, nodes - 1);
        let node = |l: usize, w: usize| 1 + l * width + w;
        let mut pair = Pair::new(nodes);
        for w in 0..width {
            pair.add_edge(
                s,
                node(0, w),
                1 + (next() % 5) as i64,
                (next() % 997) as i64,
            );
        }
        for l in 0..layers - 1 {
            for a in 0..width {
                for b in 0..width {
                    if next() % 3 < 2 {
                        pair.add_edge(
                            node(l, a),
                            node(l + 1, b),
                            1 + (next() % 3) as i64,
                            (next() % 997) as i64,
                        );
                    }
                }
            }
        }
        for w in 0..width {
            pair.add_edge(
                node(layers - 1, w),
                t,
                1 + (next() % 5) as i64,
                (next() % 997) as i64,
            );
        }
        let cap = 1 + (next() % 8) as i64;
        (pair, s, t, cap)
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// The tentpole guarantee: over ≥ 1000 shim-seeded bipartite
            /// instances (the attack's exact network shape) the scaling
            /// engine matches the SSP oracle in flow value, total cost
            /// **and** the recovered matching, and both engines pass the
            /// optimality certificate. Costs are drawn from a 10^6 range
            /// so the generated optima are tie-free; the shim derives its
            /// case seeds deterministically from the test name, making
            /// this a stable fact rather than a probabilistic one —
            /// adversarial tie shapes are pinned separately below.
            #[test]
            fn differential_bipartite_instances_match_the_oracle(seed in any::<u64>()) {
                let (mut pair, s, t, demand) = bipartite_instance(seed);
                let (_, _, same) = pair.run_both(s, t, demand);
                prop_assert!(
                    same,
                    "engines disagreed on an optimal matching (cost tie in generator?)"
                );
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Layered graphs with parallel paths and a binding flow cap:
            /// value and cost must agree (matchings are not compared —
            /// wide graphs genuinely tie); certificates checked inside
            /// `run_both`.
            #[test]
            fn differential_layered_instances_match_cost_and_value(seed in any::<u64>()) {
                let (mut pair, s, t, cap) = layered_instance(seed);
                pair.run_both(s, t, cap);
            }
        }
    }

    // ----- adversarial shapes ---------------------------------------------

    #[test]
    fn zero_cost_ties_agree_on_cost_and_certify() {
        // Every assignment costs zero: any perfect matching is optimal.
        // The engines may pick different ones; cost/value equality and
        // both certificates are the contract.
        let mut pair = Pair::new(6);
        let (s, t) = (0, 5);
        pair.add_edge(s, 1, 1, 0);
        pair.add_edge(s, 2, 1, 0);
        for d in [1, 2] {
            for k in [3, 4] {
                pair.add_edge(d, k, 1, 0);
            }
        }
        pair.add_edge(3, t, 1, 0);
        pair.add_edge(4, t, 1, 0);
        let (flow, cost, _) = pair.run_both(s, t, 2);
        assert_eq!((flow, cost), (2, 0));
    }

    #[test]
    fn saturated_drivers_scale_is_agreed() {
        // Driver capacity below sink demand: both engines must leave the
        // same sinks dry and still be cost-optimal for the flow they ship.
        let mut pair = Pair::new(7);
        let (s, t) = (0, 6);
        pair.add_edge(s, 1, 1, 0); // one driver, capacity 1
        for (k, cost) in [(2, 5i64), (3, 3), (4, 9)] {
            pair.add_edge(1, k, 1, cost);
            pair.add_edge(k, t, 1, 0);
        }
        pair.add_edge(5, t, 1, 0); // sink with no driver edge at all
        let (flow, cost, same) = pair.run_both(s, t, 4);
        assert_eq!((flow, cost), (1, 3), "the single unit takes the cheap edge");
        assert!(same, "unique optimum must match edge-for-edge");
    }

    #[test]
    fn infeasible_sinks_yield_zero_flow() {
        let mut pair = Pair::new(4);
        pair.add_edge(0, 1, 3, 7);
        pair.add_edge(2, 3, 3, 7); // t's side disconnected from s's
        let (flow, cost, same) = pair.run_both(0, 3, 5);
        assert_eq!((flow, cost), (0, 0));
        assert!(same);
    }

    #[test]
    fn single_edge_graphs() {
        for (cap, cost, ask) in [(1i64, 0i64, 1i64), (1, 9, 4), (7, 3, 7), (7, 3, 2)] {
            let mut pair = Pair::new(2);
            pair.add_edge(0, 1, cap, cost);
            let (flow, total, same) = pair.run_both(0, 1, ask);
            assert_eq!(flow, cap.min(ask));
            assert_eq!(total, flow * cost);
            assert!(same);
        }
    }

    #[test]
    fn zero_flow_request_is_a_noop() {
        let mut pair = Pair::new(3);
        pair.add_edge(0, 1, 2, 4);
        pair.add_edge(1, 2, 2, 4);
        let (flow, cost, same) = pair.run_both(0, 2, 0);
        assert_eq!((flow, cost), (0, 0));
        assert!(same);
    }

    // ----- certificate rejection ------------------------------------------

    /// A solved 2×2 assignment to corrupt: returns (instance, s, t).
    fn solved_assignment() -> (MinCostFlow, usize, usize) {
        let mut f = MinCostFlow::new(6);
        let (s, t) = (0, 5);
        f.add_edge(s, 1, 1, 0);
        f.add_edge(s, 2, 1, 0);
        f.add_edge(1, 3, 1, 1);
        f.add_edge(1, 4, 1, 10);
        f.add_edge(2, 3, 1, 10);
        f.add_edge(2, 4, 1, 1);
        f.add_edge(3, t, 1, 0);
        f.add_edge(4, t, 1, 0);
        f.run(s, t, 2);
        (f, s, t)
    }

    #[test]
    fn certificate_rejects_capacity_violation() {
        let (mut f, s, t) = solved_assignment();
        f.edges[0].flow = f.edges[0].cap + 1; // s→driver over capacity
        f.edges[1].flow = -f.edges[0].flow;
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::Capacity { .. })
        ));
    }

    #[test]
    fn certificate_rejects_conservation_violation() {
        let (mut f, s, t) = solved_assignment();
        // Drop one unit on the sink→target edge only: node 3 now creates
        // flow out of nothing.
        f.edges[12].flow = 0;
        f.edges[13].flow = 0;
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::Conservation { .. })
        ));
    }

    #[test]
    fn certificate_rejects_suboptimal_matching() {
        let (mut f, s, t) = solved_assignment();
        // Swap the optimal diagonal (cost 2) for the anti-diagonal
        // (cost 20): still a feasible max flow, but a residual negative
        // cycle exists and the certificate must find it.
        for (eid, flow) in [(4usize, 0i64), (6, 1), (8, 1), (10, 0)] {
            f.edges[eid].flow = flow;
            f.edges[eid ^ 1].flow = -flow;
        }
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::NegativeCycle | Violation::NegativeReducedCost { .. })
        ));
    }

    #[test]
    fn certificate_rejects_non_maximal_flow() {
        let (mut f, s, t) = solved_assignment();
        // Empty the whole flow: feasible, conserved, trivially "optimal"
        // for value 0 — but an augmenting path remains below the cap.
        for e in &mut f.edges {
            e.flow = 0;
        }
        assert!(matches!(
            verify(&f, s, t, 2),
            Err(Violation::NotMaximal { .. })
        ));
    }

    #[test]
    fn certificate_accepts_the_oracle() {
        let mut o = SspFlow::new(4);
        o.add_edge(0, 1, 2, 1);
        o.add_edge(1, 2, 1, 1);
        o.add_edge(2, 3, 2, 1);
        let (flow, cost) = o.run(0, 3, 10);
        assert_eq!((flow, cost), (1, 3));
        let cert = verify_edges(o.num_nodes(), &o.edge_views(), 0, 3, 10).unwrap();
        assert_eq!(cert.flow_value, 1);
        assert_eq!(cert.total_cost, 3);
        assert_eq!(cert.potentials.len(), 4);
    }
}
