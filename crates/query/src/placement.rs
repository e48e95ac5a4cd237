//! Operator placement: the mapping from operators to hosts, plus the
//! validity rules the heuristic enumeration strategy enforces (Fig. 5).

use crate::hardware::{CapabilityBin, Cluster, HostId};
use crate::operators::{OpId, Query};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// An operator placement `ω_i → n_j`: one host per operator.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Placement {
    assignment: Vec<HostId>,
}

/// Why a placement violates the heuristic rules of Fig. 5.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlacementViolation {
    /// The assignment length does not match the number of operators.
    WrongArity {
        /// Number of operators in the query.
        expected: usize,
        /// Number of assignments provided.
        got: usize,
    },
    /// An assignment references a host outside the cluster.
    UnknownHost {
        /// Offending operator.
        op: OpId,
        /// Host id that does not exist.
        host: HostId,
    },
    /// Data flows from a stronger to a weaker capability bin (rule ②).
    DecreasingCapability {
        /// Upstream operator.
        from: OpId,
        /// Downstream operator.
        to: OpId,
    },
    /// Data returns to a host it already passed through (rule ③).
    CyclicHostVisit {
        /// Operator whose input revisits a host.
        op: OpId,
        /// The revisited host.
        host: HostId,
    },
}

impl std::fmt::Display for PlacementViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementViolation::WrongArity { expected, got } => {
                write!(f, "placement has {got} assignments for {expected} operators")
            }
            PlacementViolation::UnknownHost { op, host } => write!(f, "operator {op} placed on unknown host {host}"),
            PlacementViolation::DecreasingCapability { from, to } => {
                write!(f, "edge {from}->{to} flows to a weaker capability bin")
            }
            PlacementViolation::CyclicHostVisit { op, host } => {
                write!(f, "input of operator {op} returns to already-visited host {host}")
            }
        }
    }
}

impl Placement {
    /// Creates a placement from a per-operator host assignment.
    pub fn new(assignment: Vec<HostId>) -> Self {
        Placement { assignment }
    }

    /// Host assigned to an operator.
    pub fn host_of(&self, op: OpId) -> HostId {
        self.assignment[op]
    }

    /// The raw assignment vector.
    pub fn assignment(&self) -> &[HostId] {
        &self.assignment
    }

    /// Distinct hosts used by this placement.
    pub fn hosts_used(&self) -> Vec<HostId> {
        let mut hs: Vec<HostId> = self.assignment.clone();
        hs.sort_unstable();
        hs.dedup();
        hs
    }

    /// Checks the placement against the enumeration rules of Fig. 5:
    /// ① co-location is allowed (nothing to check), ② capability bins must
    /// be non-decreasing along the data flow, ③ data must never return to a
    /// host it already passed through.
    pub fn validate(&self, query: &Query, cluster: &Cluster) -> Result<(), PlacementViolation> {
        if self.assignment.len() != query.len() {
            return Err(PlacementViolation::WrongArity {
                expected: query.len(),
                got: self.assignment.len(),
            });
        }
        for (op, &h) in self.assignment.iter().enumerate() {
            if h >= cluster.len() {
                return Err(PlacementViolation::UnknownHost { op, host: h });
            }
        }
        // Rule ②: non-decreasing capability bin along every edge.
        for &(a, b) in query.edges() {
            let ba = CapabilityBin::classify(cluster.host(self.assignment[a]));
            let bb = CapabilityBin::classify(cluster.host(self.assignment[b]));
            if bb < ba {
                return Err(PlacementViolation::DecreasingCapability { from: a, to: b });
            }
        }
        // Rule ③: no host revisits. visited(op) = {host(op)} ∪ visited of
        // all upstream ops; an edge a→b with host(b) ≠ host(a) must not
        // target a host in visited(a).
        let order = query.topo_order().expect("valid query");
        let mut visited: Vec<Vec<HostId>> = vec![Vec::new(); query.len()];
        for &op in &order {
            let mut v: Vec<HostId> = vec![self.assignment[op]];
            for u in query.upstream(op) {
                let hu = self.assignment[u];
                let hv = self.assignment[op];
                if hv != hu && visited[u].contains(&hv) {
                    return Err(PlacementViolation::CyclicHostVisit { op, host: hv });
                }
                v.extend(visited[u].iter().copied());
            }
            v.sort_unstable();
            v.dedup();
            visited[op] = v;
        }
        Ok(())
    }

    /// True when the placement satisfies all rules.
    pub fn is_valid(&self, query: &Query, cluster: &Cluster) -> bool {
        self.validate(query, cluster).is_ok()
    }
}

/// Attempts to construct one random placement satisfying the rules of
/// Fig. 5 by walking the query in topological order and choosing uniformly
/// among the hosts that keep the placement valid. Returns `None` when the
/// walk dead-ends (possible when two join branches exhaust the eligible
/// hosts between them).
pub fn sample_valid(query: &Query, cluster: &Cluster, rng: &mut StdRng) -> Option<Placement> {
    neighborhood::Neighborhood::new(query, cluster).sample_valid(rng)
}

/// Neighborhood moves over placements: the candidate generators of the
/// pluggable placement-search subsystem.
///
/// A search strategy explores the placement space by *editing* a known
/// valid placement — relocating one operator or swapping the hosts of two
/// operators — instead of sampling whole assignments from scratch. Both
/// edit kinds touch at most two operators, so the Fig. 5 validity rules
/// can be re-checked *incrementally*: rule ② (non-decreasing capability)
/// only on the edges incident to the touched operators, and rule ③ (no
/// host revisit) only over the touched operators' downstream cone, seeded
/// from precomputed visited-host bitmasks — everything outside the cone
/// kept its visited set, and every edge outside it was already valid.
pub mod neighborhood {
    use super::{CapabilityBin, Cluster, HostId, OpId, Placement, Query};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// A single placement edit.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Move {
        /// Move one operator to another host.
        Relocate {
            /// The operator to move.
            op: OpId,
            /// Its new host.
            to: HostId,
        },
        /// Exchange the hosts of two operators.
        Swap {
            /// First operator.
            a: OpId,
            /// Second operator.
            b: OpId,
        },
    }

    impl Move {
        /// The placement produced by applying this edit.
        pub fn apply(&self, placement: &Placement) -> Placement {
            let mut assignment = placement.assignment().to_vec();
            self.edit(&mut assignment);
            Placement::new(assignment)
        }

        /// Writes the edited assignment into `out` (cleared first) without
        /// constructing a `Placement` — the allocation-free form the
        /// allocation audit (`tests/alloc_audit.rs`) applies candidates in.
        pub fn apply_into(&self, placement: &Placement, out: &mut Vec<HostId>) {
            out.clear();
            out.extend_from_slice(placement.assignment());
            self.edit(out);
        }

        fn edit(&self, assignment: &mut [HostId]) {
            match *self {
                Move::Relocate { op, to } => assignment[op] = to,
                Move::Swap { a, b } => assignment.swap(a, b),
            }
        }
    }

    /// Counters of one neighborhood enumeration: `generated` candidate
    /// edits passed the incremental Fig. 5 checks and were emitted,
    /// `rejected` failed them — a relocation judged by its host class's
    /// one check counts like one judged by its own. Degenerate edits that
    /// are skipped without a check (relocating to the current host,
    /// swapping co-located operators) count toward neither.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct MoveCounts {
        /// Valid edits emitted.
        pub generated: u64,
        /// Edits rejected by the incremental validity check.
        pub rejected: u64,
    }

    impl MoveCounts {
        /// Total candidate edits judged.
        pub fn checked(&self) -> u64 {
            self.generated + self.rejected
        }

        /// Accumulates another enumeration's counters into this one.
        pub fn absorb(&mut self, other: MoveCounts) {
            self.generated += other.generated;
            self.rejected += other.rejected;
        }

        fn note(&mut self, valid: bool) {
            if valid {
                self.generated += 1;
            } else {
                self.rejected += 1;
            }
        }
    }

    /// Per-placement rule ③ state: the set of hosts the data has passed
    /// through on any path ending at each operator, as one multi-word
    /// bitmask per operator (bit `h` = host `h` visited). The mask of
    /// operator `op` occupies `masks[op * words .. (op + 1) * words]`,
    /// with `words = ceil(cluster.len() / 64)` — so clusters of any width
    /// take the incremental validity path. `used` is one more mask of the
    /// same width: the hosts the placement uses at all, which is what
    /// splits a relocation's targets into hosts with a verdict of their
    /// own and host classes (see [`Neighborhood`]). Computed once per
    /// placement by [`Neighborhood::visit_state`] and reused for every
    /// candidate edit of that placement.
    #[derive(Clone, Debug)]
    pub struct VisitState {
        words: usize,
        masks: Vec<u64>,
        used: Vec<u64>,
    }

    impl VisitState {
        /// An empty state to be filled by [`Neighborhood::visit_state_into`].
        /// Search strategies hold one of these across rounds so mask
        /// recomputation reuses the same buffer instead of allocating.
        pub fn empty() -> VisitState {
            VisitState {
                words: 0,
                masks: Vec::new(),
                used: Vec::new(),
            }
        }
    }

    impl Default for VisitState {
        fn default() -> Self {
            VisitState::empty()
        }
    }

    /// Rule ③ working buffers, so cone recomputation never allocates in
    /// steady state. A `Neighborhood` keeps one behind a lock for its own
    /// entry points; a [`JointNeighborhood`](crate::joint::JointNeighborhood)
    /// brings one sized for its widest query.
    pub struct MoveScratch {
        in_cone: Vec<bool>,
        new_mask: Vec<u64>,
    }

    impl MoveScratch {
        /// Scratch sized for a query of `n_ops` operators on a cluster
        /// whose visit masks span `words` words per operator. A scratch
        /// sized for larger bounds is accepted by every check, so one
        /// max-sized scratch can serve several queries.
        pub fn new(n_ops: usize, words: usize) -> MoveScratch {
            MoveScratch {
                in_cone: vec![false; n_ops],
                new_mask: vec![0u64; n_ops * words],
            }
        }

        fn ensure(&mut self, n_ops: usize, words: usize) {
            if self.in_cone.len() < n_ops {
                self.in_cone.resize(n_ops, false);
            }
            if self.new_mask.len() < n_ops * words {
                self.new_mask.resize(n_ops * words, 0);
            }
        }
    }

    /// Precomputed query/cluster structure shared by all neighbor checks
    /// and by [`Neighborhood::sample_valid`]: topological order, per-host
    /// capability bins (and, per bin, the hosts at or above it) and the
    /// dataflow adjacency. Build once per (query, cluster), reuse across
    /// every placement the search visits.
    ///
    /// # Host equivalence classes
    ///
    /// The Fig. 5 rules can tell two hosts apart only by their capability
    /// bin and by whether the placement already uses them: for
    /// `Relocate { op, to }` with `to` used by no operator of `p`, the
    /// verdict depends on `bin(to)` alone.
    ///
    /// * Rule ② reads `to` only through `bins[to]`.
    /// * Rule ③ at `op` tests bit `to` of its upstreams' masks, which hold
    ///   used hosts only, so the test passes for every unused `to`.
    /// * Rule ③ at any other cone member `v` tests bit `host(v)`, a used
    ///   host: the bit `to` that `op` adds to the cone masks is never read.
    ///
    /// So an enumeration runs the full check once per bin among the unused
    /// hosts and once per used host — O(ops × (bins + used hosts)) checks a
    /// neighbourhood, whatever the cluster's width — and replays the
    /// verdict for the rest of the class, in the same host order.
    pub struct Neighborhood<'a> {
        query: &'a Query,
        cluster: &'a Cluster,
        order: Vec<OpId>,
        bins: Vec<CapabilityBin>,
        /// Per bin (as index), its hosts as a `words`-wide bitmask: the
        /// classes of a relocation unit.
        in_bin: [Vec<u64>; 3],
        /// Per bin (as index), the hosts of that bin or a stronger one,
        /// ascending: rule ②'s candidate list for an operator whose
        /// strongest upstream sits in that bin.
        at_least: [Vec<HostId>; 3],
        ups: Vec<Vec<OpId>>,
        downs: Vec<Vec<OpId>>,
        words: usize,
        // A `Mutex`, not a `RefCell`, so the neighborhood stays `Sync`.
        // Entry points lock it once per enumeration, never per check.
        scratch: std::sync::Mutex<MoveScratch>,
    }

    impl<'a> Neighborhood<'a> {
        /// Precomputes the structure for one (query, cluster) pair.
        pub fn new(query: &'a Query, cluster: &'a Cluster) -> Self {
            let order = query.topo_order().expect("valid query");
            let words = cluster.len().div_ceil(64).max(1);
            let bins: Vec<CapabilityBin> = cluster.hosts().iter().map(CapabilityBin::classify).collect();
            let mut in_bin: [Vec<u64>; 3] = std::array::from_fn(|_| vec![0; words]);
            let mut at_least: [Vec<HostId>; 3] = std::array::from_fn(|_| Vec::with_capacity(bins.len()));
            for (h, &bin) in bins.iter().enumerate() {
                in_bin[bin as usize][h / 64] |= 1u64 << (h % 64);
                for hosts in &mut at_least[..=bin as usize] {
                    hosts.push(h);
                }
            }
            // One pass over the edges keeps each operator's neighbours in
            // edge order, as `Query::upstream` / `downstream` list them.
            let mut ups: Vec<Vec<OpId>> = vec![Vec::new(); query.len()];
            let mut downs: Vec<Vec<OpId>> = vec![Vec::new(); query.len()];
            for &(a, b) in query.edges() {
                ups[b].push(a);
                downs[a].push(b);
            }
            Neighborhood {
                query,
                cluster,
                order,
                bins,
                in_bin,
                at_least,
                ups,
                downs,
                words,
                // Grows to (operators × words) on the first check.
                scratch: std::sync::Mutex::new(MoveScratch::new(0, 0)),
            }
        }

        /// Computes the visited-host bitmasks of a placement (rule ③
        /// state). `placement` is expected to be valid; the masks of an
        /// invalid placement are still well-defined but incremental
        /// checks against them only certify the *edited* parts.
        pub fn visit_state(&self, placement: &Placement) -> VisitState {
            let mut state = VisitState::empty();
            self.visit_state_into(placement, &mut state);
            state
        }

        /// Recomputes the visited-host bitmasks into an existing state,
        /// reusing its mask buffer: once the buffer has grown to this
        /// neighborhood's size, recomputation allocates nothing.
        pub fn visit_state_into(&self, placement: &Placement, state: &mut VisitState) {
            let words = self.words;
            state.words = words;
            state.used.clear();
            state.used.resize(words, 0);
            for &h in placement.assignment() {
                state.used[h / 64] |= 1u64 << (h % 64);
            }
            let masks = &mut state.masks;
            masks.clear();
            masks.resize(self.query.len() * words, 0);
            for &op in &self.order {
                let base = op * words;
                for &u in &self.ups[op] {
                    let ub = u * words;
                    for w in 0..words {
                        masks[base + w] |= masks[ub + w];
                    }
                }
                let h = placement.host_of(op);
                masks[base + h / 64] |= 1u64 << (h % 64);
            }
        }

        /// Attempts to construct one random placement satisfying the rules
        /// of Fig. 5: walks the query in topological order and chooses
        /// uniformly among the hosts that keep the placement valid — those
        /// of the strongest upstream's bin or above (rule ②) minus the
        /// hosts an upstream's data has passed through and left (rule ③).
        /// The candidates are never listed: one `gen_range(0..len)` draw
        /// picks a rank among the survivors, and the rank is selected by
        /// skipping the ≤ `n_ops` excluded positions. Returns `None`
        /// without drawing when an operator has no candidate (possible when
        /// two join branches exhaust the eligible hosts between them).
        pub fn sample_valid(&self, rng: &mut StdRng) -> Option<Placement> {
            let mut assignment: Vec<HostId> = vec![usize::MAX; self.query.len()];
            let mut visited: Vec<Vec<HostId>> = vec![Vec::new(); self.query.len()];
            let mut excluded: Vec<HostId> = Vec::new();
            for &op in &self.order {
                let ups = &self.ups[op];
                let min_bin = ups
                    .iter()
                    .map(|&u| self.bins[assignment[u]])
                    .max()
                    .unwrap_or(CapabilityBin::Edge);
                let eligible = &self.at_least[min_bin as usize];
                excluded.clear();
                for &u in ups {
                    let left = visited[u]
                        .iter()
                        .filter(|&&h| h != assignment[u] && self.bins[h] >= min_bin);
                    excluded.extend(left);
                }
                excluded.sort_unstable();
                excluded.dedup();
                let len = eligible.len() - excluded.len();
                if len == 0 {
                    return None;
                }
                // The rank among the survivors becomes an index into
                // `eligible` by stepping over every excluded position at
                // or below it, in ascending order.
                let mut k = rng.gen_range(0..len);
                for h in &excluded {
                    let pos = eligible.binary_search(h).expect("excluded hosts are eligible");
                    if pos > k {
                        break;
                    }
                    k += 1;
                }
                let chosen = eligible[k];
                assignment[op] = chosen;
                let mut v = vec![chosen];
                for &u in ups {
                    v.extend(visited[u].iter().copied());
                }
                v.sort_unstable();
                v.dedup();
                visited[op] = v;
            }
            Some(Placement::new(assignment))
        }

        /// Checks whether applying `mv` to the (valid) placement `p`
        /// yields another valid placement, re-validating only what the
        /// edit can affect. `state` must be `self.visit_state(p)`. The
        /// property tests hold this to full revalidation; search runs
        /// [`Neighborhood::is_valid_move_with`].
        pub fn is_valid_move(&self, p: &Placement, state: &VisitState, mv: Move) -> bool {
            let mut scratch = self.scratch.lock().expect("neighborhood scratch lock");
            self.is_valid_move_with(p, state, mv, &mut scratch)
        }

        /// [`Neighborhood::is_valid_move`] with caller-provided working
        /// buffers, without touching the neighborhood's own lock.
        pub fn is_valid_move_with(
            &self,
            p: &Placement,
            state: &VisitState,
            mv: Move,
            scratch: &mut MoveScratch,
        ) -> bool {
            // Degenerate edits (no-ops, unknown hosts) are rejected up
            // front so the answer does not depend on which validation
            // path runs below.
            let touched: [(OpId, HostId); 2] = match mv {
                Move::Relocate { op, to } => {
                    if to >= self.cluster.len() || to == p.host_of(op) {
                        return false;
                    }
                    [(op, to), (op, to)]
                }
                Move::Swap { a, b } => {
                    if a == b || p.host_of(a) == p.host_of(b) {
                        return false;
                    }
                    [(a, p.host_of(b)), (b, p.host_of(a))]
                }
            };
            debug_assert_eq!(state.words, self.words, "visit state from another cluster width");
            let host = |op: OpId| -> HostId {
                if op == touched[0].0 {
                    touched[0].1
                } else if op == touched[1].0 {
                    touched[1].1
                } else {
                    p.host_of(op)
                }
            };

            // Rule ②: non-decreasing capability on every edge incident to
            // a touched operator (all other edges kept both endpoints).
            for &(op, _) in &touched {
                let b_op = self.bins[host(op)];
                for &u in &self.ups[op] {
                    if b_op < self.bins[host(u)] {
                        return false;
                    }
                }
                for &d in &self.downs[op] {
                    if self.bins[host(d)] < b_op {
                        return false;
                    }
                }
            }

            // Rule ③: recompute visited masks over the touched operators'
            // downstream cone only. Operators outside the cone keep their
            // masks, and every edge outside the cone was already valid.
            // A cone member's mask words are zeroed before any read (cone
            // members are visited in topo order), so no global reset is
            // needed.
            let words = self.words;
            scratch.ensure(self.query.len(), words);
            let MoveScratch { in_cone, new_mask } = scratch;
            in_cone[..self.query.len()].fill(false);
            for &v in &self.order {
                let mut hit = v == touched[0].0 || v == touched[1].0;
                if !hit {
                    hit = self.ups[v].iter().any(|&u| in_cone[u]);
                }
                if !hit {
                    continue;
                }
                in_cone[v] = true;
                let hv = host(v);
                let (hw, hb) = (hv / 64, hv % 64);
                let vb = v * words;
                for w in 0..words {
                    new_mask[vb + w] = 0;
                }
                new_mask[vb + hw] = 1u64 << hb;
                for &u in &self.ups[v] {
                    let ub = u * words;
                    // An upstream inside the cone contributes its freshly
                    // recomputed mask; one outside keeps its cached mask.
                    let visited = if in_cone[u] {
                        (new_mask[ub + hw] >> hb) & 1 == 1
                    } else {
                        (state.masks[ub + hw] >> hb) & 1 == 1
                    };
                    if hv != host(u) && visited {
                        return false;
                    }
                    for w in 0..words {
                        let mu = if in_cone[u] {
                            new_mask[ub + w]
                        } else {
                            state.masks[ub + w]
                        };
                        new_mask[vb + w] |= mu;
                    }
                }
            }
            true
        }

        /// One relocation unit: every valid target host for operator `op`,
        /// in ascending host order, streamed through `f`. A host the
        /// placement uses gets the full check; the unused ones share one
        /// full check per capability bin (the class invariant on
        /// [`Neighborhood`]), so the valid targets of 64 hosts are a few
        /// mask operations and the cost of a unit is its checks plus the
        /// moves it emits. Every host considered is counted.
        pub(crate) fn relocations_of(
            &self,
            op: OpId,
            p: &Placement,
            state: &VisitState,
            scratch: &mut MoveScratch,
            f: &mut impl FnMut(HostId),
        ) -> MoveCounts {
            let cur = p.host_of(op);
            let mut check = |to: HostId| self.is_valid_move_with(p, state, Move::Relocate { op, to }, scratch);
            let mut unused_verdict: [Option<bool>; 3] = [None; 3];
            let mut generated = 0u64;
            for w in 0..self.words {
                let used = state.used[w];
                let mut valid = 0u64;
                for (verdict, hosts) in unused_verdict.iter_mut().zip(&self.in_bin) {
                    let class = hosts[w] & !used;
                    // The class's first member stands for all of it.
                    if class != 0 && *verdict.get_or_insert_with(|| check(w * 64 + class.trailing_zeros() as usize)) {
                        valid |= class;
                    }
                }
                let mut rest = used;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    if w * 64 + bit != cur && check(w * 64 + bit) {
                        valid |= 1 << bit;
                    }
                }
                generated += u64::from(valid.count_ones());
                while valid != 0 {
                    f(w * 64 + valid.trailing_zeros() as usize);
                    valid &= valid - 1;
                }
            }
            MoveCounts {
                generated,
                rejected: (self.cluster.len() - 1) as u64 - generated,
            }
        }

        /// One swap unit: the second operand `b` of every valid swap with
        /// first operand `a`, in ascending order, streamed through `f`.
        /// Same-host swaps are no-ops and skipped without a check.
        pub(crate) fn swaps_of(
            &self,
            a: OpId,
            p: &Placement,
            state: &VisitState,
            scratch: &mut MoveScratch,
            f: &mut impl FnMut(OpId),
        ) -> MoveCounts {
            let mut counts = MoveCounts::default();
            for b in (a + 1)..self.query.len() {
                if p.host_of(a) == p.host_of(b) {
                    continue;
                }
                let ok = self.is_valid_move_with(p, state, Move::Swap { a, b }, scratch);
                counts.note(ok);
                if ok {
                    f(b);
                }
            }
            counts
        }

        /// Streams the full neighborhood — all valid relocations, then
        /// all valid swaps — through `f` in the same deterministic order
        /// as [`Neighborhood::neighbors`].
        pub fn for_each_neighbor(&self, p: &Placement, state: &VisitState, mut f: impl FnMut(Move)) -> MoveCounts {
            let mut scratch = self.scratch.lock().expect("neighborhood scratch lock");
            let mut counts = MoveCounts::default();
            for op in 0..self.query.len() {
                counts.absorb(self.relocations_of(op, p, state, &mut scratch, &mut |to| f(Move::Relocate { op, to })));
            }
            for a in 0..self.query.len() {
                counts.absorb(self.swaps_of(a, p, state, &mut scratch, &mut |b| f(Move::Swap { a, b })));
            }
            counts
        }

        /// Fills `out` (cleared first) with the full neighborhood. Once
        /// `out` has grown to the neighborhood's steady-state size, an
        /// enumeration allocates nothing.
        pub fn neighbors_into(&self, p: &Placement, state: &VisitState, out: &mut Vec<Move>) -> MoveCounts {
            out.clear();
            self.for_each_neighbor(p, state, |mv| out.push(mv))
        }

        /// The full neighborhood: all valid relocations, then all valid
        /// swaps — a deterministic candidate order. The collected form the
        /// property tests compare; search streams it
        /// ([`Neighborhood::for_each_neighbor`]).
        pub fn neighbors(&self, p: &Placement, state: &VisitState) -> Vec<Move> {
            let mut out = Vec::new();
            self.neighbors_into(p, state, &mut out);
            out
        }
    }
}

/// The always-valid fallback placement: co-locate the whole query on the
/// most capable host.
pub fn colocate_on_strongest(query: &Query, cluster: &Cluster) -> Placement {
    let strongest = (0..cluster.len())
        .max_by(|&a, &b| {
            cluster
                .host(a)
                .capability_score()
                .partial_cmp(&cluster.host(b).capability_score())
                .expect("finite scores")
        })
        .expect("non-empty cluster");
    Placement::new(vec![strongest; query.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatypes::{DataType, TupleSchema};
    use crate::hardware::Host;
    use crate::operators::{FilterFunction, FilterSpec, OpKind, SourceSpec};

    fn chain_query(n_filters: usize) -> Query {
        let mut ops = vec![OpKind::Source(SourceSpec {
            event_rate: 100.0,
            schema: TupleSchema::new(vec![DataType::Int, DataType::Int, DataType::Int]),
        })];
        for _ in 0..n_filters {
            ops.push(OpKind::Filter(FilterSpec {
                function: FilterFunction::Less,
                literal_type: DataType::Int,
                selectivity: 0.5,
            }));
        }
        ops.push(OpKind::Sink);
        let edges = (0..ops.len() - 1).map(|i| (i, i + 1)).collect();
        Query::new(ops, edges)
    }

    fn edge_fog_cloud() -> Cluster {
        Cluster::new(vec![
            Host {
                cpu: 50.0,
                ram_mb: 1000.0,
                bandwidth_mbits: 25.0,
                latency_ms: 160.0,
            },
            Host {
                cpu: 300.0,
                ram_mb: 8000.0,
                bandwidth_mbits: 400.0,
                latency_ms: 10.0,
            },
            Host {
                cpu: 800.0,
                ram_mb: 32000.0,
                bandwidth_mbits: 10000.0,
                latency_ms: 1.0,
            },
        ])
    }

    #[test]
    fn monotone_placement_is_valid() {
        let q = chain_query(2);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![0, 1, 2, 2]);
        assert!(p.is_valid(&q, &c));
    }

    #[test]
    fn colocation_is_valid() {
        let q = chain_query(2);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![1, 1, 1, 1]);
        assert!(p.is_valid(&q, &c));
        assert_eq!(p.hosts_used(), vec![1]);
    }

    #[test]
    fn decreasing_capability_rejected() {
        let q = chain_query(1);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![2, 0, 0]);
        assert_eq!(
            p.validate(&q, &c),
            Err(PlacementViolation::DecreasingCapability { from: 0, to: 1 })
        );
    }

    #[test]
    fn host_revisit_rejected() {
        // source on fog(1), filter on fog(1)... need a revisit within same
        // bin to isolate rule ③: fog -> fog' -> fog. Use two fog hosts.
        let c = Cluster::new(vec![
            Host {
                cpu: 300.0,
                ram_mb: 8000.0,
                bandwidth_mbits: 400.0,
                latency_ms: 10.0,
            },
            Host {
                cpu: 300.0,
                ram_mb: 8000.0,
                bandwidth_mbits: 400.0,
                latency_ms: 10.0,
            },
        ]);
        let q = chain_query(2);
        let p = Placement::new(vec![0, 1, 0, 0]);
        assert_eq!(
            p.validate(&q, &c),
            Err(PlacementViolation::CyclicHostVisit { op: 2, host: 0 })
        );
    }

    #[test]
    fn wrong_arity_rejected() {
        let q = chain_query(1);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![0, 1]);
        assert!(matches!(p.validate(&q, &c), Err(PlacementViolation::WrongArity { .. })));
    }

    #[test]
    fn neighborhood_incremental_matches_full_validation() {
        use super::neighborhood::{Move, Neighborhood};
        let q = chain_query(3);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![0, 1, 1, 2, 2]);
        assert!(p.is_valid(&q, &c));
        let nb = Neighborhood::new(&q, &c);
        let st = nb.visit_state(&p);
        for op in 0..q.len() {
            for to in 0..c.len() {
                if to == p.host_of(op) {
                    continue;
                }
                let mv = Move::Relocate { op, to };
                assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "relocate {op} -> {to}"
                );
            }
        }
        for a in 0..q.len() {
            for b in (a + 1)..q.len() {
                if p.host_of(a) == p.host_of(b) {
                    continue;
                }
                let mv = Move::Swap { a, b };
                assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "swap {a} <-> {b}"
                );
            }
        }
    }

    #[test]
    fn neighborhood_wide_cluster_matches_full_validation() {
        use super::neighborhood::{Move, Neighborhood};
        // 70 hosts (> 64): the visited sets span two bitmask words, so
        // this exercises the multi-word incremental path — which must
        // agree with full revalidation, including no-op rejection.
        let mut hosts = Vec::new();
        for i in 0..70 {
            // Mix of edge/fog/cloud-class hosts so both valid and
            // invalid relocations exist.
            let tier = i % 3;
            hosts.push(Host {
                cpu: [50.0, 300.0, 800.0][tier],
                ram_mb: [1000.0, 8000.0, 32000.0][tier],
                bandwidth_mbits: [25.0, 400.0, 10000.0][tier],
                latency_ms: [160.0, 10.0, 1.0][tier],
            });
        }
        let c = Cluster::new(hosts);
        let q = chain_query(2);
        let p = Placement::new(vec![0, 1, 2, 2]);
        assert!(p.is_valid(&q, &c));
        let nb = Neighborhood::new(&q, &c);
        let st = nb.visit_state(&p);
        for op in 0..q.len() {
            // No-op relocation is rejected on wide clusters too.
            let noop = Move::Relocate { op, to: p.host_of(op) };
            assert!(!nb.is_valid_move(&p, &st, noop));
            for to in 0..c.len() {
                if to == p.host_of(op) {
                    continue;
                }
                let mv = Move::Relocate { op, to };
                assert_eq!(
                    nb.is_valid_move(&p, &st, mv),
                    mv.apply(&p).is_valid(&q, &c),
                    "wide cluster: relocate {op} -> {to}"
                );
            }
        }
        for a in 0..q.len() {
            assert!(!nb.is_valid_move(&p, &st, Move::Swap { a, b: a }), "self-swap");
            for b in (a + 1)..q.len() {
                let mv = Move::Swap { a, b };
                let want = p.host_of(a) != p.host_of(b) && mv.apply(&p).is_valid(&q, &c);
                assert_eq!(nb.is_valid_move(&p, &st, mv), want, "wide cluster: swap {a} <-> {b}");
            }
        }
        // Generators work on wide clusters and emit valid neighbors.
        let neighbors = nb.neighbors(&p, &st);
        assert!(!neighbors.is_empty());
        for mv in neighbors {
            assert!(mv.apply(&p).is_valid(&q, &c));
        }
    }

    #[test]
    fn neighborhood_generators_emit_only_valid_placements() {
        use super::neighborhood::Neighborhood;
        let q = chain_query(2);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![0, 1, 2, 2]);
        let nb = Neighborhood::new(&q, &c);
        let st = nb.visit_state(&p);
        let neighbors = nb.neighbors(&p, &st);
        assert!(!neighbors.is_empty());
        for mv in neighbors {
            let np = mv.apply(&p);
            assert!(np.is_valid(&q, &c), "{mv:?} produced invalid {:?}", np.assignment());
            assert_ne!(np.assignment(), p.assignment(), "{mv:?} is a no-op");
        }
    }

    #[test]
    fn unknown_host_rejected() {
        let q = chain_query(1);
        let c = edge_fog_cloud();
        let p = Placement::new(vec![0, 1, 9]);
        assert!(matches!(
            p.validate(&q, &c),
            Err(PlacementViolation::UnknownHost { op: 2, host: 9 })
        ));
    }
}
