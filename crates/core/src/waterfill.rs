//! Fast centralized solver: per-constraint water-filling + mode
//! iteration.
//!
//! Given the binary modes of Theorem 1, problem (12)/(17) separates into
//! one concave program per budget constraint:
//!
//! ```text
//! max Σ_j s_j·ln(w_j + ρ_j·c_j)   s.t.  Σ_j ρ_j ≤ 1,  0 ≤ ρ_j ≤ 1
//! ```
//!
//! whose KKT solution is the water-filling form
//! `ρ_j(λ) = [s_j/λ − w_j/c_j]` clamped to `[0, 1]`, with the water
//! level λ found by bisection on the monotone map `λ ↦ Σ_j ρ_j(λ)`.
//! The solver alternates exact fills with Table-I-style mode
//! best-responses at the implied prices. It stops when a best response
//! repeats a mode vector it has already filled, or after `max_rounds`
//! fills. It then polishes with single-user mode flips and pairwise
//! swaps. Every iterate is primal-feasible, and the best objective
//! seen is returned.
//!
//! This is *not* the paper's distributed algorithm — that is
//! [`crate::dual`] — but it computes the same optimum (the tests check
//! agreement) orders of magnitude faster, which matters inside the
//! greedy channel allocator where `Q(c)` is evaluated `O(N²M²)` times.

use crate::allocation::{Allocation, Mode, UserAllocation};
use crate::lagrangian;
use crate::problem::SlotProblem;
use crate::soa::{FillScratch, SoaProblem};

/// Water-filling solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaterfillingSolver {
    /// Maximum mode-reassignment rounds before falling back to the best
    /// solution seen.
    pub max_rounds: usize,
    /// Bisection iterations per fill (60 reaches f64 precision). A
    /// bisection stops sooner once its midpoint rounds to an endpoint,
    /// which changes nothing.
    pub bisection_iters: usize,
    /// When `num_users ≤ exhaustive_modes_up_to` (internally capped at
    /// 20), [`Self::solve`] skips the heuristic mode iteration and
    /// brute-forces every `2^n` Theorem-1 mode vector with one exact
    /// fill each, making the returned allocation the global optimum up
    /// to bisection precision. `0` (the default) disables the exact
    /// path; conformance tests enable it on tiny instances so that
    /// none of their assertions hinge on the heuristic mode search
    /// (which carries no optimality guarantee).
    pub exhaustive_modes_up_to: usize,
    /// [`Self::polish`] tries pairwise mode swaps only when
    /// `num_users ≤ swap_users_up_to` — the swap neighborhood is
    /// `O(n²)` candidates, which is the difference between
    /// microseconds at the paper's N ≤ 3 and hours at a massive-N
    /// slot's thousands of users. Flip polishing (`n` candidates per
    /// pass) always runs.
    pub swap_users_up_to: usize,
}

impl Default for WaterfillingSolver {
    fn default() -> Self {
        Self {
            max_rounds: 16,
            bisection_iters: 60,
            exhaustive_modes_up_to: 0,
            swap_users_up_to: 256,
        }
    }
}

impl WaterfillingSolver {
    /// Creates a solver with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver that is *exact* on problems with at most `limit` users:
    /// [`Self::solve`] brute-forces all `2^n` Theorem-1 mode vectors
    /// there (one exact water-fill each), and falls back to the default
    /// heuristic path on anything larger. Cost is `2^n` fills per
    /// evaluation, so keep `limit` small.
    pub fn exact_up_to(limit: usize) -> Self {
        Self {
            exhaustive_modes_up_to: limit,
            ..Self::default()
        }
    }

    /// Solves the slot problem: returns a feasible allocation maximizing
    /// objective (12)/(17) (global optimum of the convex program up to
    /// mode local-search, which the cross-validation tests confirm
    /// reaches the dual solver's value; exactly global when the
    /// [`Self::exact_up_to`] path applies).
    pub fn solve(&self, problem: &SlotProblem) -> Allocation {
        if problem.num_users() <= self.exhaustive_modes_up_to.min(20) {
            return self.solve_exact_modes(problem);
        }
        // One SoA view and one scratch serve every fill of the solve —
        // the gathers become contiguous sweeps and the bisection stops
        // allocating (the hot-path win that makes massive-N Q(c)
        // evaluations cheap).
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let (best, best_value, _) = self.iterate_modes(problem, &soa, &mut scratch);
        self.polish_fill(&soa, &mut scratch, &best, best_value)
            .unwrap_or(best)
    }

    /// The mode iteration of [`Self::solve`]: fills the myopic modes,
    /// then alternates Table-I best responses with exact fills, one
    /// fill per round for at most `max_rounds` rounds (the myopic fill
    /// is round 0 and always runs). Returns the best fill, its
    /// objective, and every mode vector filled, in order.
    ///
    /// It stops at the first best response that repeats a filled
    /// vector. A fill and the best response are pure functions of the
    /// mode vector and `best` moves only on a strict `>`, so every later
    /// round would re-score known values and change nothing.
    fn iterate_modes(
        &self,
        problem: &SlotProblem,
        soa: &SoaProblem,
        scratch: &mut FillScratch,
    ) -> (Allocation, f64, Vec<Vec<Mode>>) {
        let modes = myopic_modes(problem);
        let (mut best, mut lambdas) = self.fill_soa(soa, &modes, scratch);
        let mut best_value = problem.objective(&best);
        let mut seen = vec![modes];
        for _ in 1..self.max_rounds {
            let modes = best_response(problem, &lambdas);
            if seen.contains(&modes) {
                break;
            }
            let (alloc, prices) = self.fill_soa(soa, &modes, scratch);
            let value = problem.objective(&alloc);
            if value > best_value {
                best_value = value;
                best = alloc;
            }
            lambdas = prices;
            seen.push(modes);
        }
        (best, best_value, seen)
    }

    /// Global optimum by enumeration: every `2^n` binary mode vector of
    /// Theorem 1, each filled exactly, best objective wins. Only called
    /// for `n ≤ min(exhaustive_modes_up_to, 20)`, so the loop is cheap.
    fn solve_exact_modes(&self, problem: &SlotProblem) -> Allocation {
        let n = problem.num_users();
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let mut best: Option<(f64, Allocation)> = None;
        for bits in 0..(1u32 << n) {
            let modes: Vec<Mode> = (0..n)
                .map(|j| {
                    if bits >> j & 1 == 1 {
                        Mode::Fbs
                    } else {
                        Mode::Mbs
                    }
                })
                .collect();
            let candidate = self.fill_soa(&soa, &modes, &mut scratch).0;
            let value = problem.objective(&candidate);
            if best.as_ref().is_none_or(|(b, _)| value > *b) {
                best = Some((value, candidate));
            }
        }
        best.expect("at least the all-MBS mode vector was evaluated")
            .1
    }

    /// Local search over mode vectors starting from `allocation`: single
    /// flips and pairwise swaps, each candidate refilled exactly. Swaps
    /// matter: exchanging which user holds the big FBS pipe and which
    /// holds the common channel is a two-coordinate move a flip-only
    /// search cannot reach. Returns the best allocation found (never
    /// worse than the input): `allocation` itself unless a candidate
    /// beats it, else the fill of the last accepted mode vector.
    ///
    /// Candidates are delta-evaluated: a flip changes the membership of
    /// exactly two budgets (the MBS budget and the user's FBS budget), a
    /// swap of at most three, so only those are refilled and the
    /// objective is re-summed from a per-user term array — `O(n)` adds
    /// plus the touched budgets' bisections, instead of a full fill and
    /// `n` logarithms per candidate. Every candidate, and so every
    /// accept/reject decision, is bit-identical to a full refill: each
    /// budget's fill reads only its own members, and the score is the
    /// same in-order sum of the same per-user terms as
    /// [`SlotProblem::objective`].
    ///
    /// # Panics
    ///
    /// Panics if `allocation` covers a different number of users than
    /// `problem`.
    pub fn polish(&self, problem: &SlotProblem, allocation: Allocation) -> Allocation {
        assert_eq!(
            allocation.len(),
            problem.num_users(),
            "allocation size mismatch"
        );
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let modes: Vec<Mode> = allocation.users().iter().map(|u| u.mode).collect();
        let fill = self.fill_soa(&soa, &modes, &mut scratch).0;
        self.polish_fill(&soa, &mut scratch, &fill, problem.objective(&allocation))
            .unwrap_or(allocation)
    }

    /// [`Self::polish`] from `start`, which must be the fill of its own
    /// modes, through a prebuilt view and scratch: accepts only
    /// candidates beating `value` and returns the last one accepted, or
    /// `None` if none was. [`Self::solve`] and the dual's primal
    /// recovery start from a fill they already hold.
    pub(crate) fn polish_fill(
        &self,
        soa: &SoaProblem,
        scratch: &mut FillScratch,
        start: &Allocation,
        value: f64,
    ) -> Option<Allocation> {
        let n = soa.num_users();
        let mut best_value = value;
        let mut fill = DeltaFill::new(self, soa, scratch, start.users().to_vec());
        let mut accepted = false;
        let mut improved = true;
        let mut passes = 0;
        while improved && passes < self.max_rounds {
            improved = false;
            passes += 1;
            for j in 0..n {
                let value = fill.try_move(&[j]);
                if value > best_value + 1e-12 {
                    best_value = value;
                    fill.commit();
                    improved = true;
                } else {
                    fill.revert(&[j]);
                }
            }
            if !improved && n <= self.swap_users_up_to {
                'swaps: for j in 0..n {
                    for k in (j + 1)..n {
                        if fill.modes[j] == fill.modes[k] {
                            continue;
                        }
                        // Modes differ, so the swap flips both.
                        let value = fill.try_move(&[j, k]);
                        if value > best_value + 1e-12 {
                            best_value = value;
                            fill.commit();
                            improved = true;
                            break 'swaps;
                        }
                        fill.revert(&[j, k]);
                    }
                }
            }
            accepted |= improved;
        }
        accepted.then(|| Allocation::new(fill.allocs))
    }

    /// Exact optimal shares for fixed modes (every budget filled by
    /// bisection). The returned allocation is feasible by construction.
    pub fn fill_given_modes(&self, problem: &SlotProblem, modes: &[Mode]) -> Allocation {
        self.fill_with_prices(problem, modes).0
    }

    /// As [`Self::fill_given_modes`], also returning the water levels
    /// `[λ_0, λ_1, …, λ_N]` (zero for slack constraints).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len()` differs from the problem's user count.
    pub fn fill_with_prices(
        &self,
        problem: &SlotProblem,
        modes: &[Mode],
    ) -> (Allocation, Vec<f64>) {
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        self.fill_soa(&soa, modes, &mut scratch)
    }

    /// As [`Self::fill_with_prices`], but through a prebuilt
    /// [`SoaProblem`] view and a reusable [`FillScratch`] — the zero-
    /// allocation hot path the greedy allocator's `Q(c)` evaluations
    /// run on. Bit-identical to the one-shot entry points (it *is*
    /// their implementation).
    ///
    /// # Panics
    ///
    /// Panics if `modes.len()` differs from the problem's user count.
    pub fn fill_soa(
        &self,
        soa: &SoaProblem,
        modes: &[Mode],
        scratch: &mut FillScratch,
    ) -> (Allocation, Vec<f64>) {
        assert_eq!(modes.len(), soa.num_users(), "mode vector size mismatch");
        let mut allocations = vec![UserAllocation::idle(); soa.num_users()];
        let mut lambdas = vec![0.0; soa.num_fbss() + 1];
        for (budget, lambda) in lambdas.iter_mut().enumerate() {
            *lambda = self.fill_budget(soa, modes, budget, scratch);
            for (k, j) in scratch.idx.iter().enumerate() {
                allocations[*j] = member_allocation(budget, scratch.shares[k]);
            }
        }
        (Allocation::new(allocations), lambdas)
    }

    /// Fills one budget constraint at `modes` — budget 0 is the MBS,
    /// budget `1 + i` is FBS `i` — leaving its members (ascending user
    /// order, exactly as the array-of-structs filter visited them) and
    /// their shares in `scratch`; returns the water level λ. A budget's
    /// fill reads nothing but its own members, which is what lets
    /// [`DeltaFill`] refill budgets one at a time.
    fn fill_budget(
        &self,
        soa: &SoaProblem,
        modes: &[Mode],
        budget: usize,
        scratch: &mut FillScratch,
    ) -> f64 {
        scratch.clear();
        if budget == 0 {
            for (j, mode) in modes.iter().enumerate() {
                if *mode == Mode::Mbs {
                    scratch.push(j, soa.s_mbs(j), soa.w(j), soa.r_mbs(j));
                }
            }
        } else {
            // CSR groups are ascending, so member order again matches
            // the filter.
            for &j in soa.users_of(budget - 1) {
                if modes[j] == Mode::Fbs {
                    scratch.push(j, soa.s_fbs(j), soa.w(j), soa.fbs_rate(j));
                }
            }
        }
        self.fill_constraint(scratch)
    }

    /// Solves one budget over the members gathered in `scratch`:
    /// returns λ and leaves the shares (`Σ ≤ 1`) in `scratch.shares`.
    ///
    /// Bit-identical to a plain `bisection_iters`-step bisection that
    /// sums every member at every midpoint, through two cuts:
    ///
    /// - *Zero-share pruning.* The computed share
    ///   `clamp(s/λ − w/c, 0, 1)` never increases with λ (correctly
    ///   rounded division, subtraction and clamp are all monotone), and
    ///   `lo` only rises, so a member whose share is `0.0` at `lo` is
    ///   `0.0` at every later midpoint. Such members leave
    ///   `scratch.active`; the in-order sum of the rest is the same
    ///   (`x + 0.0 = x`, and the `> 1.0` test ignores the sign of zero).
    /// - *Fixed-point exit.* `Σ(lo) > 1` and `Σ(hi) ≤ 1` hold throughout,
    ///   so once the midpoint rounds to `lo` or `hi` no remaining step
    ///   can move `hi`, the returned level.
    fn fill_constraint(&self, scratch: &mut FillScratch) -> f64 {
        // Users that cannot benefit (zero rate or success) always get 0
        // — the `effective` mask was computed at push time.
        fn shares_into(scratch: &mut FillScratch, lambda: f64) {
            scratch.shares.clear();
            for k in 0..scratch.idx.len() {
                scratch.shares.push(if !scratch.effective[k] {
                    0.0
                } else {
                    lagrangian::best_share(scratch.s[k], lambda, scratch.w[k], scratch.c[k])
                });
            }
        }

        let n_eff = scratch.effective.iter().filter(|e| **e).count();
        if n_eff == 0 {
            scratch.shares.clear();
            scratch.shares.resize(scratch.len(), 0.0);
            return 0.0;
        }
        if n_eff == 1 {
            // A single beneficiary takes the whole budget (λ = 0 cap).
            shares_into(scratch, 0.0);
            return 0.0;
        }
        // λ_hi: every share hits zero.
        let mut lambda_hi = f64::MIN_POSITIVE;
        for k in 0..scratch.len() {
            if scratch.effective[k] {
                lambda_hi = lambda_hi.max(scratch.s[k] * scratch.c[k] / scratch.w[k]);
            }
        }
        let lambda_hi = lambda_hi * (1.0 + 1e-9);
        // At λ→0 all effective shares are 1, so the sum is n_eff ≥ 2 > 1:
        // the budget binds and bisection is well-posed.
        let mut lo = 0.0;
        let mut hi = lambda_hi;
        scratch.active.clear();
        scratch
            .active
            .extend((0..scratch.len()).filter(|&k| scratch.effective[k]));
        for _ in 0..self.bisection_iters {
            let mid = 0.5 * (lo + hi);
            if mid == lo || mid == hi {
                break;
            }
            // `shares` is aligned with `active` until the final fill.
            scratch.shares.clear();
            for &k in &scratch.active {
                scratch.shares.push(lagrangian::best_share(
                    scratch.s[k],
                    mid,
                    scratch.w[k],
                    scratch.c[k],
                ));
            }
            if scratch.shares.iter().sum::<f64>() > 1.0 {
                lo = mid;
                let mut shares = scratch.shares.iter();
                scratch
                    .active
                    .retain(|_| *shares.next().expect("aligned") != 0.0);
            } else {
                hi = mid;
            }
        }
        // `hi` is on the feasible side (Σ ≤ 1).
        shares_into(scratch, hi);
        hi
    }
}

/// Myopic initial modes: each user's better branch when it has the
/// whole slot for free.
fn myopic_modes(problem: &SlotProblem) -> Vec<Mode> {
    problem
        .users()
        .iter()
        .enumerate()
        .map(|(j, u)| {
            let v_mbs = lagrangian::branch_value(u.success_mbs(), 0.0, u.w(), u.r_mbs(), 1.0);
            let v_fbs =
                lagrangian::branch_value(u.success_fbs(), 0.0, u.w(), problem.fbs_rate(j), 1.0);
            if v_mbs > v_fbs {
                Mode::Mbs
            } else {
                Mode::Fbs
            }
        })
        .collect()
}

/// Best-response modes at the water levels `lambdas` (Table I step 4).
fn best_response(problem: &SlotProblem, lambdas: &[f64]) -> Vec<Mode> {
    problem
        .users()
        .iter()
        .map(|u| {
            let sol =
                lagrangian::solve_user(u, problem.g(u.fbs()), lambdas[0], lambdas[1 + u.fbs().0]);
            sol.allocation.mode
        })
        .collect()
}

/// A member's allocation in budget `budget` (0 = MBS, else an FBS).
fn member_allocation(budget: usize, share: f64) -> UserAllocation {
    if budget == 0 {
        UserAllocation::mbs(share)
    } else {
        UserAllocation::fbs(share)
    }
}

/// The exact fill of one mode vector (its modes are those of the
/// fill), kept with its per-user objective terms so a mode move
/// re-solves only the budgets whose membership it changes.
///
/// Bit-identical to a full [`WaterfillingSolver::fill_soa`] of the
/// moved modes by construction: each budget's fill depends only on its
/// members, gathered in the same ascending order, so untouched budgets
/// keep exactly the shares a full refill would recompute; and the score
/// is the in-order sum of the same per-user terms
/// [`SlotProblem::objective`] sums.
struct DeltaFill<'a> {
    solver: &'a WaterfillingSolver,
    soa: &'a SoaProblem,
    scratch: &'a mut FillScratch,
    modes: Vec<Mode>,
    allocs: Vec<UserAllocation>,
    terms: Vec<f64>,
    /// Budgets the pending move touches.
    budgets: Vec<usize>,
    /// The pending move's refilled members: user, new allocation, and
    /// the term it overwrote.
    changed: Vec<(usize, UserAllocation, f64)>,
}

impl<'a> DeltaFill<'a> {
    /// Wraps `allocs`, which must be the fill of its own modes.
    fn new(
        solver: &'a WaterfillingSolver,
        soa: &'a SoaProblem,
        scratch: &'a mut FillScratch,
        allocs: Vec<UserAllocation>,
    ) -> Self {
        let modes = allocs.iter().map(|a| a.mode).collect();
        let terms = allocs
            .iter()
            .enumerate()
            .map(|(j, a)| soa.user_objective(j, a))
            .collect();
        Self {
            solver,
            soa,
            scratch,
            modes,
            allocs,
            terms,
            budgets: Vec::with_capacity(3),
            changed: Vec::new(),
        }
    }

    /// Flips the modes of `movers`, refills the budgets that changes,
    /// and returns the objective of the result. A refilled member whose
    /// allocation keeps its exact bits keeps its term and is not
    /// re-scored. Must be followed by [`Self::commit`] or
    /// [`Self::revert`].
    fn try_move(&mut self, movers: &[usize]) -> f64 {
        self.budgets.clear();
        self.budgets.push(0);
        for &j in movers {
            self.modes[j] = flip(self.modes[j]);
            let budget = 1 + self.soa.fbs(j).0;
            if !self.budgets.contains(&budget) {
                self.budgets.push(budget);
            }
        }
        self.changed.clear();
        for &budget in &self.budgets {
            self.solver
                .fill_budget(self.soa, &self.modes, budget, self.scratch);
            for (k, &j) in self.scratch.idx.iter().enumerate() {
                let a = member_allocation(budget, self.scratch.shares[k]);
                if same_bits(&a, &self.allocs[j]) {
                    // The term is a pure function of the allocation.
                    continue;
                }
                let term = std::mem::replace(&mut self.terms[j], self.soa.user_objective(j, &a));
                self.changed.push((j, a, term));
            }
        }
        // User order, exactly as `SlotProblem::objective` sums.
        self.terms.iter().sum()
    }

    /// Keeps the pending move.
    fn commit(&mut self) {
        for &(j, a, _) in &self.changed {
            self.allocs[j] = a;
        }
    }

    /// Undoes the pending move of `movers`.
    fn revert(&mut self, movers: &[usize]) {
        for &(j, _, term) in &self.changed {
            self.terms[j] = term;
        }
        for &j in movers {
            self.modes[j] = flip(self.modes[j]);
        }
    }
}

/// `true` when `a` and `b` are the same allocation down to the bits of
/// both shares.
fn same_bits(a: &UserAllocation, b: &UserAllocation) -> bool {
    a.mode == b.mode
        && a.rho_mbs.to_bits() == b.rho_mbs.to_bits()
        && a.rho_fbs.to_bits() == b.rho_fbs.to_bits()
}

fn flip(mode: Mode) -> Mode {
    match mode {
        Mode::Mbs => Mode::Fbs,
        Mode::Fbs => Mode::Mbs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::UserState;
    use fcr_net::node::FbsId;
    use proptest::prelude::*;

    fn user(w: f64, s0: f64, s1: f64) -> UserState {
        UserState::new(w, FbsId(0), 0.72, 0.72, s0, s1).unwrap()
    }

    fn paper_like_problem() -> SlotProblem {
        SlotProblem::single_fbs(
            vec![
                user(30.2, 0.9, 0.85),
                user(27.6, 0.8, 0.9),
                user(28.8, 0.85, 0.8),
            ],
            3.0,
        )
        .unwrap()
    }

    #[test]
    fn solution_is_feasible_and_modes_binary() {
        let p = paper_like_problem();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(p.is_feasible(&alloc, 1e-9));
        for u in alloc.users() {
            assert!(u.rho_mbs == 0.0 || u.rho_fbs == 0.0, "Theorem 1 binariness");
        }
    }

    #[test]
    fn binding_budgets_are_filled_exactly() {
        // All three users prefer the FBS (G=3 makes it 3× the rate), so
        // the FBS budget must bind at 1.
        let p = paper_like_problem();
        let solver = WaterfillingSolver::new();
        let alloc = solver.solve(&p);
        let fbs_load = alloc.fbs_load(FbsId(0), &p.fbs_of());
        let mbs_load = alloc.mbs_load();
        assert!(
            (fbs_load - 1.0).abs() < 1e-6 || (mbs_load - 1.0).abs() < 1e-6,
            "at least one budget binds: fbs={fbs_load} mbs={mbs_load}"
        );
    }

    #[test]
    fn single_user_takes_the_whole_slot() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.8)], 3.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        // One user, one budget each side: whichever mode wins gets ρ=1.
        assert!((alloc.user(0).rho() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beats_every_grid_allocation_two_users() {
        // Exhaustive grid over modes × shares for K=2 confirms global
        // optimality of the water-filling + flip solution.
        let p = SlotProblem::single_fbs(vec![user(30.2, 0.9, 0.7), user(27.6, 0.6, 0.95)], 2.5)
            .unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        let best = p.objective(&alloc);
        let grid = 40;
        for m1 in [Mode::Mbs, Mode::Fbs] {
            for m2 in [Mode::Mbs, Mode::Fbs] {
                for a in 0..=grid {
                    for b in 0..=grid {
                        let r1 = a as f64 / grid as f64;
                        let r2 = b as f64 / grid as f64;
                        // Respect each budget.
                        let mbs_sum = f64::from(u8::from(m1 == Mode::Mbs)) * r1
                            + f64::from(u8::from(m2 == Mode::Mbs)) * r2;
                        let fbs_sum = f64::from(u8::from(m1 == Mode::Fbs)) * r1
                            + f64::from(u8::from(m2 == Mode::Fbs)) * r2;
                        if mbs_sum > 1.0 || fbs_sum > 1.0 {
                            continue;
                        }
                        let mk = |m: Mode, r: f64| match m {
                            Mode::Mbs => UserAllocation::mbs(r),
                            Mode::Fbs => UserAllocation::fbs(r),
                        };
                        let candidate = Allocation::new(vec![mk(m1, r1), mk(m2, r2)]);
                        let v = p.objective(&candidate);
                        assert!(
                            v <= best + 1e-6,
                            "grid point ({m1},{r1})/({m2},{r2}) = {v} beats solver {best}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_g_sends_everyone_to_the_mbs() {
        let p =
            SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.9), user(28.0, 0.9, 0.9)], 0.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        for u in alloc.users() {
            assert_eq!(u.mode, Mode::Mbs, "G=0 makes the FBS worthless");
        }
        assert!((alloc.mbs_load() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn large_g_pulls_everyone_to_the_fbs() {
        let p = SlotProblem::single_fbs(vec![user(30.0, 0.9, 0.9), user(28.0, 0.9, 0.9)], 50.0)
            .unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        for u in alloc.users() {
            assert_eq!(u.mode, Mode::Fbs);
        }
    }

    #[test]
    fn multi_fbs_budgets_are_independent() {
        let users = vec![
            UserState::new(30.0, FbsId(0), 0.72, 0.72, 0.2, 0.9).unwrap(),
            UserState::new(29.0, FbsId(0), 0.72, 0.72, 0.2, 0.9).unwrap(),
            UserState::new(28.0, FbsId(1), 0.72, 0.72, 0.2, 0.9).unwrap(),
        ];
        let p = SlotProblem::new(users, vec![3.0, 3.0]).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(p.is_feasible(&alloc, 1e-9));
        let fbs_of = p.fbs_of();
        // Low MBS success pushes all users to their FBSs; the lone user
        // of FBS 1 takes its whole budget.
        assert!((alloc.fbs_load(FbsId(1), &fbs_of) - 1.0).abs() < 1e-6);
        assert!((alloc.fbs_load(FbsId(0), &fbs_of) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn proportional_fairness_favors_low_w_users() {
        // Identical users except current quality: the lagging user gets
        // the larger share (log utility's diminishing returns). MBS
        // success is zero so both users compete for the same FBS budget.
        let p =
            SlotProblem::single_fbs(vec![user(36.0, 0.0, 0.9), user(28.0, 0.0, 0.9)], 3.0).unwrap();
        let alloc = WaterfillingSolver::new().solve(&p);
        assert!(alloc.user(1).rho() > alloc.user(0).rho());
    }

    #[test]
    fn exact_mode_search_matches_the_heuristic_on_easy_instances() {
        // On the paper-like instance the heuristic already finds the
        // optimum; the exact path must agree and stay feasible.
        let p = paper_like_problem();
        let heuristic = WaterfillingSolver::new().solve(&p);
        let exact = WaterfillingSolver::exact_up_to(3).solve(&p);
        assert!(p.is_feasible(&exact, 1e-9));
        assert!((p.objective(&exact) - p.objective(&heuristic)).abs() < 1e-9);
    }

    #[test]
    fn exact_path_only_engages_below_its_limit() {
        // limit 2 < 3 users ⇒ the heuristic path runs; identical config
        // apart from the limit must reproduce the default solve.
        let p = paper_like_problem();
        let a = WaterfillingSolver::exact_up_to(2).solve(&p);
        let b = WaterfillingSolver::new().solve(&p);
        assert_eq!(p.objective(&a).to_bits(), p.objective(&b).to_bits());
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // One scratch threaded across many fills (the solve/greedy hot
        // path) must leave no residue between constraints: every fill
        // matches a fill through a brand-new scratch bit for bit.
        let users = vec![
            UserState::new(30.0, FbsId(1), 0.72, 0.70, 0.3, 0.9).unwrap(),
            UserState::new(29.0, FbsId(0), 0.71, 0.69, 0.4, 0.8).unwrap(),
            UserState::new(28.0, FbsId(1), 0.70, 0.68, 0.5, 0.7).unwrap(),
            UserState::new(27.0, FbsId(0), 0.69, 0.67, 0.6, 0.6).unwrap(),
        ];
        let p = SlotProblem::new(users, vec![3.0, 2.0]).unwrap();
        let soa = SoaProblem::from_problem(&p);
        let solver = WaterfillingSolver::new();
        let mut reused = FillScratch::new();
        for bits in 0..16u32 {
            let modes: Vec<Mode> = (0..4)
                .map(|j| {
                    if bits >> j & 1 == 1 {
                        Mode::Fbs
                    } else {
                        Mode::Mbs
                    }
                })
                .collect();
            let a = solver.fill_soa(&soa, &modes, &mut reused);
            let b = solver.fill_soa(&soa, &modes, &mut FillScratch::new());
            assert_eq!(a, b, "residue at mode bits {bits:#06b}");
            let c = solver.fill_with_prices(&p, &modes);
            assert_eq!(a, c, "one-shot entry point diverged at {bits:#06b}");
        }
    }

    /// The full-refill polish the delta-evaluated one replaced, kept as
    /// the bit-identity reference: every candidate is a fresh fill of
    /// the whole mode vector, scored by [`SlotProblem::objective`].
    fn polish_reference(
        solver: &WaterfillingSolver,
        problem: &SlotProblem,
        allocation: Allocation,
    ) -> Allocation {
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let mut best_value = problem.objective(&allocation);
        let mut best = allocation;
        let mut modes: Vec<Mode> = best.users().iter().map(|u| u.mode).collect();
        let mut improved = true;
        let mut passes = 0;
        while improved && passes < solver.max_rounds {
            improved = false;
            passes += 1;
            for j in 0..problem.num_users() {
                let old = modes[j];
                modes[j] = flip(old);
                let candidate = solver.fill_soa(&soa, &modes, &mut scratch).0;
                let value = problem.objective(&candidate);
                if value > best_value + 1e-12 {
                    best_value = value;
                    best = candidate;
                    improved = true;
                } else {
                    modes[j] = old;
                }
            }
            if !improved && problem.num_users() <= solver.swap_users_up_to {
                'swaps: for j in 0..problem.num_users() {
                    for k in (j + 1)..problem.num_users() {
                        if modes[j] == modes[k] {
                            continue;
                        }
                        modes.swap(j, k);
                        let candidate = solver.fill_soa(&soa, &modes, &mut scratch).0;
                        let value = problem.objective(&candidate);
                        if value > best_value + 1e-12 {
                            best_value = value;
                            best = candidate;
                            improved = true;
                            break 'swaps;
                        }
                        modes.swap(j, k);
                    }
                }
            }
        }
        best
    }

    /// The mode iteration the cycle exit replaced, kept as the
    /// bit-identity reference: `max_rounds` rounds that each refill
    /// their mode vector (round 0 refills the myopic one), stopping
    /// early only on a fixed point. Returns the best fill, its objective
    /// and the number of rounds run.
    fn iterate_modes_reference(
        solver: &WaterfillingSolver,
        problem: &SlotProblem,
    ) -> (Allocation, f64, usize) {
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        let mut modes = myopic_modes(problem);
        let mut best = solver.fill_soa(&soa, &modes, &mut scratch).0;
        let mut best_value = problem.objective(&best);
        let mut rounds = 0;
        for _ in 0..solver.max_rounds {
            rounds += 1;
            let (alloc, lambdas) = solver.fill_soa(&soa, &modes, &mut scratch);
            let value = problem.objective(&alloc);
            if value > best_value {
                best_value = value;
                best = alloc;
            }
            let new_modes = best_response(problem, &lambdas);
            if new_modes == modes {
                break;
            }
            modes = new_modes;
        }
        (best, best_value, rounds)
    }

    /// [`WaterfillingSolver::solve`] over the reference mode iteration.
    fn solve_reference(solver: &WaterfillingSolver, problem: &SlotProblem) -> Allocation {
        let (best, best_value, _) = iterate_modes_reference(solver, problem);
        let soa = SoaProblem::from_problem(problem);
        let mut scratch = FillScratch::new();
        solver
            .polish_fill(&soa, &mut scratch, &best, best_value)
            .unwrap_or(best)
    }

    /// Asserts the cycle-exit iteration and solve match the reference
    /// bit for bit; returns the vectors the new loop filled and the
    /// reference's round count.
    fn assert_solve_matches_reference(
        solver: &WaterfillingSolver,
        p: &SlotProblem,
    ) -> (Vec<Vec<Mode>>, usize) {
        let soa = SoaProblem::from_problem(p);
        let (best, value, seen) = solver.iterate_modes(p, &soa, &mut FillScratch::new());
        let (ref_best, ref_value, rounds) = iterate_modes_reference(solver, p);
        assert_eq!(best, ref_best);
        assert_eq!(value.to_bits(), ref_value.to_bits());
        assert!(seen.len() <= rounds.max(1));
        let solved = solver.solve(p);
        let reference = solve_reference(solver, p);
        assert_eq!(solved, reference);
        assert_eq!(
            p.objective(&solved).to_bits(),
            p.objective(&reference).to_bits()
        );
        (seen, rounds)
    }

    #[test]
    fn cycle_exit_stops_early_where_the_reference_exhausts_its_rounds() {
        // Cluster 0 of the N = 1000 generator at seed 101 (4 FBSs on a
        // path, 2 users each) with channels 0 and 1 on FBSs 0 and 2: the
        // best response enters a 3-cycle, which the old `new == modes`
        // test never sees, so the reference runs all 16 rounds.
        let g = 1.4621445862852256;
        let users = vec![
            UserState::new(
                29.37221275163061,
                FbsId(0),
                0.72,
                0.72,
                0.10263463404652333,
                0.9451163373350566,
            ),
            UserState::new(
                26.46960969145926,
                FbsId(0),
                0.72,
                0.72,
                0.30519001269600315,
                0.8068806173874076,
            ),
            UserState::new(
                31.24374237937473,
                FbsId(1),
                0.72,
                0.72,
                0.21820288885403086,
                0.8051229982259389,
            ),
            UserState::new(
                32.75505169666919,
                FbsId(1),
                0.72,
                0.72,
                0.23818153055004157,
                0.7627852457240083,
            ),
            UserState::new(
                23.394818769496347,
                FbsId(2),
                0.72,
                0.72,
                0.16631789387709112,
                0.832921765330034,
            ),
            UserState::new(
                31.44549338034495,
                FbsId(2),
                0.72,
                0.72,
                0.3376078642569311,
                0.8555891703710867,
            ),
            UserState::new(
                23.546419915730343,
                FbsId(3),
                0.72,
                0.72,
                0.24028554509383154,
                0.9339404838361169,
            ),
            UserState::new(
                22.280791546232546,
                FbsId(3),
                0.72,
                0.72,
                0.2890412269114029,
                0.7274573971888896,
            ),
        ]
        .into_iter()
        .map(Result::unwrap)
        .collect();
        let p = SlotProblem::new(users, vec![g, 0.0, g, 0.0]).unwrap();
        let solver = WaterfillingSolver::new();
        let (seen, rounds) = assert_solve_matches_reference(&solver, &p);
        assert_eq!(rounds, solver.max_rounds, "reference exhausts its rounds");
        assert_eq!(seen.len(), 3, "cycle exit fills the 3-cycle once");
    }

    /// The bisection the zero-share pruning and fixed-point exit
    /// replaced, kept as the bit-identity reference: every member is
    /// summed at every one of the `iters` midpoints.
    fn fill_constraint_reference(iters: usize, scratch: &mut FillScratch) -> f64 {
        fn shares_into(scratch: &mut FillScratch, lambda: f64) {
            scratch.shares.clear();
            for k in 0..scratch.idx.len() {
                scratch.shares.push(if !scratch.effective[k] {
                    0.0
                } else {
                    lagrangian::best_share(scratch.s[k], lambda, scratch.w[k], scratch.c[k])
                });
            }
        }
        let n_eff = scratch.effective.iter().filter(|e| **e).count();
        if n_eff == 0 {
            scratch.shares.clear();
            scratch.shares.resize(scratch.len(), 0.0);
            return 0.0;
        }
        if n_eff == 1 {
            shares_into(scratch, 0.0);
            return 0.0;
        }
        let mut lambda_hi = f64::MIN_POSITIVE;
        for k in 0..scratch.len() {
            if scratch.effective[k] {
                lambda_hi = lambda_hi.max(scratch.s[k] * scratch.c[k] / scratch.w[k]);
            }
        }
        let lambda_hi = lambda_hi * (1.0 + 1e-9);
        let mut lo = 0.0;
        let mut hi = lambda_hi;
        for _ in 0..iters {
            let mid = 0.5 * (lo + hi);
            shares_into(scratch, mid);
            if scratch.shares.iter().sum::<f64>() > 1.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        shares_into(scratch, hi);
        hi
    }

    /// Fills `(s, w, c)` members both ways and compares λ and every
    /// share bit for bit.
    fn assert_fill_matches_reference(iters: usize, members: &[(f64, f64, f64)]) {
        let solver = WaterfillingSolver {
            bisection_iters: iters,
            ..WaterfillingSolver::new()
        };
        let mut pruned = FillScratch::new();
        let mut plain = FillScratch::new();
        for (j, &(s, w, c)) in members.iter().enumerate() {
            pruned.push(j, s, w, c);
            plain.push(j, s, w, c);
        }
        let lambda = solver.fill_constraint(&mut pruned);
        let reference = fill_constraint_reference(iters, &mut plain);
        assert_eq!(lambda.to_bits(), reference.to_bits(), "λ over {members:?}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&pruned.shares),
            bits(&plain.shares),
            "shares over {members:?}"
        );
    }

    #[test]
    fn pruned_bisection_matches_the_plain_one_on_edge_cases() {
        let a = (0.9, 30.0, 0.72);
        let b = (0.2, 25.0, 2.1);
        let zero_rate = (0.8, 28.0, 0.0);
        let zero_success = (0.0, 28.0, 0.72);
        for members in [
            // n_eff = 0, including a `G = 0` FBS budget (every rate 0).
            vec![],
            vec![zero_rate, zero_success],
            vec![(0.9, 30.0, 0.0), (0.8, 25.0, 0.0), (0.7, 22.0, 0.0)],
            // n_eff = 1.
            vec![a],
            vec![zero_rate, a, zero_success],
            // n_eff = 2.
            vec![a, b],
            vec![zero_success, a, zero_rate, b],
            // Identical members, and one member that dominates the rest.
            vec![a; 7],
            vec![
                (1.0, 5.0, 6.0),
                (0.1, 40.0, 0.1),
                (0.1, 39.0, 0.1),
                zero_rate,
            ],
        ] {
            for iters in [0, 1, 2, 30, 60, 200] {
                assert_fill_matches_reference(iters, &members);
            }
        }
    }

    #[test]
    fn pruned_bisection_matches_the_plain_one_on_an_n1000_sized_mbs_group() {
        // ~230 MBS members drawn like the N = 1000 generator's users
        // (w in 20..40, MBS success in 0.10..0.40, rate 0.72): only a few
        // keep a nonzero share, so most of them are pruned early.
        let members: Vec<(f64, f64, f64)> = (0..230)
            .map(|j| {
                let x = j as f64;
                (
                    0.10 + (x * 0.618_034) % 0.30,
                    20.0 + (x * 7.31) % 20.0,
                    0.72,
                )
            })
            .collect();
        assert_fill_matches_reference(60, &members);
        let mut scratch = FillScratch::new();
        for (j, &(s, w, c)) in members.iter().enumerate() {
            scratch.push(j, s, w, c);
        }
        WaterfillingSolver::new().fill_constraint(&mut scratch);
        let positive = scratch.shares.iter().filter(|x| **x > 0.0).count();
        assert!(positive < 20, "{positive} members hold a share");
    }

    #[test]
    fn cycle_exit_solve_matches_the_reference_at_scale() {
        let p = scale_problem();
        assert_solve_matches_reference(&WaterfillingSolver::new(), &p);
    }

    fn modes_from_bits(bits: &[bool]) -> Vec<Mode> {
        bits.iter()
            .map(|b| if *b { Mode::Fbs } else { Mode::Mbs })
            .collect()
    }

    /// Several FBSs, some with `G = 0`, and users with occasional zero
    /// rates or success probabilities (ineffective budget members). A
    /// draw of 0 from a `(0..k, value)` pair zeroes the value.
    fn arb_multi_fbs_problem(max_users: usize) -> impl Strategy<Value = SlotProblem> {
        let zeroable = || (0u8..6, 0.05..=1.0f64);
        (
            1usize..=4,
            proptest::collection::vec((0u8..3, 0.2..6.0f64), 4),
            proptest::collection::vec(
                (
                    5.0..50.0f64,
                    0usize..4,
                    zeroable(),
                    zeroable(),
                    zeroable(),
                    zeroable(),
                ),
                1..=max_users,
            ),
        )
            .prop_map(|(n_fbss, g, users)| {
                let value = |(k, x): (u8, f64)| if k == 0 { 0.0 } else { x };
                let g = g[..n_fbss].iter().map(|&draw| value(draw)).collect();
                let users = users
                    .into_iter()
                    .map(|(w, f, r0, r1, s0, s1)| {
                        UserState::new(
                            w,
                            FbsId(f % n_fbss),
                            value(r0),
                            value(r1),
                            value(s0),
                            value(s1),
                        )
                        .unwrap()
                    })
                    .collect();
                SlotProblem::new(users, g).unwrap()
            })
    }

    fn assert_polish_matches_reference(
        solver: &WaterfillingSolver,
        p: &SlotProblem,
        input: &Allocation,
    ) -> Allocation {
        let delta = solver.polish(p, input.clone());
        let reference = polish_reference(solver, p, input.clone());
        assert_eq!(delta, reference);
        assert_eq!(
            p.objective(&delta).to_bits(),
            p.objective(&reference).to_bits()
        );
        delta
    }

    /// 200 users over 25 FBSs, every fifth with `G = 0`: large budget
    /// groups, many zero shares, and long mode iterations.
    fn scale_problem() -> SlotProblem {
        let users: Vec<UserState> = (0..200)
            .map(|j| {
                let x = j as f64;
                UserState::new(
                    10.0 + (x * 7.3) % 35.0,
                    FbsId(j % 25),
                    0.3 + (x * 0.37) % 0.6,
                    0.2 + (x * 0.53) % 0.7,
                    0.5 + (x * 0.11) % 0.5,
                    0.4 + (x * 0.29) % 0.6,
                )
                .unwrap()
            })
            .collect();
        let g = (0..25)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    1.0 + (i % 4) as f64
                }
            })
            .collect();
        SlotProblem::new(users, g).unwrap()
    }

    #[test]
    fn every_flip_candidate_at_scale_scores_like_a_full_refill() {
        // In large groups a flip moves the water level only slightly, so
        // most members keep their allocation bit for bit and a few shift
        // by tiny amounts: every score must still equal a full refill's.
        let p = scale_problem();
        let solver = WaterfillingSolver::new();
        let soa = SoaProblem::from_problem(&p);
        let mut scratch = FillScratch::new();
        let start = solver.solve(&p);
        let mut fill = DeltaFill::new(&solver, &soa, &mut scratch, start.users().to_vec());
        for j in 0..p.num_users() {
            let value = fill.try_move(&[j]);
            let full = solver.fill_given_modes(&p, &fill.modes);
            assert_eq!(value.to_bits(), p.objective(&full).to_bits(), "flip {j}");
            fill.revert(&[j]);
        }
    }

    #[test]
    fn a_flip_that_nudges_shares_rescores_every_nudged_member() {
        // Ten like MBS members near 0.1 each and one at ~0.001: moving
        // the small one to its worthless FBS (G = 0) shifts the other
        // ten shares by ~1e-4, each of which must be re-scored.
        let mut users = vec![UserState::new(20.0, FbsId(0), 1.0, 1.0, 0.5, 0.5).unwrap(); 10];
        users.push(UserState::new(20.0989, FbsId(0), 1.0, 1.0, 0.5, 0.5).unwrap());
        let p = SlotProblem::new(users, vec![0.0]).unwrap();
        let solver = WaterfillingSolver::new();
        let soa = SoaProblem::from_problem(&p);
        let mut scratch = FillScratch::new();
        let start = solver.fill_given_modes(&p, &[Mode::Mbs; 11]);
        let mut fill = DeltaFill::new(&solver, &soa, &mut scratch, start.users().to_vec());
        let value = fill.try_move(&[10]);
        let full = solver.fill_given_modes(&p, &fill.modes);
        assert_eq!(value.to_bits(), p.objective(&full).to_bits());
        let nudge = full.user(0).rho_mbs - start.user(0).rho_mbs;
        assert!(nudge > 0.0 && nudge < 1e-3, "nudge {nudge}");
    }

    #[test]
    fn delta_polish_matches_the_reference_at_scale_with_many_accepted_flips() {
        // The scale instance started from the solved modes with every
        // 7th flipped: the delta path must walk the reference's
        // accept/reject sequence exactly.
        let p = scale_problem();
        let solver = WaterfillingSolver::new();
        let mut modes: Vec<Mode> = solver.solve(&p).users().iter().map(|u| u.mode).collect();
        for j in (0..modes.len()).step_by(7) {
            modes[j] = flip(modes[j]);
        }
        let start = solver.fill_given_modes(&p, &modes);
        let polished = assert_polish_matches_reference(&solver, &p, &start);
        assert!(
            p.objective(&polished) > p.objective(&start),
            "flips were accepted"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Delta-evaluated polish ≡ full-refill polish, bit for bit, from
        /// fills of random modes (flips and swaps get accepted), from
        /// non-fill inputs, and with `n` on both sides of the swap cap.
        #[test]
        fn delta_polish_is_bit_identical_to_full_refill_polish(
            p in arb_multi_fbs_problem(12),
            bits in proptest::collection::vec(proptest::bool::ANY, 12),
            swap_cap in 0usize..=12,
            input_kind in 0u8..3,
        ) {
            let solver = WaterfillingSolver { swap_users_up_to: swap_cap, ..WaterfillingSolver::new() };
            let modes = modes_from_bits(&bits[..p.num_users()]);
            let fill = solver.fill_given_modes(&p, &modes);
            let soa = SoaProblem::from_problem(&p);
            let input = match input_kind {
                0 => fill,
                // Half of every fill share: feasible, not a fill.
                1 => Allocation::new(
                    fill.users()
                        .iter()
                        .map(|a| match a.mode {
                            Mode::Mbs => UserAllocation::mbs(0.5 * a.rho_mbs),
                            Mode::Fbs => UserAllocation::fbs(0.5 * a.rho_fbs),
                        })
                        .collect(),
                ),
                // Every user at a full share on its better branch: no
                // fill can beat it, so polish must hand it back as is.
                _ => Allocation::new(
                    (0..p.num_users())
                        .map(|j| {
                            let (mbs, fbs) = (UserAllocation::mbs(1.0), UserAllocation::fbs(1.0));
                            if soa.user_objective(j, &mbs) >= soa.user_objective(j, &fbs) {
                                mbs
                            } else {
                                fbs
                            }
                        })
                        .collect(),
                ),
            };
            let polished = assert_polish_matches_reference(&solver, &p, &input);
            match input_kind {
                // The fill fast path (solve and the dual's recovery)
                // takes the same walk.
                0 => {
                    let mut scratch = FillScratch::new();
                    let value = p.objective(&input);
                    let via_fill = solver.polish_fill(&soa, &mut scratch, &input, value);
                    prop_assert_eq!(via_fill.unwrap_or(input), polished);
                }
                2 => prop_assert_eq!(polished, input),
                _ => {}
            }
        }

        /// Every delta-scored candidate — single flips and two-user
        /// moves, committed or reverted — carries the exact bits of a
        /// full refill scored by `SlotProblem::objective`.
        #[test]
        fn delta_candidates_score_bit_identically_to_full_refills(
            p in arb_multi_fbs_problem(10),
            bits in proptest::collection::vec(proptest::bool::ANY, 10),
            commits in proptest::collection::vec(proptest::bool::ANY, 20),
        ) {
            let solver = WaterfillingSolver::new();
            let soa = SoaProblem::from_problem(&p);
            let mut scratch = FillScratch::new();
            let n = p.num_users();
            let start = solver.fill_given_modes(&p, &modes_from_bits(&bits[..n]));
            let mut fill = DeltaFill::new(&solver, &soa, &mut scratch, start.users().to_vec());
            for (step, commit) in commits.iter().enumerate() {
                let (j, k) = (step % n, (step + 1) % n);
                let movers = if step % 2 == 0 || j == k { vec![j] } else { vec![j, k] };
                let value = fill.try_move(&movers);
                let full = solver.fill_given_modes(&p, &fill.modes);
                prop_assert_eq!(value.to_bits(), p.objective(&full).to_bits());
                if *commit {
                    fill.commit();
                    prop_assert_eq!(&fill.allocs[..], full.users());
                } else {
                    fill.revert(&movers);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Cycle-exit solve ≡ the full-round loop, bit for bit, for every
        /// round budget from none to the default.
        #[test]
        fn cycle_exit_solve_is_bit_identical_to_the_full_round_loop(
            p in arb_multi_fbs_problem(12),
            max_rounds in 0usize..=16,
        ) {
            let solver = WaterfillingSolver { max_rounds, ..WaterfillingSolver::new() };
            assert_solve_matches_reference(&solver, &p);
        }

        /// Pruned, early-exiting bisection ≡ the plain one: λ and every
        /// share bit for bit, members with zero rate or success included.
        #[test]
        fn pruned_bisection_is_bit_identical_to_the_plain_one(
            members in proptest::collection::vec(
                ((0u8..5, 0.01..=1.0f64), 5.0..50.0f64, (0u8..5, 0.05..8.0f64)),
                0..40,
            ),
            iters in 0usize..=80,
        ) {
            let value = |(k, x): (u8, f64)| if k == 0 { 0.0 } else { x };
            let members: Vec<(f64, f64, f64)> = members
                .into_iter()
                .map(|(s, w, c)| (value(s), w, value(c)))
                .collect();
            assert_fill_matches_reference(iters, &members);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The exact enumeration can never lose to the heuristic mode
        /// search — on any generated instance small enough to engage it.
        #[test]
        fn exact_mode_search_never_loses_to_the_heuristic(
            ws in proptest::collection::vec(5.0..50.0f64, 1..4),
            g in 0.0..6.0f64,
            s0 in 0.05..=1.0f64,
            s1 in 0.05..=1.0f64,
        ) {
            let users: Vec<UserState> = ws.iter().map(|w| user(*w, s0, s1)).collect();
            let p = SlotProblem::single_fbs(users, g).unwrap();
            let exact = WaterfillingSolver::exact_up_to(3).solve(&p);
            let heuristic = WaterfillingSolver::new().solve(&p);
            prop_assert!(p.is_feasible(&exact, 1e-9));
            prop_assert!(p.objective(&exact) >= p.objective(&heuristic) - 1e-12);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn always_feasible_and_no_single_flip_improves(
            ws in proptest::collection::vec(5.0..50.0f64, 1..6),
            g in 0.0..6.0f64,
            s0 in 0.05..=1.0f64,
            s1 in 0.05..=1.0f64,
        ) {
            let users: Vec<UserState> = ws
                .iter()
                .map(|w| user(*w, s0, s1))
                .collect();
            let p = SlotProblem::single_fbs(users, g).unwrap();
            let solver = WaterfillingSolver::new();
            let alloc = solver.solve(&p);
            prop_assert!(p.is_feasible(&alloc, 1e-9));
            let value = p.objective(&alloc);
            // Local optimality in mode space: no single flip (with exact
            // refill) improves the objective.
            let modes: Vec<Mode> = alloc.users().iter().map(|u| u.mode).collect();
            for j in 0..modes.len() {
                let mut flipped = modes.clone();
                flipped[j] = match flipped[j] { Mode::Mbs => Mode::Fbs, Mode::Fbs => Mode::Mbs };
                let candidate = solver.fill_given_modes(&p, &flipped);
                prop_assert!(p.objective(&candidate) <= value + 1e-9);
            }
        }
    }
}
