// Internal machinery of the parallel branch-and-bound engine: the compiled
// (read-only) form of a SelectionProblem shared by every search task, node
// descriptors, and the bounded depth-first task search.
//
// A node is described *extensionally* as the include/exclude decisions on
// its path from the root; tasks rebuild the node state from the compiled
// root on expansion. That makes suspension trivial (a task that exhausts
// its node budget just returns its remaining stack) and keeps every
// floating-point operation a pure function of (root arrays, decision list)
// — the foundation of the engine's determinism contract (docs/SOLVER.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ilp/selection.h"

namespace coradd {
namespace solver_internal {

/// One entry of a candidate's sparse cost row: query `q` and its weighted
/// cost w_q * costs[q][m].
struct RowEntry {
  double wcost;
  uint32_t q;
};

/// Read-only root compilation of a SelectionProblem. Candidate costs are
/// transposed to pool-major, frequency-weighted sparse rows so the per-node
/// marginal-benefit scan touches only the queries a candidate can improve
/// (the original costs[q][m] layout strides by the full candidate count
/// per access, and most entries of a column can never win).
struct CompiledProblem {
  const SelectionProblem* problem = nullptr;
  size_t nq = 0;

  /// Pool of undecided candidates in static order: root benefit density
  /// descending, candidate id ascending on ties. Forced candidates, those
  /// that cannot fit the budget, and those with no root benefit (marginal
  /// benefit is non-increasing down the tree, so they stay useless) are
  /// excluded up front.
  std::vector<int> pool;                 ///< pool position -> candidate id
  std::vector<uint64_t> pool_sizes;      ///< bytes, aligned with pool
  std::vector<int> pool_group;           ///< SOS1 group id or -1
  std::vector<int> pos_of_candidate;     ///< candidate id -> pool pos or -1
  size_t num_groups = 0;

  /// Sparse weighted cost rows in CSR form: pool position `pos` owns
  /// rows[row_begin[pos] .. row_begin[pos + 1]), ascending in q, holding
  /// exactly the queries whose weighted cost is below root_wcur[q]. A
  /// node's per-query cost never rises above root_wcur, so no other query
  /// can ever contribute to a benefit sum or a per-query minimum; walking
  /// the row in ascending q adds the same terms in the same order as a
  /// dense pass over every query.
  std::vector<size_t> row_begin;         ///< pool.size() + 1 offsets
  std::vector<RowEntry> rows;

  std::span<const RowEntry> Row(size_t pos) const {
    return {rows.data() + row_begin[pos], rows.data() + row_begin[pos + 1]};
  }

  /// Root state: forced candidates applied.
  std::vector<double> root_wcur;         ///< per-query weighted best cost
  double root_total = 0.0;
  uint64_t root_used = 0;
  uint64_t budget = 0;
};

CompiledProblem CompileProblem(const SelectionProblem& problem);

/// Fractional-knapsack entry for the bound computation: a live candidate's
/// marginal benefit and that benefit per byte of its size (at least 1).
struct DensityEntry {
  double density;
  double delta;
  int32_t pos;
};

/// Fractional knapsack over `entries` in `space` bytes: takes entries whole
/// in order of density descending, pool position ascending, then
/// density * space of the first that does not fit. Positions are unique, so
/// the order is strict and total. Entries come off a heap up to that break
/// instead of being sorted (on the benchmark's pools the break comes after
/// 5-10 % of them); the terms and their order are those of a sorted fill,
/// so the sum is bit-identical to it. Reorders `entries`.
double FractionalKnapsack(std::vector<DensityEntry>* entries, uint64_t space,
                          const std::vector<uint64_t>& pool_sizes);

/// A search node: the include/exclude path from the root, in apply order.
/// Entries are pool positions.
struct NodeRef {
  std::vector<int32_t> includes;
  std::vector<int32_t> excludes;
};

/// A feasible solution in compiled coordinates.
struct CompiledSolution {
  double cost = 0.0;                     ///< weighted total (internal space)
  std::vector<int32_t> includes;         ///< pool positions
  bool valid = false;
};

/// Density-greedy incumbent from the root (benefit per byte, SOS1-aware).
CompiledSolution GreedyIncumbent(const CompiledProblem& cp);

/// Evaluates a caller-supplied warm-start hint: applies the listed pool
/// positions in pool order, skipping any that would break the budget or an
/// SOS1 group (deterministic repair). Returns an invalid solution when
/// nothing usable was supplied.
CompiledSolution ApplyWarmHint(const CompiledProblem& cp,
                               const std::vector<int32_t>& positions);

/// Outcome of one bounded task search.
struct TaskResult {
  CompiledSolution best;                 ///< best solution found by the task
  std::vector<NodeRef> suspended;        ///< unexpanded stack, bottom first
  uint64_t nodes = 0;
  uint64_t bound_prunes = 0;
  uint64_t leaf_shortcuts = 0;
  uint64_t incumbent_updates = 0;
};

/// Expands at most `node_budget` nodes of the subtree under `start` in
/// depth-first order, pruning against min(`incumbent_cost`, best found so
/// far) minus the optimality-gap slack max(1e-9, relative_gap * that).
/// Deterministic: depends only on the arguments, never on timing or
/// thread placement.
TaskResult RunSearchTask(const CompiledProblem& cp, NodeRef start,
                         double incumbent_cost, uint64_t node_budget,
                         double relative_gap);

}  // namespace solver_internal
}  // namespace coradd
