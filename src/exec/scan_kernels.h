// Batched scan kernels shared by the solo executor (exec/executor.cc) and
// the cooperative shared-scan pass (serving/shared_scan.cc). Everything here
// is deterministic by construction: per-aggregate accumulators run in row
// order across batch boundaries, so any batch size — and any caller that
// preserves the (range, partition, batch) decomposition — produces
// bit-identical doubles (see docs/EXECUTION.md).
#pragma once

#include <cstdint>
#include <vector>

#include "exec/materialize.h"
#include "workload/query.h"

namespace coradd::exec {

/// One query resolved against one object: the unique columns each batch must
/// expose, plus predicates and aggregates rewritten as indexes into that
/// column list. Built once per executed plan — the batched kernels below
/// never touch a column name again.
struct ResolvedQuery {
  std::vector<ResolvedColumn> cols;
  /// When every column is stored in the object (the common MV case),
  /// the table-column indexes, and range scans go straight through
  /// ClusteredTable::ScanBatch with no provenance machinery.
  std::vector<int> stored_cols;
  bool all_stored = false;
  std::vector<const Predicate*> preds;
  std::vector<size_t> pred_col;  ///< preds[j] reads cols[pred_col[j]].
  struct Agg {
    int col_a = -1;
    int col_b = -1;  ///< -1 => SUM(col_a); else SUM(col_a * col_b).
  };
  std::vector<Agg> aggs;
};

/// Interns `name` into `cols`, returning its index (existing or appended).
size_t InternColumn(const MaterializedObject& obj, const std::string& name,
                    std::vector<ResolvedColumn>* cols);

ResolvedQuery ResolveQuery(const Query& q, const MaterializedObject& obj);

/// Fills `sel` with the batch-local indexes of rows matching `p`; the
/// predicate type is dispatched once per batch, not once per row. `sel`
/// must hold `n` entries: equality and range filters are branch-free and
/// store every row's index before deciding whether to keep it.
size_t FilterFirst(const int64_t* col, size_t n, const Predicate& p,
                   uint32_t* sel);

/// Compacts `sel` in place to the survivors of `p` — the short circuit:
/// each further predicate only touches rows still selected.
size_t FilterNext(const int64_t* col, const Predicate& p, uint32_t* sel,
                  size_t k);

/// Per-partition partial result: one running sum per aggregate, accumulated
/// in row order across batch boundaries (so batch size never regroups the
/// floating-point additions), combined left-to-right at merge time.
struct PartialAgg {
  std::vector<double> acc;
  uint64_t rows = 0;
};

/// Runs the full predicate chain of `rq` over a batch of `n` rows whose
/// columns are indexed by rq.pred_col. Returns the survivor count in `sel`;
/// when `rq` has no predicates returns `n` and leaves `sel` untouched (the
/// all-rows fast path — callers pass all_rows=true downstream).
size_t FilterBatch(const ResolvedQuery& rq, const ColumnBatch& batch,
                   size_t n, uint32_t* sel);

void AccumulateBatch(const ColumnBatch& batch, const ResolvedQuery& rq,
                     const uint32_t* sel, size_t k, bool all_rows,
                     PartialAgg* pa);

/// Scans one contiguous partition in batches of `batch_rows`.
void AggregateRangePartition(const ResolvedQuery& rq,
                             const MaterializedObject& obj, RowRange part,
                             size_t batch_rows, PartialAgg* pa);

/// Same over a slice of an explicit row-id list (secondary B+Tree fetches).
void AggregateRidPartition(const ResolvedQuery& rq,
                           const MaterializedObject& obj, const RowId* rids,
                           size_t count, size_t batch_rows, PartialAgg* pa);

}  // namespace coradd::exec
