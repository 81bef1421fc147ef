#include "exec/scan_kernels.h"

#include <algorithm>

#include "obs/trace.h"

namespace coradd::exec {

size_t InternColumn(const MaterializedObject& obj, const std::string& name,
                    std::vector<ResolvedColumn>* cols) {
  const ResolvedColumn rc = ResolveColumn(obj, name);
  for (size_t i = 0; i < cols->size(); ++i) {
    if ((*cols)[i].ucol == rc.ucol) return i;
  }
  cols->push_back(rc);
  return cols->size() - 1;
}

ResolvedQuery ResolveQuery(const Query& q, const MaterializedObject& obj) {
  ResolvedQuery rq;
  for (const auto& p : q.predicates) {
    rq.preds.push_back(&p);
    rq.pred_col.push_back(InternColumn(obj, p.column, &rq.cols));
  }
  for (const auto& a : q.aggregates) {
    ResolvedQuery::Agg agg;
    agg.col_a = static_cast<int>(InternColumn(obj, a.col_a, &rq.cols));
    if (!a.col_b.empty()) {
      agg.col_b = static_cast<int>(InternColumn(obj, a.col_b, &rq.cols));
    }
    rq.aggs.push_back(agg);
  }
  rq.all_stored = true;
  for (const ResolvedColumn& c : rq.cols) {
    if (c.table_col < 0) {
      rq.all_stored = false;
      rq.stored_cols.clear();
      break;
    }
    rq.stored_cols.push_back(c.table_col);
  }
  return rq;
}

size_t FilterFirst(const int64_t* col, size_t n, const Predicate& p,
                   uint32_t* sel) {
  // Equality and range loops are branch-free: every row's index is written
  // at the output cursor and the cursor advances by the match bit, so the
  // loop's speed does not depend on selectivity or on branch prediction.
  // sel[k] with k <= i < n is always in bounds for an n-entry `sel`.
  size_t k = 0;
  switch (p.type) {
    case PredicateType::kEquality: {
      const int64_t v = p.value;
      for (size_t i = 0; i < n; ++i) {
        sel[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>(col[i] == v);
      }
      break;
    }
    case PredicateType::kRange: {
      const int64_t lo = p.lo, hi = p.hi;
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = col[i];
        sel[k] = static_cast<uint32_t>(i);
        k += static_cast<size_t>(x >= lo) & static_cast<size_t>(x <= hi);
      }
      break;
    }
    case PredicateType::kIn: {
      const auto& vals = p.in_values;  // sorted
      for (size_t i = 0; i < n; ++i) {
        if (std::binary_search(vals.begin(), vals.end(), col[i])) {
          sel[k++] = static_cast<uint32_t>(i);
        }
      }
      break;
    }
  }
  return k;
}

size_t FilterNext(const int64_t* col, const Predicate& p, uint32_t* sel,
                  size_t k) {
  // Branch-free compaction in place: out <= j, so sel[out] never overwrites
  // an entry that is still to be read.
  size_t out = 0;
  switch (p.type) {
    case PredicateType::kEquality: {
      const int64_t v = p.value;
      for (size_t j = 0; j < k; ++j) {
        const uint32_t r = sel[j];
        sel[out] = r;
        out += static_cast<size_t>(col[r] == v);
      }
      break;
    }
    case PredicateType::kRange: {
      const int64_t lo = p.lo, hi = p.hi;
      for (size_t j = 0; j < k; ++j) {
        const uint32_t r = sel[j];
        const int64_t x = col[r];
        sel[out] = r;
        out += static_cast<size_t>(x >= lo) & static_cast<size_t>(x <= hi);
      }
      break;
    }
    case PredicateType::kIn: {
      const auto& vals = p.in_values;
      for (size_t j = 0; j < k; ++j) {
        if (std::binary_search(vals.begin(), vals.end(), col[sel[j]])) {
          sel[out++] = sel[j];
        }
      }
      break;
    }
  }
  return out;
}

size_t FilterBatch(const ResolvedQuery& rq, const ColumnBatch& batch,
                   size_t n, uint32_t* sel) {
  if (rq.preds.empty()) return n;
  size_t k = FilterFirst(batch.cols[rq.pred_col[0]], n, *rq.preds[0], sel);
  for (size_t j = 1; j < rq.preds.size() && k > 0; ++j) {
    k = FilterNext(batch.cols[rq.pred_col[j]], *rq.preds[j], sel, k);
  }
  return k;
}

void AccumulateBatch(const ColumnBatch& batch, const ResolvedQuery& rq,
                     const uint32_t* sel, size_t k, bool all_rows,
                     PartialAgg* pa) {
  pa->rows += k;
  for (size_t j = 0; j < rq.aggs.size(); ++j) {
    const int64_t* a = batch.cols[static_cast<size_t>(rq.aggs[j].col_a)];
    double s = pa->acc[j];
    if (rq.aggs[j].col_b >= 0) {
      const int64_t* b = batch.cols[static_cast<size_t>(rq.aggs[j].col_b)];
      if (all_rows) {
        for (size_t i = 0; i < k; ++i) {
          s += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        }
      } else {
        for (size_t i = 0; i < k; ++i) {
          s += static_cast<double>(a[sel[i]]) * static_cast<double>(b[sel[i]]);
        }
      }
    } else {
      if (all_rows) {
        for (size_t i = 0; i < k; ++i) s += static_cast<double>(a[i]);
      } else {
        for (size_t i = 0; i < k; ++i) s += static_cast<double>(a[sel[i]]);
      }
    }
    pa->acc[j] = s;
  }
}

void AggregateRangePartition(const ResolvedQuery& rq,
                             const MaterializedObject& obj, RowRange part,
                             size_t batch_rows, PartialAgg* pa) {
  TRACE_SPAN("exec.partition",
             {{"rows", static_cast<int64_t>(part.Size())}});
  pa->acc.assign(rq.aggs.size(), 0.0);
  BatchScratch scratch;
  std::vector<uint32_t> sel(
      std::min<uint64_t>(batch_rows, part.Size()));
  ColumnBatch batch;
  for (uint64_t b = part.begin; b < part.end; b += batch_rows) {
    const RowId begin = static_cast<RowId>(b);
    const RowId end =
        static_cast<RowId>(std::min<uint64_t>(part.end, b + batch_rows));
    if (rq.all_stored) {
      obj.table->ScanBatch(RowRange{begin, end}, rq.stored_cols, &batch);
    } else {
      ScanBatch(obj, RowRange{begin, end}, rq.cols, &scratch, &batch);
    }
    const size_t n = end - begin;
    const bool all_rows = rq.preds.empty();
    const size_t k = FilterBatch(rq, batch, n, sel.data());
    if (k == 0) continue;
    AccumulateBatch(batch, rq, sel.data(), k, all_rows, pa);
  }
}

void AggregateRidPartition(const ResolvedQuery& rq,
                           const MaterializedObject& obj, const RowId* rids,
                           size_t count, size_t batch_rows, PartialAgg* pa) {
  TRACE_SPAN("exec.partition", {{"rows", static_cast<int64_t>(count)}});
  pa->acc.assign(rq.aggs.size(), 0.0);
  BatchScratch scratch;
  std::vector<uint32_t> sel(std::min(batch_rows, count));
  ColumnBatch batch;
  for (size_t b = 0; b < count; b += batch_rows) {
    const size_t n = std::min(batch_rows, count - b);
    GatherBatch(obj, rids + b, n, rq.cols, &scratch, &batch);
    const bool all_rows = rq.preds.empty();
    const size_t k = FilterBatch(rq, batch, n, sel.data());
    if (k == 0) continue;
    AccumulateBatch(batch, rq, sel.data(), k, all_rows, pa);
  }
}

}  // namespace coradd::exec
