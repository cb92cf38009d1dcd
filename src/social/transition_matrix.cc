#include "social/transition_matrix.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "social/propagate_kernels.h"
#if defined(S3_SIMD_AVX2)
#include "social/propagate_avx2.h"
#endif

namespace s3::social {

namespace {

// Runtime kernel dispatch: the AVX2 TU (compiled with -mavx2, no FMA
// contraction, no fast-math) is bit-for-bit equal to the portable
// build — every row keeps its scalar summation order — so the dispatch
// is purely a throughput decision.
#if defined(S3_SIMD_AVX2)
const bool kHaveAvx2 = __builtin_cpu_supports("avx2");
#endif

inline size_t PullWindowsD(size_t lanes, const pk::SlicedView& m,
                           const double* in, double* out, uint32_t* nz,
                           uint8_t* lane_mass) {
#if defined(S3_SIMD_AVX2)
  if (kHaveAvx2) {
    return avx2::PullWindows(lanes, m, in, out, nz, lane_mass);
  }
#endif
  return pk::PullWindows(lanes, m, in, out, nz, lane_mass);
}

inline void ScatterRowsD(size_t lanes, const uint64_t* row_ptr,
                         const uint32_t* cols, const double* vals,
                         const uint32_t* src, size_t n_src, const double* in,
                         double* out) {
#if defined(S3_SIMD_AVX2)
  if (kHaveAvx2) {
    return avx2::ScatterRows(lanes, row_ptr, cols, vals, src, n_src, in, out);
  }
#endif
  pk::ScatterRows(lanes, row_ptr, cols, vals, src, n_src, in, out);
}

// Push/pull crossover: per matrix entry a push step costs ~39 / 24 / 17
// times a pull sweep at 1 / 4 / 8 lanes (measurements in
// propagate_kernels.h), so pull once the frontier's CSR rows hold more
// than 1/kPushCostPerEntry of the sliced entries; the constant leans to
// the one-lane ratio, the serving path's common case.
constexpr uint64_t kPushCostPerEntry = 32;

}  // namespace

void Frontier::Clear() {
  for (uint32_t row : nonzero) values[row] = 0.0;
  nonzero.clear();
}

void Frontier::Init(size_t total_rows) {
  values.assign(total_rows, 0.0);
  nonzero.clear();
}

void Frontier::Set(uint32_t row, double v) {
  if (values[row] == 0.0 && v != 0.0) nonzero.push_back(row);
  values[row] = v;
}

double Frontier::Sum() const {
  double s = 0.0;
  for (uint32_t row : nonzero) s += values[row];
  return s;
}

void BatchFrontier::Init(size_t total_rows, size_t n_lanes) {
  assert(n_lanes >= 1 && n_lanes <= kMaxFrontierLanes);
  assert(n_lanes == PadLanes(n_lanes));  // the kernels' lane widths
  lanes = n_lanes;
  values.assign(total_rows * n_lanes, 0.0);
  nonzero.clear();
  lane_mass.assign(n_lanes, 0);
  touch_epoch.assign(total_rows, 0);
  epoch = 0;
}

void BatchFrontier::Clear() {
  // Fixed-width stores: a runtime-length loop per row compiles to one
  // memset call per row. Lane counts are 1, 2 or multiples of 4.
  if (lanes == 1) {
    for (uint32_t row : nonzero) values[row] = 0.0;
  } else if (lanes == 2) {
    for (uint32_t row : nonzero) values[2 * row] = values[2 * row + 1] = 0.0;
  } else {
    for (uint32_t row : nonzero) {
      double* p = &values[static_cast<size_t>(row) * lanes];
      for (size_t b = 0; b < lanes; b += 4) {
        p[b] = p[b + 1] = p[b + 2] = p[b + 3] = 0.0;
      }
    }
  }
  nonzero.clear();
  std::fill(lane_mass.begin(), lane_mass.end(), 0);
}

void BatchFrontier::Set(uint32_t row, size_t lane, double v) {
  double* p = &values[static_cast<size_t>(row) * lanes];
  bool had = false;
  for (size_t l = 0; l < lanes; ++l) had = had || p[l] != 0.0;
  if (!had && v != 0.0) nonzero.push_back(row);
  p[lane] = v;
  if (v != 0.0) lane_mass[lane] = 1;
}

void BatchFrontier::ZeroLane(size_t lane) {
  for (uint32_t row : nonzero) {
    values[static_cast<size_t>(row) * lanes + lane] = 0.0;
  }
  lane_mass[lane] = 0;
}

void TransitionMatrix::AppendComputedRow(
    uint32_t row, const EntityLayout& layout, const EdgeStore& edges,
    const doc::DocumentStore& docs, CsrBuild& b,
    std::unordered_map<uint32_t, double>& row_acc,
    std::vector<std::pair<uint32_t, double>>& sorted_row) {
  row_acc.clear();
  auto accumulate_entity = [&](EntityId x) {
    for (uint32_t eidx : edges.OutEdges(x)) {
      const NetEdge& e = edges.edge(eidx);
      row_acc[layout.Row(e.target)] += e.weight;
    }
  };
  EntityId n = layout.Entity(row);
  double d = edges.OutWeight(n);
  accumulate_entity(n);
  if (n.kind() == EntityKind::kFragment) {
    // A path entering a fragment may exit from any vertical neighbor.
    for (doc::NodeId v : docs.VerticalNeighbors(n.index())) {
      EntityId ve = EntityId::Fragment(v);
      d += edges.OutWeight(ve);
      accumulate_entity(ve);
    }
  }
  b.denom[row] = d;
  sorted_row.assign(row_acc.begin(), row_acc.end());
  std::sort(sorted_row.begin(), sorted_row.end());
  for (auto& [col, w] : sorted_row) {
    b.cols.push_back(col);
    b.vals.push_back(w / d);
  }
  b.row_ptr[row + 1] = b.cols.size();
}

void TransitionMatrix::BuildSlicedTranspose() {
  constexpr size_t C = pk::kSliceRows, kSigma = pk::kSortWindow;
  const size_t total = rows();
  std::vector<uint32_t> in_degree(total, 0);
  for (size_t i = 0; i < cols_.size(); ++i) ++in_degree[cols_[i]];

  // Slice shape: per σ window, the rows with in-edges by descending
  // in-degree (ties by row), cut into slices of C rows; a slice is as
  // wide as its first row. `next[row]` is where the row's next entry
  // goes: its slice's current entry block plus its slot.
  SlicedTranspose t;
  const size_t n_windows = (total + kSigma - 1) / kSigma;
  t.window.reserve(n_windows + 1);
  t.ptr.push_back(0);
  std::vector<uint64_t> next(total, 0);
  std::vector<uint32_t> order;
  for (size_t w = 0; w < n_windows; ++w) {
    t.window.push_back(static_cast<uint32_t>(t.ptr.size() - 1));
    order.clear();
    for (size_t r = w * kSigma; r < std::min(total, (w + 1) * kSigma); ++r) {
      if (in_degree[r] > 0) order.push_back(static_cast<uint32_t>(r));
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      return in_degree[a] != in_degree[b] ? in_degree[a] > in_degree[b]
                                          : a < b;
    });
    for (size_t k = 0; k < order.size(); k += C) {
      const uint64_t base = t.ptr.back();
      for (size_t c = 0; c < C; ++c) {
        if (k + c < order.size()) {
          t.rows.push_back(order[k + c]);
          next[order[k + c]] = base + c;
        } else {
          t.rows.push_back(pk::kNoRow);
        }
      }
      t.ptr.push_back(base + C * in_degree[order[k]]);
    }
  }
  t.window.push_back(static_cast<uint32_t>(t.ptr.size() - 1));
  t.ptr.shrink_to_fit();
  t.rows.shrink_to_fit();

  // Fill in ascending source-row order, so each row's entries keep the
  // summation order of the push step; unfilled slots stay padding.
  t.cols.assign(t.ptr.back(), 0);
  t.vals.assign(t.ptr.back(), 0.0);
  for (uint32_t src = 0; src < total; ++src) {
    for (uint64_t i = row_ptr_[src]; i < row_ptr_[src + 1]; ++i) {
      const uint64_t pos = next[cols_[i]];
      next[cols_[i]] = pos + C;
      t.cols[pos] = src;
      t.vals[pos] = vals_[i];
    }
  }
  sliced_ = std::move(t);
}

Status TransitionMatrix::Adopt(StorageSpan<uint64_t> row_ptr,
                               StorageSpan<uint32_t> cols,
                               StorageSpan<double> vals,
                               StorageSpan<double> denom, size_t n_rows) {
  auto bad = [](const std::string& why) {
    return Status::InvalidArgument("transition matrix: " + why);
  };
  if (n_rows > kMaxMatrixRows) return bad("row count beyond the gather limit");
  if (row_ptr.size() != n_rows + 1 || denom.size() != n_rows) {
    return bad("row count mismatch");
  }
  if (row_ptr[0] != 0 || row_ptr.back() != cols.size() ||
      cols.size() != vals.size()) {
    return bad("CSR extent mismatch");
  }
  for (size_t r = 0; r < n_rows; ++r) {
    if (row_ptr[r] > row_ptr[r + 1]) return bad("row_ptr not monotone");
    for (uint64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
      if (cols[i] >= n_rows) return bad("column out of range");
      if (i > row_ptr[r] && cols[i] <= cols[i - 1]) {
        return bad("row columns not strictly ascending");
      }
    }
  }
  row_ptr_ = std::move(row_ptr);
  cols_ = std::move(cols);
  vals_ = std::move(vals);
  denom_ = std::move(denom);
  BuildSlicedTranspose();
  return Status::OK();
}

void TransitionMatrix::Build(const EntityLayout& layout,
                             const EdgeStore& edges,
                             const doc::DocumentStore& docs) {
  const uint32_t total = layout.total();
  assert(total <= kMaxMatrixRows);
  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  b.denom.assign(total, 0.0);

  // Per-row accumulation buffer: column -> weight sum (unnormalized).
  std::unordered_map<uint32_t, double> row_acc;
  std::vector<std::pair<uint32_t, double>> sorted_row;

  for (uint32_t row = 0; row < total; ++row) {
    AppendComputedRow(row, layout, edges, docs, b, row_acc, sorted_row);
  }
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  denom_ = std::move(b.denom);
  BuildSlicedTranspose();
}

void TransitionMatrix::IncrementalUpdate(const EntityLayout& new_layout,
                                         const EdgeStore& edges,
                                         const doc::DocumentStore& docs,
                                         const std::vector<char>& touched,
                                         uint32_t old_tag_base,
                                         uint32_t n_new_fragments) {
  const uint32_t total = new_layout.total();
  const uint32_t old_total = static_cast<uint32_t>(rows());
  const uint32_t new_frag_end = old_tag_base + n_new_fragments;
  assert(total <= kMaxMatrixRows);
  assert(touched.size() == total);

  // The pre-delta CSR (possibly view-backed on a mapped base) is read
  // in place while the successor arrays accumulate in owned scratch;
  // the swap at the end releases it — or, for a view, just this
  // matrix's pin on the mapping.
  const StorageSpan<uint64_t> old_row_ptr = std::move(row_ptr_);
  const StorageSpan<uint32_t> old_cols = std::move(cols_);
  const StorageSpan<double> old_vals = std::move(vals_);
  const StorageSpan<double> old_denom = std::move(denom_);

  CsrBuild b;
  b.row_ptr.assign(total + 1, 0);
  b.denom.assign(total, 0.0);
  b.cols.reserve(old_cols.size());
  b.vals.reserve(old_vals.size());

  std::unordered_map<uint32_t, double> row_acc;
  std::vector<std::pair<uint32_t, double>> sorted_row;

  for (uint32_t row = 0; row < total; ++row) {
    // New-layout row -> pre-delta row: rows below the old tag base are
    // unchanged, the next n_new_fragments rows are new fragments, and
    // the rest are (old tags shifted up) followed by new tags.
    uint32_t old_row = UINT32_MAX;
    if (row < old_tag_base) {
      old_row = row;
    } else if (row >= new_frag_end && row - n_new_fragments < old_total) {
      old_row = row - n_new_fragments;
    }
    if (old_row != UINT32_MAX && !touched[row]) {
      // Splice: same normalized values, columns remapped for the tag
      // shift (the remap is monotone, so sortedness is preserved).
      b.denom[row] = old_denom[old_row];
      for (uint64_t i = old_row_ptr[old_row]; i < old_row_ptr[old_row + 1];
           ++i) {
        const uint32_t c = old_cols[i];
        b.cols.push_back(c < old_tag_base ? c : c + n_new_fragments);
        b.vals.push_back(old_vals[i]);
      }
      b.row_ptr[row + 1] = b.cols.size();
    } else {
      AppendComputedRow(row, new_layout, edges, docs, b, row_acc,
                        sorted_row);
    }
  }
  row_ptr_ = std::move(b.row_ptr);
  cols_ = std::move(b.cols);
  vals_ = std::move(b.vals);
  denom_ = std::move(b.denom);
  BuildSlicedTranspose();
}

void TransitionMatrix::Propagate(const Frontier& in, Frontier& out) const {
  assert(out.values.size() == in.values.size());
  out.Clear();
  for (uint32_t row : in.nonzero) {
    const double mass = in.values[row];
    if (mass == 0.0) continue;
    for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) {
      const uint32_t col = cols_[i];
      if (out.values[col] == 0.0) out.nonzero.push_back(col);
      out.values[col] += mass * vals_[i];
    }
  }
}

void TransitionMatrix::PropagateBatchPush(const BatchFrontier& in,
                                          BatchFrontier& out) const {
  const size_t L = in.lanes;
  out.Clear();
  if (out.touch_epoch.size() != rows()) {
    out.touch_epoch.assign(rows(), 0);
    out.epoch = 0;
  }
  if (++out.epoch == 0) {  // epoch wrap: reset the marks once
    std::fill(out.touch_epoch.begin(), out.touch_epoch.end(), 0);
    out.epoch = 1;
  }
  const uint32_t e = out.epoch;
  std::vector<uint32_t>& touched = out.nonzero;
  for (uint32_t row : in.nonzero) {
    const double* mass = &in.values[static_cast<size_t>(row) * L];
    bool any = false;
    for (size_t l = 0; l < L && !any; ++l) any = mass[l] != 0.0;
    if (!any) continue;  // the kernel skips the row too
    for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) {
      const uint32_t col = cols_[i];
      if (out.touch_epoch[col] != e) {
        out.touch_epoch[col] = e;
        touched.push_back(col);
      }
    }
  }
  ScatterRowsD(L, row_ptr_.data(), cols_.data(), vals_.data(),
               in.nonzero.data(), in.nonzero.size(), in.values.data(),
               out.values.data());
  std::sort(touched.begin(), touched.end());
  // Keep only columns with some surviving lane value; flag lane
  // survival while at it.
  size_t w = 0;
  for (uint32_t col : touched) {
    const double* p = &out.values[static_cast<size_t>(col) * L];
    bool any = false;
    for (size_t l = 0; l < L; ++l) {
      if (p[l] != 0.0) {
        any = true;
        out.lane_mass[l] = 1;
      }
    }
    if (any) touched[w++] = col;
  }
  touched.resize(w);
}

void TransitionMatrix::PropagateBatchPull(const BatchFrontier& in,
                                          BatchFrontier& out) const {
  out.Clear();
  // The kernel lists nonzero rows in place: room for every row.
  out.nonzero.resize(rows());
  out.nonzero.resize(PullWindowsD(in.lanes, sliced_.view(), in.values.data(),
                                  out.values.data(), out.nonzero.data(),
                                  out.lane_mass.data()));
}

void TransitionMatrix::PropagateBatchAdaptive(const BatchFrontier& in,
                                              BatchFrontier& out,
                                              bool* used_pull) const {
  // The verdict is measured on the union support and may differ from
  // what any single lane would have chosen alone — harmless, because
  // push and pull are bitwise-identical per lane. The measurement
  // stops as soon as the verdict is known.
  const uint64_t touched_cut = sliced_.ptr.back() / kPushCostPerEntry;
  uint64_t touched = 0;
  for (uint32_t row : in.nonzero) {
    touched += row_ptr_[row + 1] - row_ptr_[row];
    if (touched >= touched_cut) break;
  }
  const bool dense = touched >= touched_cut;
  if (used_pull != nullptr) *used_pull = dense;
  if (dense) {
    PropagateBatchPull(in, out);
  } else {
    PropagateBatchPush(in, out);
  }
}

double TransitionMatrix::RowSum(uint32_t row) const {
  double s = 0.0;
  for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) s += vals_[i];
  return s;
}

std::vector<std::pair<uint32_t, double>> TransitionMatrix::Row(
    uint32_t row) const {
  std::vector<std::pair<uint32_t, double>> out;
  for (uint64_t i = row_ptr_[row]; i < row_ptr_[row + 1]; ++i) {
    out.emplace_back(cols_[i], vals_[i]);
  }
  return out;
}

}  // namespace s3::social
