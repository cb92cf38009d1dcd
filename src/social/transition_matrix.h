// Normalized social-path transition matrix.
//
// Paper §2.5 defines path normalization: when a path enters a node n
// (the end of the previous edge), the next edge e — which may leave n
// or any of its vertical neighbors — gets the normalized weight
//     e.n_w = e.w / Σ_{e' ∈ out(neigh(n))} e'.w .
// Because the denominator depends only on the entered node n, all the
// normalized continuations from n form a row of a (sub)stochastic
// matrix T:
//     T[n][m] = Σ_{e: x→m, x ∈ neigh(n)∪{n}} e.w / D(n),
//     D(n)    = Σ_{e' ∈ out(neigh(n)∪{n})} e'.w .
// The k-step frontier of the seeker (the paper's borderProx, §5.2) is
// then δ_u · T^k, computed by repeated sparse vector-matrix products.
// Row sums are ≤ 1, which yields the exact long-path attenuation bound
// B>n_prox = γ^-(n+1) used by S3k.
#ifndef S3_SOCIAL_TRANSITION_MATRIX_H_
#define S3_SOCIAL_TRANSITION_MATRIX_H_

#include <climits>
#include <cstdint>
#include <new>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/storage_span.h"
#include "doc/document_store.h"
#include "social/edge_store.h"
#include "social/entity.h"
#include "social/propagate_kernels.h"

namespace s3::social {

// Sparse frontier vector over the dense entity-row space.
struct Frontier {
  std::vector<double> values;    // dense, size = layout.total()
  std::vector<uint32_t> nonzero; // rows with values[row] != 0

  void Clear();
  void Init(size_t total_rows);
  void Set(uint32_t row, double v);
  double Sum() const;
};

// Hard cap on the lane count of a BatchFrontier (and hence on the
// multi-seeker batch width): bounds the stack accumulators inside the
// pull kernels.
inline constexpr size_t kMaxFrontierLanes = pk::kMaxLanes;

// Rounds a batch width up to a kernel-friendly lane count: 1, 2, 4 or
// the next multiple of 4 (see the pk::PullWindows/ScatterRows dispatch).
inline constexpr size_t PadLanes(size_t b) {
  if (b <= 2) return b < 1 ? 1 : b;
  return (b + 3) / 4 * 4;
}

// Largest row count a TransitionMatrix holds: the one-lane pull
// gathers with signed 32-bit indices.
inline constexpr size_t kMaxMatrixRows = INT32_MAX;

// Allocator for BatchFrontier::values: 64-byte (cache-line) aligned,
// so the kernels' 32-byte lane loads never straddle two cache lines
// (malloc only guarantees 16 bytes).
template <class T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlign{64};
  CacheLineAllocator() = default;
  template <class U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, size_t n) {
    ::operator delete(p, n * sizeof(T), kAlign);
  }
  template <class U>
  bool operator==(const CacheLineAllocator<U>&) const {
    return true;
  }
};

// L per-seeker frontiers in one dense SoA buffer: values[row*lanes + l]
// is lane l's mass on `row` (the SpMM right-hand-side layout of
// propagate_kernels.h). `nonzero` is the union support over lanes —
// sorted ascending after every propagate step — while per-seeker
// frontier exhaustion is tracked per lane in `lane_mass` (a lane can
// die out while the union stays populated).
struct BatchFrontier {
  std::vector<double, CacheLineAllocator<double>> values;  // rows * lanes
  std::vector<uint32_t> nonzero;   // union over lanes
  std::vector<uint8_t> lane_mass;  // lane has some nonzero value
  size_t lanes = 0;

  // `n_lanes` is a PadLanes width: 1, 2 or a multiple of 4.
  void Init(size_t total_rows, size_t n_lanes);
  void Clear();
  // Sets one lane's value (seeker seeding); keeps `nonzero` deduped
  // even when two lanes share a row.
  void Set(uint32_t row, size_t lane, double v);
  // Zeroes one lane's column (a converged seeker drops out of the
  // batch); the union support shrinks at the next propagate step.
  void ZeroLane(size_t lane);
  bool LaneHasMass(size_t lane) const { return lane_mass[lane] != 0; }

  // First-touch scatter scratch for the push step (epoch-marked).
  std::vector<uint32_t> touch_epoch;
  uint32_t epoch = 0;
};

// T's transpose as SELL-4-σ slices (layout and bit-for-bit argument in
// propagate_kernels.h): the in-edges of every row that has any, in
// ascending source-row order, 4 rows per slice, rows sorted by
// in-degree within σ-row windows.
struct SlicedTranspose {
  std::vector<uint64_t> ptr;     // first entry of each slice; slices + 1
  std::vector<uint32_t> rows;    // pk::kSliceRows rows per slice
  std::vector<uint32_t> cols;    // source row per entry (0 for padding)
  std::vector<double> vals;      // T value per entry (0.0 for padding)
  std::vector<uint32_t> window;  // first slice of each σ window; windows + 1

  pk::SlicedView view() const {
    return {ptr.data(), rows.data(), cols.data(), vals.data(), window.data()};
  }
};

// CSR matrix over entity rows.
class TransitionMatrix {
 public:
  // Builds T from the network edges and the document structure
  // (vertical neighborhoods). Layout must cover all entities referenced
  // by the edge store.
  void Build(const EntityLayout& layout, const EdgeStore& edges,
             const doc::DocumentStore& docs);

  // Live-update path: rebuilds this matrix (previously built for the
  // pre-delta instance) for the post-delta row space without
  // recomputing untouched rows. `touched[row]` (indexed in the *new*
  // row space, size new_layout.total()) marks rows whose neighborhood
  // gained an out-edge; new-entity rows are recomputed regardless.
  // `old_tag_base` is the pre-delta row of tag 0 (users + old
  // fragments) and `n_new_fragments` the fragment-count growth — the
  // delta appends fragments before the tag block, so every old tag row
  // (and every matrix column >= old_tag_base) shifts up by
  // n_new_fragments; untouched rows are spliced over with that column
  // remap, bit-identical values included.
  void IncrementalUpdate(const EntityLayout& new_layout,
                         const EdgeStore& edges,
                         const doc::DocumentStore& docs,
                         const std::vector<char>& touched,
                         uint32_t old_tag_base, uint32_t n_new_fragments);

  // out = in · T  (one exploration step) over a single-seeker
  // frontier, push-style. `out` is overwritten; `out.nonzero` comes out
  // in first-touch order.
  void Propagate(const Frontier& in, Frontier& out) const;

  // Batched multi-seeker step: out = in · T on every lane at once. It
  // measures the union frontier's density — the CSR entries a push
  // step would touch — against the size of the sliced transpose and
  // runs the cheaper side: a push (PropagateBatchPush) or a full pull
  // sweep (PropagateBatchPull). Each lane's values are bit-for-bit what a single-seeker
  // push chain (Propagate) would produce for that lane alone: the lane
  // dimension is element-wise, and push and pull both accumulate per
  // output row in ascending source-row order. `in.nonzero` must be
  // sorted ascending; `out.nonzero` is left sorted and holds exactly
  // the rows with some nonzero lane; `out.lane_mass` flags per-lane
  // survival. `used_pull`, when non-null, reports which side ran
  // (observability only).
  void PropagateBatchAdaptive(const BatchFrontier& in, BatchFrontier& out,
                              bool* used_pull = nullptr) const;

  // The two halves of PropagateBatchAdaptive, with the same contract;
  // public so tests and benches can pin each side. Push scatters the
  // CSR rows of `in.nonzero` (one kernel call per sweep); pull gathers
  // every row through the sliced transpose (one kernel call per sweep).
  void PropagateBatchPush(const BatchFrontier& in, BatchFrontier& out) const;
  void PropagateBatchPull(const BatchFrontier& in, BatchFrontier& out) const;

  // Normalization denominator D(n) for the row of entity `n` (0 if the
  // neighborhood has no outgoing edge).
  double Denominator(uint32_t row) const { return denom_[row]; }

  // Sum of the row (≤ 1; 0 for sink rows).
  double RowSum(uint32_t row) const;

  size_t rows() const { return row_ptr_.empty() ? 0 : row_ptr_.size() - 1; }
  size_t nonzeros() const { return cols_.size(); }

  // The sliced transpose the pull step sweeps (for tests).
  const SlicedTranspose& sliced() const { return sliced_; }

  // Entries of one row as (column, value) pairs — for tests and for the
  // naive reference implementation.
  std::vector<std::pair<uint32_t, double>> Row(uint32_t row) const;

  // ---- snapshot (de)serialization hooks --------------------------------

  // Raw CSR views for the binary snapshot writer. The sliced transpose
  // is not serialized: it is a pure function of the CSR and is rebuilt
  // on Adopt.
  // Each array may be heap-owned (Build/IncrementalUpdate output, v1
  // loads) or a view into an mmap'd snapshot section (v2 attach).
  const StorageSpan<uint64_t>& row_ptr() const { return row_ptr_; }
  const StorageSpan<uint32_t>& col_index() const { return cols_; }
  const StorageSpan<double>& values() const { return vals_; }
  const StorageSpan<double>& denominators() const { return denom_; }

  // Binary-load path: adopts a deserialized CSR wholesale — shape
  // validation only (row count within kMaxMatrixRows, monotone
  // row_ptr, in-range strictly-ascending columns per row, matching
  // array sizes); the float values are covered by the snapshot's
  // checksum framing — and rebuilds the sliced transpose (always
  // heap-owned, even when the CSR arrays are views). `n_rows` is the
  // entity-row count the matrix must cover.
  Status Adopt(StorageSpan<uint64_t> row_ptr, StorageSpan<uint32_t> cols,
               StorageSpan<double> vals, StorageSpan<double> denom,
               size_t n_rows);

 private:
  // Owned scratch a Build/IncrementalUpdate pass accumulates into
  // before the results are swapped into the (possibly view-backed)
  // spans — mutation never happens through an adopted array.
  struct CsrBuild {
    std::vector<uint64_t> row_ptr;
    std::vector<uint32_t> cols;
    std::vector<double> vals;
    std::vector<double> denom;
  };

  // Computes one row (denominator + sorted normalized entries) and
  // appends it to `b`; shared by Build and IncrementalUpdate.
  void AppendComputedRow(
      uint32_t row, const EntityLayout& layout, const EdgeStore& edges,
      const doc::DocumentStore& docs, CsrBuild& b,
      std::unordered_map<uint32_t, double>& row_acc,
      std::vector<std::pair<uint32_t, double>>& sorted_row);

  // Rebuilds sliced_ from row_ptr_/cols_/vals_.
  void BuildSlicedTranspose();

  StorageSpan<uint64_t> row_ptr_;
  StorageSpan<uint32_t> cols_;
  StorageSpan<double> vals_;
  StorageSpan<double> denom_;
  // T's transpose in the SELL-4-σ layout of propagate_kernels.h, for
  // the pull step. Always heap-owned: it is rebuilt from the CSR on
  // every Build, IncrementalUpdate and Adopt.
  SlicedTranspose sliced_;
};

}  // namespace s3::social

#endif  // S3_SOCIAL_TRANSITION_MATRIX_H_
