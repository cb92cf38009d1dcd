// L-lane propagation kernels: one call per sweep, for the push
// (scatter over the CSR) and the pull (gather over the sliced
// transpose) halves of TransitionMatrix::PropagateBatchAdaptive. The
// header is compiled twice: into transition_matrix.cc for the portable
// build, and into propagate_avx2.cc under -mavx2 for the
// runtime-dispatched AVX2 variant.
//
// Frontier layout: a batched frontier stores L per-seeker values
// contiguously per entity row (values[row*L + lane]) — the SpMM shape:
// one matrix walk streams L independent right-hand sides.
//
// Transpose layout (SELL-4-σ; Kreutzer et al., SIAM J. Sci. Comput.
// 36(5), 2014): the in-edges of each output row, in ascending
// source-row order, packed into slices of 4 rows. A slice stores its
// entries column-major — entry j of its 4 rows sits at
// ptr[s] + 4j + {0..3} — so one 4-wide load (one AVX2 gather at one
// lane) advances all 4 rows by one entry. Rows are grouped in σ = 32
// row windows; within a window the rows with in-edges are sorted by
// in-degree (descending) before slicing, which keeps the padding of
// each slice — its rows shorter than its widest row — small.
// Zero-in-degree rows get no slot; they always pull exactly 0.0.
//
// Bit-for-bit argument: every output row still accumulates its
// entries one at a time in ascending source-row order, starting from
// +0.0 — the order the push step visits them — so pull and push and
// every lane count give identical sums. The in-window permutation only
// changes which slice holds a row, never the order inside the row.
// Padding entries have value 0.0 (column 0): frontier values are
// finite and >= 0, so a padding step adds +0.0, which leaves any sum
// that started at +0.0 unchanged. No FMA contraction, no reassociation:
// the TUs compile without -mfma / fast-math, and the AVX2 gather
// kernel issues separate mul and add.
//
// Crossover: per matrix entry, push costs far more than pull (scattered
// read-modify-writes plus the sort of the touched list, against a
// streaming sweep): ~35 / 45 / 70 ns per visited CSR entry at 1 / 4 / 8
// lanes against ~0.9 / 1.9 / 4.0 ns per sliced entry on the perfbench
// I1 instance (4-CPU Xeon, 2.1 GHz). TransitionMatrix pulls once the
// frontier's CSR rows hold more than 1/32 of the sliced entries.
//
// The AVX2 TU (propagate_avx2.cc) carries both sweeps: the one-lane
// pull as an explicit 4-row gather (which is why a matrix holds at most
// INT32_MAX rows), the multi-lane pull in 4-double vector chunks and
// the push with the lane loop vectorized by the compiler. The portable
// build runs the same slices with scalar loops at one lane and 2-double
// chunks above.
#ifndef S3_SOCIAL_PROPAGATE_KERNELS_H_
#define S3_SOCIAL_PROPAGATE_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace s3::social::pk {

// Slice height C and sorting window σ of the sliced transpose.
inline constexpr size_t kSliceRows = 4;
inline constexpr size_t kSortWindow = 32;
// Widest lane count a kernel accepts (social::kMaxFrontierLanes).
inline constexpr size_t kMaxLanes = 32;
// Output-row id of a padding slot in a slice.
inline constexpr uint32_t kNoRow = UINT32_MAX;

// Read-only view of a sliced transpose (owned by TransitionMatrix).
struct SlicedView {
  const uint64_t* ptr;   // first entry of each slice; n_slices + 1
  const uint32_t* rows;  // kSliceRows output rows per slice (kNoRow pads)
  const uint32_t* cols;  // source row of each entry
  const double* vals;    // T value of each entry (0.0 for padding)
  const uint32_t* window;  // first slice of each σ row window; windows + 1
  size_t n_windows;        // σ row windows
};

// The header is compiled under different -m flags in two TUs; the
// inline namespace gives each ISA's copy of the inline kernels below its
// own symbols, so the linker can never fold an AVX2 body into the
// portable build (or back).
#if defined(__AVX2__)
inline namespace isa_avx2 {
#else
inline namespace isa_generic {
#endif

// Lanes are carried in chunks of the TU's native vector width (GCC/
// Clang vector types: 4 doubles under AVX2, 2 otherwise): with a plain
// fixed-width lane loop the compiler splits the 4-row accumulator into
// scalars and vectorizes nothing. Vector arithmetic is element-wise
// IEEE, exactly the scalar operations.
#if defined(__AVX2__)
inline constexpr size_t kVecWidth = 4;
#else
inline constexpr size_t kVecWidth = 2;
#endif
template <size_t N>
struct DoubleVec {
  typedef double type __attribute__((vector_size(N * sizeof(double))));
};

// Per lane count L: the accumulator chunk type and its lane width. One
// lane is a plain double; L = 0 is the runtime-width variant (`lanes` a
// multiple of 4).
template <int L>
struct LaneChunks {
  static constexpr size_t kWidth =
      L == 1 ? 1 : (L == 2 ? 2 : kVecWidth);
  static constexpr size_t kMaxChunks = (L == 0 ? kMaxLanes : L) / kWidth;
  using Chunk = std::conditional_t<kWidth == 1, double,
                                   typename DoubleVec<kWidth>::type>;
};

// Pull over the slices [s_begin, s_end) of one σ window:
// out[row*L + l] = Σ in[col*L + l] * val over each row's entries. Every
// row of those slices is written; other rows are untouched. Returns
// the window's rows that came out with some nonzero lane, as a bit mask
// over row % kSortWindow, and ORs per-lane survival into mass[l].
template <int L>
inline uint32_t PullSlicesT(size_t lanes, const SlicedView& m,
                            size_t s_begin, size_t s_end,
                            const double* __restrict in,
                            double* __restrict out, uint8_t* mass) {
  using Chunk = typename LaneChunks<L>::Chunk;
  constexpr size_t kWidth = LaneChunks<L>::kWidth;
  const size_t n_lanes = L > 0 ? L : lanes;
  const size_t n_chunks = n_lanes / kWidth;
  uint8_t lane_any[kMaxLanes] = {};
  uint32_t nonzero = 0;
  for (size_t s = s_begin; s < s_end; ++s) {
    Chunk acc[kSliceRows][LaneChunks<L>::kMaxChunks];
#pragma GCC unroll 4
    for (size_t c = 0; c < kSliceRows; ++c) {
      for (size_t k = 0; k < n_chunks; ++k) acc[c][k] = Chunk{};
    }
    for (uint64_t i = m.ptr[s]; i < m.ptr[s + 1]; i += kSliceRows) {
#pragma GCC unroll 4
      for (size_t c = 0; c < kSliceRows; ++c) {
        const double* p = in + static_cast<size_t>(m.cols[i + c]) * n_lanes;
        const double v = m.vals[i + c];
        for (size_t k = 0; k < n_chunks; ++k) {
          Chunk x;
          std::memcpy(&x, p + k * kWidth, sizeof(Chunk));
          acc[c][k] += x * v;
        }
      }
    }
#pragma GCC unroll 4
    for (size_t c = 0; c < kSliceRows; ++c) {
      const uint32_t row = m.rows[s * kSliceRows + c];
      if (row == kNoRow) continue;
      double* o = out + static_cast<size_t>(row) * n_lanes;
      for (size_t k = 0; k < n_chunks; ++k) {
        const Chunk a = acc[c][k];
        std::memcpy(o + k * kWidth, &a, sizeof(Chunk));
      }
      uint8_t any = 0;
      for (size_t l = 0; l < n_lanes; ++l) {
        const uint8_t z = o[l] != 0.0;
        any |= z;
        lane_any[l] |= z;
      }
      nonzero |= static_cast<uint32_t>(any) << (row % kSortWindow);
    }
  }
  for (size_t l = 0; l < n_lanes; ++l) mass[l] |= lane_any[l];
  return nonzero;
}

#if defined(__AVX2__)
// One lane: one gather advances the slice's 4 rows by one entry. The
// 32-bit gather index is why the matrix caps its row count at
// INT32_MAX (kMaxMatrixRows).
template <>
inline uint32_t PullSlicesT<1>(size_t, const SlicedView& m, size_t s_begin,
                               size_t s_end, const double* __restrict in,
                               double* __restrict out, uint8_t* mass) {
  // The masked form with an all-ones mask is the plain gather; it
  // spells out the pass-through operand the unmasked intrinsic leaves
  // undefined.
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  const __m256d zero = _mm256_setzero_pd();
  uint32_t nonzero = 0;
  for (size_t s = s_begin; s < s_end; ++s) {
    __m256d acc = zero;
    for (uint64_t i = m.ptr[s]; i < m.ptr[s + 1]; i += kSliceRows) {
      const __m128i idx =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(m.cols + i));
      const __m256d x = _mm256_mask_i32gather_pd(zero, in, idx, all, 8);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(x, _mm256_loadu_pd(m.vals + i)));
    }
    double r[kSliceRows];
    _mm256_storeu_pd(r, acc);
    for (size_t c = 0; c < kSliceRows; ++c) {
      const uint32_t row = m.rows[s * kSliceRows + c];
      if (row == kNoRow) continue;
      out[row] = r[c];
      nonzero |= static_cast<uint32_t>(r[c] != 0.0) << (row % kSortWindow);
    }
  }
  mass[0] |= nonzero != 0;
  return nonzero;
}
#endif

// The pull sweep over every σ window: writes every row with in-edges,
// lists the rows with some nonzero lane in `nz` (ascending; room for
// every row) and sets lane_mass[l] when lane l has any. Returns the
// count listed. Rows without in-edges are not written and must already
// be 0.
template <int L>
inline size_t PullWindowsT(size_t lanes, const SlicedView& m,
                           const double* in, double* out, uint32_t* nz,
                           uint8_t* lane_mass) {
  static_assert(kSortWindow == 32, "row masks are 32 bits wide");
  size_t n = 0;
  for (size_t w = 0; w < m.n_windows; ++w) {
    uint32_t mask = PullSlicesT<L>(lanes, m, m.window[w], m.window[w + 1],
                                   in, out, lane_mass);
    for (; mask != 0; mask &= mask - 1) {
      nz[n++] = static_cast<uint32_t>(w * kSortWindow) +
                static_cast<uint32_t>(std::countr_zero(mask));
    }
  }
  return n;
}

inline size_t PullWindows(size_t lanes, const SlicedView& m,
                          const double* in, double* out, uint32_t* nz,
                          uint8_t* lane_mass) {
  switch (lanes) {
    case 1:
      return PullWindowsT<1>(1, m, in, out, nz, lane_mass);
    case 2:
      return PullWindowsT<2>(2, m, in, out, nz, lane_mass);
    case 4:
      return PullWindowsT<4>(4, m, in, out, nz, lane_mass);
    case 8:
      return PullWindowsT<8>(8, m, in, out, nz, lane_mass);
    default:
      return PullWindowsT<0>(lanes, m, in, out, nz, lane_mass);
  }
}

// Push over the listed source rows (ascending): for each CSR entry
// (cols[i], vals[i]) of a row with some nonzero lane,
// out[cols[i]*L + l] += in[row*L + l] * vals[i].
template <int L>
inline void ScatterRowsT(size_t lanes, const uint64_t* row_ptr,
                         const uint32_t* cols, const double* vals,
                         const uint32_t* src, size_t n_src,
                         const double* __restrict in,
                         double* __restrict out) {
  using Chunk = typename LaneChunks<L>::Chunk;
  constexpr size_t kWidth = LaneChunks<L>::kWidth;
  const size_t n_lanes = L > 0 ? L : lanes;
  const size_t n_chunks = n_lanes / kWidth;
  for (size_t k = 0; k < n_src; ++k) {
    const double* mass = in + static_cast<size_t>(src[k]) * n_lanes;
    bool any = false;
    for (size_t l = 0; l < n_lanes; ++l) any |= mass[l] != 0.0;
    if (!any) continue;  // e.g. every lane holding this row dropped out
    Chunk m[LaneChunks<L>::kMaxChunks];
    std::memcpy(m, mass, n_lanes * sizeof(double));
    for (uint64_t i = row_ptr[src[k]]; i < row_ptr[src[k] + 1]; ++i) {
      double* o = out + static_cast<size_t>(cols[i]) * n_lanes;
      const double v = vals[i];
      for (size_t j = 0; j < n_chunks; ++j) {
        Chunk x;
        std::memcpy(&x, o + j * kWidth, sizeof(Chunk));
        x += m[j] * v;
        std::memcpy(o + j * kWidth, &x, sizeof(Chunk));
      }
    }
  }
}

inline void ScatterRows(size_t lanes, const uint64_t* row_ptr,
                        const uint32_t* cols, const double* vals,
                        const uint32_t* src, size_t n_src, const double* in,
                        double* out) {
  switch (lanes) {
    case 1:
      return ScatterRowsT<1>(1, row_ptr, cols, vals, src, n_src, in, out);
    case 2:
      return ScatterRowsT<2>(2, row_ptr, cols, vals, src, n_src, in, out);
    case 4:
      return ScatterRowsT<4>(4, row_ptr, cols, vals, src, n_src, in, out);
    case 8:
      return ScatterRowsT<8>(8, row_ptr, cols, vals, src, n_src, in, out);
    default:
      return ScatterRowsT<0>(lanes, row_ptr, cols, vals, src, n_src, in,
                             out);
  }
}

}  // inline namespace
}  // namespace s3::social::pk

#endif  // S3_SOCIAL_PROPAGATE_KERNELS_H_
