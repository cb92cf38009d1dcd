// AVX2 instantiation of the propagation kernels. See propagate_avx2.h
// for the dispatch contract. The body is guarded so the file compiles
// to nothing when the build does not enable the TU (S3_SIMD=OFF,
// non-x86 target, or a compiler without -mavx2): the source list is
// glob-based, so the guard — not the build system — keeps scalar
// builds scalar.
#if defined(S3_SIMD_AVX2_TU)

#include "social/propagate_avx2.h"

namespace s3::social::avx2 {

size_t PullWindows(size_t lanes, const pk::SlicedView& m, const double* in,
                   double* out, uint32_t* nz, uint8_t* lane_mass) {
  return pk::PullWindows(lanes, m, in, out, nz, lane_mass);
}

void ScatterRows(size_t lanes, const uint64_t* row_ptr, const uint32_t* cols,
                 const double* vals, const uint32_t* src, size_t n_src,
                 const double* in, double* out) {
  pk::ScatterRows(lanes, row_ptr, cols, vals, src, n_src, in, out);
}

}  // namespace s3::social::avx2

#endif  // S3_SIMD_AVX2_TU
