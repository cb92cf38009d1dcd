// AVX2 build of the propagation kernels (propagate_kernels.h).
//
// The kernels themselves are plain C++ plus one intrinsic gather; this
// TU is the *only* one compiled with -mavx2 (plus -ffp-contract=off so
// no FMA contraction can creep in), and TransitionMatrix dispatches to
// it at runtime when the host CPU supports AVX2. It carries both
// sweeps: the sliced pull (4-row AVX2 gather at one lane, the lane loop
// vectorized above one lane) and the CSR push (lane loop vectorized).
// Every row keeps its scalar summation order, so the AVX2 results are
// bit-for-bit the portable results.
//
// The symbols exist only when CMake enables the TU (S3_SIMD=ON on an
// x86-64 GCC/Clang build); callers gate on S3_SIMD_AVX2.
#ifndef S3_SOCIAL_PROPAGATE_AVX2_H_
#define S3_SOCIAL_PROPAGATE_AVX2_H_

#include <cstddef>
#include <cstdint>

#include "social/propagate_kernels.h"

namespace s3::social::avx2 {

size_t PullWindows(size_t lanes, const pk::SlicedView& m, const double* in,
                   double* out, uint32_t* nz, uint8_t* lane_mass);
void ScatterRows(size_t lanes, const uint64_t* row_ptr, const uint32_t* cols,
                 const double* vals, const uint32_t* src, size_t n_src,
                 const double* in, double* out);

}  // namespace s3::social::avx2

#endif  // S3_SOCIAL_PROPAGATE_AVX2_H_
