//===- VecMath.h - Vectorized elementary math (SVML/libmvec substitute) ------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vectorized implementations of the elementary functions the generated
/// code needs, standing in for Intel SVML / GLIBC libmvec (paper §IV-B).
/// The f32 entry points are specialized to the value ranges SPN inference
/// produces — `exp` of non-positive arguments (log-space differences and
/// Gaussian exponents), `log1p` on [0, 1] and `log` of positive values —
/// which makes them short, branch-free polynomial kernels over GCC/Clang
/// vector types (vm/VecMathKernels.inc). The VM's vector engine calls
/// them on whole vector registers, one block of W rows at a time.
///
/// The scalar fall-back path (the "no vector library" configuration of
/// Fig. 6) calls libm through opaque function pointers per lane,
/// reproducing the extract-call-insert cost the paper describes.
///
/// Accuracy: ~1e-5 relative for expNeg, ~1e-6 absolute for log1p01 —
/// below the f32 round-off the compiled kernels accumulate anyway;
/// correctness tests compare against libm with explicit tolerances.
/// Double-precision lanes take dedicated lane-array functions that keep
/// full f64 accuracy via libm (mirroring the double variants of
/// libmvec/SVML), so f64 queries stay comparable to the reference
/// interpreter at 1e-9 (the differential suite's bound).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_VECMATH_H
#define SPNC_VM_VECMATH_H

#include <cmath>
#include <cstddef>

namespace spnc {
namespace vm {

//===----------------------------------------------------------------------===//
// Vector types (GCC/Clang vector extensions)
//===----------------------------------------------------------------------===//

/// P lanes of T as one vector value.
template <typename T, unsigned P> struct VecOf {
  typedef T Type __attribute__((vector_size(P * sizeof(T))));
};
template <typename T, unsigned P> using Vec = typename VecOf<T, P>::Type;

/// Lanes per vector for a block of W lanes: W, or as many as the target's
/// widest vector register holds where that is fewer (f64 at W=16; f32 at
/// W=16 without AVX-512). A vector that wide passes to and returns from
/// functions, the kernels below included, the same way whatever the ISA,
/// so GCC has no ABI change to warn about (-Wpsabi).
template <typename T, unsigned W>
constexpr unsigned kPieceLanes = W * sizeof(T) <= __BIGGEST_ALIGNMENT__
                                     ? W
                                     : __BIGGEST_ALIGNMENT__ / sizeof(T);

//===----------------------------------------------------------------------===//
// f32 vector kernels
//===----------------------------------------------------------------------===//

// polyExpNeg, polyLogPos and polyLog1p01: the same kernels over any
// lane count, shared with the cpp backend's emitted code.
#define SPNC_VECMATH_KERNELS(...) __VA_ARGS__
#include "vm/VecMathKernels.inc"
#undef SPNC_VECMATH_KERNELS

//===----------------------------------------------------------------------===//
// f64 lane arrays (the double variants of the "vector library")
//===----------------------------------------------------------------------===//

/// exp over a lane array of non-positive values.
///
/// The polynomial kernels above are tuned to f32 round-off, and
/// funnelling f64 lanes through them would truncate a double-precision
/// query to ~1e-5 — the real vector libraries this header stands in for
/// (libmvec/SVML) ship dedicated double variants accurate to ~1 ulp,
/// which plain libm over the lane loop reproduces.
inline void vecExpNeg(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::exp(Input[I] > 0.0 ? 0.0 : Input[I]);
}

/// log(1 + x) over a lane array of values in [0, 1].
inline void vecLog1p01(const double *Input, double *Output,
                       size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::log1p(Input[I]);
}

/// log over a lane array of strictly positive values.
inline void vecLogPos(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::log(Input[I]);
}

//===----------------------------------------------------------------------===//
// Scalar libm fall-back (the "no vector library" configuration)
//===----------------------------------------------------------------------===//

/// Opaque scalar function pointers. Calling through these per lane
/// forces a real libm call for every lane of a vector register — exactly
/// the "extract, scalar call, insert" behaviour of vector code without a
/// vector library (paper Fig. 6).
extern float (*const volatile ScalarExpF)(float);
extern float (*const volatile ScalarLog1pF)(float);
extern float (*const volatile ScalarLogF)(float);
extern double (*const volatile ScalarExpD)(double);
extern double (*const volatile ScalarLog1pD)(double);
extern double (*const volatile ScalarLogD)(double);

inline void scalarExp(const float *Input, float *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarExpF(Input[I]);
}
inline void scalarExp(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarExpD(Input[I]);
}

inline void scalarLog1p(const float *Input, float *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarLog1pF(Input[I]);
}
inline void scalarLog1p(const double *Input, double *Output,
                        size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarLog1pD(Input[I]);
}

inline void scalarLog(const float *Input, float *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarLogF(Input[I]);
}
inline void scalarLog(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = ScalarLogD(Input[I]);
}

} // namespace vm
} // namespace spnc

#endif // SPNC_VM_VECMATH_H
