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
/// The entry points are specialized to the value ranges SPN inference
/// produces — `exp` of non-positive arguments (log-space differences and
/// Gaussian exponents) and `log1p` on [0, 1] — which makes them short,
/// branch-free polynomial kernels the host compiler auto-vectorizes over
/// whole lane arrays.
///
/// The scalar fall-back path (the "no vector library" configuration of
/// Fig. 6) calls libm through opaque function pointers per lane,
/// reproducing the extract-call-insert cost the paper describes.
///
/// Accuracy: ~1e-5 relative for expNeg, ~1e-6 absolute for log1p01 —
/// below the f32 round-off the compiled kernels accumulate anyway;
/// correctness tests compare against libm with explicit tolerances.
/// Double-precision lane arrays take dedicated overloads that keep full
/// f64 accuracy via libm (mirroring the double variants of libmvec/SVML),
/// so f64 queries stay comparable to the reference interpreter at 1e-9
/// (the differential suite's bound).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_VM_VECMATH_H
#define SPNC_VM_VECMATH_H

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace spnc {
namespace vm {

//===----------------------------------------------------------------------===//
// Branch-free scalar kernels (inlined into lane loops)
//===----------------------------------------------------------------------===//

/// exp(x) for x <= 0, branch-free (straight-line so the lane loops
/// auto-vectorize). Inputs below -87 underflow to 0 (they would in f32
/// arithmetic anyway).
inline float fastExpNeg(float X) {
  // Clamp into the representable range; the polynomial needs a bounded
  // fractional part. min/max compile to vminps/vmaxps.
  X = X < -87.0f ? -87.0f : X;
  X = X > 0.0f ? 0.0f : X;
  const float Log2E = 1.44269504088896341f;
  float T = X * Log2E;
  float FloorT = std::floor(T); // vroundps
  float F = T - FloorT;         // in [0, 1)
  // 2^F on [0,1): degree-5 polynomial (max rel. error ~2e-7).
  float P =
      1.0f +
      F * (0.693147180559945f +
           F * (0.240226506959101f +
                F * (0.0555041086648216f +
                     F * (0.00961812910762848f +
                          F * (0.00133335581464284f +
                               F * 0.000154353139101124f)))));
  // Scale by 2^FloorT through the exponent bits.
  int32_t E = static_cast<int32_t>(FloorT);
  float Scale = std::bit_cast<float>((E + 127) << 23);
  return P * Scale;
}

/// log(1 + x) for x in [0, 1], branch-free. Uses the atanh series:
/// log1p(x) = 2 z (1 + z^2/3 + z^4/5 + z^6/7 + z^8/9), z = x / (2 + x).
inline float fastLog1p01(float X) {
  float Z = X / (2.0f + X); // in [0, 1/3]
  float Z2 = Z * Z;
  float Series =
      1.0f +
      Z2 * (0.333333333333333f +
            Z2 * (0.2f + Z2 * (0.142857142857143f + Z2 * 0.111111111111111f)));
  return 2.0f * Z * Series;
}

/// Natural log for strictly positive finite x, branch-free: exponent
/// extraction plus a polynomial on the mantissa shifted to
/// [sqrt(0.5), sqrt(2)). Used by the n-ary log-sum-exp (its summed
/// exponentials lie in [1, n]).
inline float fastLogPos(float X) {
  int32_t Bits = std::bit_cast<int32_t>(X);
  int32_t E = ((Bits >> 23) & 0xff) - 127;
  float M = std::bit_cast<float>((Bits & 0x007fffff) | 0x3f800000);
  // M in [1, 2): the atanh argument F stays within [0, 1/3], where the
  // series below is accurate to ~3e-7 — no mantissa-range shift needed,
  // keeping the kernel straight-line (auto-vectorizable).
  float F = (M - 1.0f) / (M + 1.0f);
  float F2 = F * F;
  float Series =
      1.0f +
      F2 * (0.333333333f +
            F2 * (0.2f + F2 * (0.142857143f +
                               F2 * (0.111111111f + F2 * 0.0909090909f))));
  return 2.0f * F * Series + 0.693147180559945f * static_cast<float>(E);
}

//===----------------------------------------------------------------------===//
// Vector kernels (GCC/Clang vector extensions)
//===----------------------------------------------------------------------===//

#if defined(__GNUC__) || defined(__clang__)
#define SPNC_HAVE_VECTOR_EXTENSIONS 1

using V8f = float __attribute__((vector_size(32)));
using V8i = int32_t __attribute__((vector_size(32)));

// polyExpNeg, polyLogPos and polyLog1p01: the same kernels over any
// lane count, shared with the cpp backend's emitted code.
#define SPNC_VECMATH_KERNELS(...) __VA_ARGS__
#include "vm/VecMathKernels.inc"
#undef SPNC_VECMATH_KERNELS
#endif // vector extensions

//===----------------------------------------------------------------------===//
// Lane-array entry points (the "vector library")
//===----------------------------------------------------------------------===//

namespace detail {

/// Applies the 8-lane kernel over full chunks and the scalar kernel over
/// the remainder; falls back to the scalar kernel entirely without
/// vector extensions.
template <typename T, typename Vec8Fn, typename ScalarFn>
inline void mapLanes(const T *Input, T *Output, size_t Lanes,
                     Vec8Fn &&Vec8, ScalarFn &&Scalar) {
#if defined(SPNC_HAVE_VECTOR_EXTENSIONS)
  size_t I = 0;
  if constexpr (std::is_same_v<T, float>) {
    for (; I + 8 <= Lanes; I += 8) {
      V8f X;
      __builtin_memcpy(&X, Input + I, sizeof(X));
      V8f Y = Vec8(X);
      __builtin_memcpy(Output + I, &Y, sizeof(Y));
    }
  } else {
    for (; I + 8 <= Lanes; I += 8) {
      V8f X = {static_cast<float>(Input[I]),     static_cast<float>(Input[I + 1]),
               static_cast<float>(Input[I + 2]), static_cast<float>(Input[I + 3]),
               static_cast<float>(Input[I + 4]), static_cast<float>(Input[I + 5]),
               static_cast<float>(Input[I + 6]), static_cast<float>(Input[I + 7])};
      V8f Y = Vec8(X);
      for (int L = 0; L < 8; ++L)
        Output[I + L] = static_cast<T>(Y[L]);
    }
  }
  for (; I < Lanes; ++I)
    Output[I] = static_cast<T>(Scalar(static_cast<float>(Input[I])));
#else
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = static_cast<T>(Scalar(static_cast<float>(Input[I])));
#endif
}

} // namespace detail

/// exp over a lane array of non-positive values.
///
/// The double overloads below keep full f64 accuracy: the polynomial
/// kernels above are tuned to f32 round-off, and funnelling f64 lanes
/// through them would truncate a double-precision query to ~1e-5 —
/// the real vector libraries this header stands in for (libmvec/SVML)
/// ship dedicated double variants accurate to ~1 ulp, which plain libm
/// over the lane loop reproduces.
template <typename T>
inline void vecExpNeg(const T *Input, T *Output, size_t Lanes) {
#if defined(SPNC_HAVE_VECTOR_EXTENSIONS)
  detail::mapLanes(Input, Output, Lanes,
                   [](V8f X) { return polyExpNeg<V8f, V8i>(X); },
                   [](float X) { return fastExpNeg(X); });
#else
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = static_cast<T>(fastExpNeg(static_cast<float>(Input[I])));
#endif
}

inline void vecExpNeg(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::exp(Input[I] > 0.0 ? 0.0 : Input[I]);
}

/// log(1 + x) over a lane array of values in [0, 1].
template <typename T>
inline void vecLog1p01(const T *Input, T *Output, size_t Lanes) {
#if defined(SPNC_HAVE_VECTOR_EXTENSIONS)
  detail::mapLanes(Input, Output, Lanes,
                   [](V8f X) { return polyLog1p01(X); },
                   [](float X) { return fastLog1p01(X); });
#else
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] =
        static_cast<T>(fastLog1p01(static_cast<float>(Input[I])));
#endif
}

inline void vecLog1p01(const double *Input, double *Output,
                       size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::log1p(Input[I]);
}

/// log over a lane array of strictly positive values.
template <typename T>
inline void vecLogPos(const T *Input, T *Output, size_t Lanes) {
#if defined(SPNC_HAVE_VECTOR_EXTENSIONS)
  detail::mapLanes(Input, Output, Lanes,
                   [](V8f X) { return polyLogPos<V8f, V8i>(X); },
                   [](float X) { return fastLogPos(X); });
#else
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = static_cast<T>(fastLogPos(static_cast<float>(Input[I])));
#endif
}

inline void vecLogPos(const double *Input, double *Output, size_t Lanes) {
  for (size_t I = 0; I < Lanes; ++I)
    Output[I] = std::log(Input[I]);
}

//===----------------------------------------------------------------------===//
// Scalar libm fall-back (the "no vector library" configuration)
//===----------------------------------------------------------------------===//

/// Opaque scalar function pointers. Calling through these per lane
/// defeats auto-vectorization and forces a real libm call — exactly the
/// "extract, scalar call, insert" behaviour of vector code without a
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
