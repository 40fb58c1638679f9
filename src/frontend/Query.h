//===- Query.h - Probabilistic query description ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Describes the probabilistic query to compile (paper §III-A): the query
/// kind, the batch size hint, the input datatype and whether marginal
/// inference (NaN evidence) must be supported.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_FRONTEND_QUERY_H
#define SPNC_FRONTEND_QUERY_H

#include <cstdint>
#include <initializer_list>

namespace spnc {
namespace spn {

/// Concrete computation datatype selection. `Auto` defers the choice to
/// the HiSPN->LoSPN lowering, which picks based on graph depth (paper
/// §III-A: "the decision can then be based on characteristics, e.g., the
/// depth of the graph").
enum class ComputeType : uint8_t { Auto, F32, F64 };

/// The inference task a kernel is compiled for (docs/queries.md). The
/// numeric values are a stable on-disk contract (kernel cache keys and
/// the `.spnk` header) and must not be reordered.
enum class QueryKind : uint8_t {
  /// Joint probability of fully observed evidence.
  Joint = 0,
  /// Joint with NaN evidence marginalizing features (paper §V-A).
  Marginal = 1,
  /// Most probable explanation: max-product upward pass plus argmax
  /// downward traceback; returns the completed assignment and its
  /// max-product log-probability. Argmax ties resolve to the lowest
  /// child index.
  Mpe = 2,
  /// Seeded ancestral sampling, optionally conditioned on partial
  /// evidence (NaN = unobserved).
  Sample = 3,
};

/// Returns the stable query-kind name used by `--query=` flags.
inline const char *queryKindName(QueryKind Kind) {
  switch (Kind) {
  case QueryKind::Joint:
    return "joint";
  case QueryKind::Marginal:
    return "marginal";
  case QueryKind::Mpe:
    return "mpe";
  case QueryKind::Sample:
    return "sample";
  }
  return "<invalid>";
}

/// Parses a `--query=` value; returns false for unknown names.
inline bool parseQueryKind(const char *Name, QueryKind &Kind) {
  for (QueryKind K : {QueryKind::Joint, QueryKind::Marginal,
                      QueryKind::Mpe, QueryKind::Sample}) {
    const char *Candidate = queryKindName(K);
    const char *P = Name;
    const char *Q = Candidate;
    while (*P && *P == *Q) {
      ++P;
      ++Q;
    }
    if (!*P && !*Q) {
      Kind = K;
      return true;
    }
  }
  return false;
}

/// A probabilistic query over a batch of samples. Marginal inference
/// is joint inference with SupportMarginal = true and NaN evidence for
/// the marginalized features; MPE and sampling reuse the same NaN
/// contract for their unobserved features (see docs/queries.md).
struct QueryConfig {
  /// The inference task to compile for. `Marginal` is `Joint` plus
  /// SupportMarginal; `Mpe`/`Sample` always imply SupportMarginal
  /// (conditioning needs NaN evidence handling).
  QueryKind Kind = QueryKind::Joint;
  /// Optimization hint: chunk size used for multi-threading on CPU and
  /// block size for GPU kernel launches. The compiled kernel still
  /// accepts arbitrary batch sizes.
  uint32_t BatchSize = 4096;
  /// Compute in log-space to avoid arithmetic underflow (paper §III-B).
  bool LogSpace = true;
  /// Generate NaN checks so features can be marginalized at run time.
  bool SupportMarginal = false;
  /// Input feature datatype is always a float here (f64); the compute
  /// type may be narrower.
  ComputeType DataType = ComputeType::Auto;
};

} // namespace spn
} // namespace spnc

#endif // SPNC_FRONTEND_QUERY_H
