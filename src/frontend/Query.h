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

/// The inference task a kernel is compiled for (docs/queries.md), and
/// the one definition of the query kinds: the vm layer names it as
/// `vm::QueryKind`. The numeric values are a stable on-disk contract
/// (the `.spnk` header's query byte) and must not be reordered.
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
static_assert(static_cast<uint8_t>(QueryKind::Joint) == 0 &&
                  static_cast<uint8_t>(QueryKind::Marginal) == 1 &&
                  static_cast<uint8_t>(QueryKind::Mpe) == 2 &&
                  static_cast<uint8_t>(QueryKind::Sample) == 3,
              "the .spnk header stores these values");

/// True for the likelihood kinds (joint and marginal): one
/// (log-)probability per row, a kernel keyed on the model's structure
/// that takes weight tables.
constexpr bool isLikelihood(QueryKind Kind) {
  return Kind == QueryKind::Joint || Kind == QueryKind::Marginal;
}

/// True for the kinds that complete rows through a downward traceback
/// after the upward pass (MPE and sampling).
constexpr bool needsTraceback(QueryKind Kind) {
  return Kind == QueryKind::Mpe || Kind == QueryKind::Sample;
}

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
/// is joint inference with NaN evidence for the marginalized features;
/// MPE and sampling reuse the same NaN contract for their unobserved
/// features (see docs/queries.md).
struct QueryConfig {
  /// The inference task to compile for. `Joint` with SupportMarginal
  /// is another spelling of `Marginal`: spn::resolveQuery folds it into
  /// the kind, and the compiler, the kernel cache and the engines read
  /// the resolved kind only.
  QueryKind Kind = QueryKind::Joint;
  /// Optimization hint: chunk size used for multi-threading on CPU and
  /// block size for GPU kernel launches. The compiled kernel still
  /// accepts arbitrary batch sizes.
  uint32_t BatchSize = 4096;
  /// Compute in log-space to avoid arithmetic underflow (paper §III-B).
  bool LogSpace = true;
  /// Generate NaN checks so features can be marginalized at run time:
  /// an input spelling of `Kind = Marginal`. `Marginal`, `Mpe` and
  /// `Sample` always support marginalized evidence, so after
  /// resolution it is true exactly for the non-joint kinds.
  bool SupportMarginal = false;
  /// Input feature datatype is always a float here (f64); the compute
  /// type may be narrower.
  ComputeType DataType = ComputeType::Auto;
};

/// The kind \p Query asks for: a joint query with SupportMarginal is a
/// marginal one (spn::resolveQuery stores it in the kind).
constexpr QueryKind resolvedKind(const QueryConfig &Query) {
  return Query.Kind == QueryKind::Joint && Query.SupportMarginal
             ? QueryKind::Marginal
             : Query.Kind;
}

} // namespace spn
} // namespace spnc

#endif // SPNC_FRONTEND_QUERY_H
