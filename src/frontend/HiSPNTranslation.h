//===- HiSPNTranslation.h - SPN model to HiSPN dialect translation ------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Entry point into the MLIR-style compilation flow (paper §IV-A2):
/// translates an SPFlow-equivalent model plus a query description into a
/// module holding one HiSPN query op (`hi_spn.joint_query`,
/// `hi_spn.mpe_query` or `hi_spn.sample_query`). The translation is
/// straightforward because HiSPN deliberately mirrors SPFlow's internal
/// representation.
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_FRONTEND_HISPNTRANSLATION_H
#define SPNC_FRONTEND_HISPNTRANSLATION_H

#include "frontend/Model.h"
#include "frontend/Query.h"
#include "ir/BuiltinOps.h"

namespace spnc {
namespace spn {

/// Translates \p TheModel with query \p Config into a fresh module in
/// \p Ctx. \p Config is resolved first (spn::resolveQuery), so every
/// spelling of a marginal query translates alike. Shared DAG nodes
/// translate to a single operation whose result is reused by every
/// parent. Returns a null ref if the model fails validation.
///
/// Joint and marginal queries tag every sum and leaf op with a `param`
/// integer attribute: the index of its first tunable parameter in the
/// canonical order of `merge::extractParams` (sum weights in child order,
/// histogram bucket masses, categorical probabilities, Gaussian mean then
/// stddev). The translation walks the same topological order as the
/// extraction, so the bases line up by construction. Downstream passes
/// use the tag to keep the program shape independent of the parameter
/// values, so every likelihood kernel takes weight tables
/// (docs/merging.md). MPE and sampling queries stay untagged: their
/// traceback plan bakes mode values.
ir::OwningOpRef<ir::ModuleOp> translateToHiSPN(ir::Context &Ctx,
                                               const Model &TheModel,
                                               const QueryConfig &Config);

} // namespace spn
} // namespace spnc

#endif // SPNC_FRONTEND_HISPNTRANSLATION_H
