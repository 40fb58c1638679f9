//===- PassManager.h - Pass infrastructure with timing ----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal pass infrastructure in the spirit of MLIR's PassManager. Passes
/// operate on the top-level module op. Each pass execution is timed; the
/// recorded per-pass timings feed the compile-time breakdown experiment
/// (paper §V-B1).
///
//===----------------------------------------------------------------------===//

#ifndef SPNC_IR_PASSMANAGER_H
#define SPNC_IR_PASSMANAGER_H

#include "support/LogicalResult.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace spnc {
namespace ir {

class Context;
class Operation;

/// Base class for module-level transformations.
class Pass {
public:
  virtual ~Pass();

  /// Human-readable pass name used in timing reports.
  virtual const char *getName() const = 0;

  /// Transforms \p Module. Returning failure aborts the pipeline.
  virtual LogicalResult run(Operation *Module, Context &Ctx) = 0;
};

/// Wall-clock time spent in one pass execution.
struct PassTiming {
  std::string PassName;
  uint64_t WallNs = 0;
  /// Wall clock of the verification after the pass; 0 when the pass
  /// manager does not verify.
  uint64_t VerifyNs = 0;
};

/// Runs a sequence of passes over a module, recording timings and
/// (optionally) verifying the IR after each pass.
class PassManager {
public:
  explicit PassManager(Context &Ctx, bool VerifyAfterEachPass = true)
      : Ctx(Ctx), VerifyAfterEachPass(VerifyAfterEachPass) {}

  /// Appends \p ThePass to the pipeline.
  void addPass(std::unique_ptr<Pass> ThePass) {
    Passes.push_back(std::move(ThePass));
  }

  /// Convenience: constructs and appends a pass.
  template <typename PassTy, typename... Args>
  void addPass(Args &&...PassArgs) {
    Passes.push_back(std::make_unique<PassTy>(std::forward<Args>(PassArgs)...));
  }

  /// Runs all passes in order. Stops at the first failure.
  LogicalResult run(Operation *Module);

  /// Per-pass timings of the most recent run().
  const std::vector<PassTiming> &getTimings() const { return Timings; }

  /// Total wall time of the most recent run() in nanoseconds.
  uint64_t getTotalNs() const;

private:
  Context &Ctx;
  bool VerifyAfterEachPass;
  std::vector<std::unique_ptr<Pass>> Passes;
  std::vector<PassTiming> Timings;
};

} // namespace ir
} // namespace spnc

#endif // SPNC_IR_PASSMANAGER_H
