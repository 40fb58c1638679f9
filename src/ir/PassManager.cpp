//===- PassManager.cpp - Pass infrastructure with timing --------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "ir/PassManager.h"

#include "ir/Operation.h"
#include "ir/Verifier.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

using namespace spnc;
using namespace spnc::ir;

Pass::~Pass() = default;

LogicalResult PassManager::run(Operation *Module) {
  Timings.clear();
  for (auto &ThePass : Passes) {
    Timer PassTimer;
    LogicalResult Result = ThePass->run(Module, Ctx);
    Timings.push_back(
        PassTiming{ThePass->getName(), PassTimer.elapsedNs(), 0});
    if (failed(Result)) {
      Ctx.emitError(
          formatString("pass '%s' failed", ThePass->getName()));
      return failure();
    }
    if (!VerifyAfterEachPass)
      continue;
    Timer VerifyTimer;
    LogicalResult Verified = verify(Module);
    Timings.back().VerifyNs = VerifyTimer.elapsedNs();
    if (failed(Verified)) {
      Ctx.emitError(formatString("IR verification failed after pass '%s'",
                                 ThePass->getName()));
      return failure();
    }
  }
  return success();
}

uint64_t PassManager::getTotalNs() const {
  uint64_t Total = 0;
  for (const PassTiming &Entry : Timings)
    Total += Entry.WallNs;
  return Total;
}
