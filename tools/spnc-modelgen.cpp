//===- spnc-modelgen.cpp - Example model generator ------------------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the serialized example models under `examples/models/`.
/// The generators are deterministic (seeded xoshiro, see
/// support/Random.h), so the emitted `.spnb` bytes are reproducible on
/// any platform; CI regenerates them and runs `spnc-cli
/// --verify-each-stage --pipeline-report` over each.
///
/// Usage:
///   spnc-modelgen OUTPUT_DIR [--ratspn-classes N]
///
/// `--ratspn-classes N` instead emits `ratspn_class<k>.spnb` for k in
/// [0, N): N structurally-isomorphic RAT-SPN class models (shared
/// random structure, per-class weights) — the canonical merge-group
/// fleet for `spnc-serve --merge-models` smoke tests (docs/merging.md).
///
//===----------------------------------------------------------------------===//

#include "frontend/Serializer.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace spnc;

int main(int Argc, char **Argv) {
  if (Argc != 2 && !(Argc == 4 &&
                     std::string(Argv[2]) == "--ratspn-classes")) {
    std::fprintf(stderr,
                 "usage: spnc-modelgen OUTPUT_DIR [--ratspn-classes N]\n");
    return 2;
  }
  std::string Dir = Argv[1];

  std::vector<std::pair<std::string, spn::Model>> Models;

  if (Argc == 4) {
    int NumClasses = std::atoi(Argv[3]);
    if (NumClasses < 1 || NumClasses > 1000) {
      std::fprintf(stderr, "invalid class count '%s'\n", Argv[3]);
      return 2;
    }
    workloads::RatSpnOptions Rat;
    Rat.NumFeatures = 16;
    Rat.Depth = 2;
    Rat.Replicas = 2;
    Rat.SumsPerRegion = 3;
    Rat.LeafDistributions = 4;
    Rat.Seed = 101;
    for (int Class = 0; Class < NumClasses; ++Class)
      Models.emplace_back(
          "ratspn_class" + std::to_string(Class) + ".spnb",
          workloads::generateRatSpn(Rat,
                                    static_cast<unsigned>(Class)));
  } else {

    // Two speaker-identification SPNs (paper §V-A shape) at different
    // seeds/sizes — Gaussian-heavy graphs with histogram leaves.
    workloads::SpeakerModelOptions Speaker;
    Speaker.TargetOperations = 600;
    Speaker.Seed = 42;
    Models.emplace_back("speaker_small.spnb",
                        workloads::generateSpeakerModel(Speaker));
    Speaker.TargetOperations = 2569; // the paper's average model size
    Speaker.Seed = 7;
    Models.emplace_back("speaker_paper_avg.spnb",
                        workloads::generateSpeakerModel(Speaker));

    // One small RAT-SPN class model (paper §V-B shape) — deep tensorized
    // structure exercising partitioning-sized graphs.
    workloads::RatSpnOptions Rat = workloads::ratSpnSmallScale();
    Rat.NumFeatures = 64;
    Rat.Depth = 3;
    Rat.Replicas = 2;
    Rat.SumsPerRegion = 4;
    Rat.LeafDistributions = 8;
    Models.emplace_back("ratspn_tiny.spnb",
                        workloads::generateRatSpn(Rat, 0));
  }

  for (const auto &[Name, Model] : Models) {
    std::string Path = Dir + "/" + Name;
    if (failed(spn::saveModel(Model, Path))) {
      std::fprintf(stderr, "cannot write '%s'\n", Path.c_str());
      return 1;
    }
    spn::ModelStats Stats = Model.computeStats();
    std::fprintf(stderr, "wrote %s: %u features, %zu nodes\n",
                 Path.c_str(), Model.getNumFeatures(), Stats.NumNodes);
  }
  return 0;
}
