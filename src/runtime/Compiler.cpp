//===- Compiler.cpp - End-to-end SPNC compilation driver -----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"

#include "backend/VmBackend.h"
#include "support/ByteStream.h"
#include "support/FileIO.h"
#include "vm/ParamTable.h"
#include "vm/ProgramBinary.h"

#include <cstdio>

using namespace spnc;
using namespace spnc::runtime;

Expected<CompiledKernel>
spnc::runtime::compileModel(const spn::Model &TheModel,
                            const spn::QueryConfig &Config,
                            const CompilerOptions &Options,
                            CompileStats *Stats) {
  Expected<CompilationPipeline> Pipeline =
      CompilationPipeline::create(Options);
  if (!Pipeline)
    return Pipeline.getError();
  backend::VmBackend Vm;
  Expected<backend::CompiledArtifact> Artifact =
      Vm.compile(*Pipeline, TheModel, Config, Stats);
  if (!Artifact)
    return Artifact.getError();
  return CompiledKernel(std::move(Artifact->Engine));
}

LogicalResult
spnc::runtime::saveCompiledKernel(const CompiledKernel &Kernel,
                                  const std::string &Path,
                                  std::string *ErrorMessage) {
  // A kernel sharing its engine with isomorphic models answers under
  // its own weight table: save the program bound to it.
  int32_t Table = Kernel.getTableIndex();
  std::vector<double> Raw;
  if (Table >= 0) {
    Raw = Kernel.getEngine().getParamTable(Table);
    if (Raw.size() != Kernel.getProgram().NumParams) {
      if (ErrorMessage)
        *ErrorMessage = "kernel's weight table " + std::to_string(Table) +
                        " is not registered on its engine";
      return failure();
    }
  }
  std::vector<uint8_t> Blob = vm::encodeProgram(
      Table < 0 ? Kernel.getProgram()
                : vm::bindProgram(Kernel.getProgram(), Raw));
  return replaceFileAtomically(Path, asChars(Blob), ErrorMessage);
}

Expected<CompiledKernel> spnc::runtime::loadCompiledKernel(
    const std::string &Path, Target TheTarget,
    vm::ExecutionConfig Execution, gpusim::GpuDeviceConfig Device,
    unsigned GpuBlockSize) {
  Expected<vm::KernelProgram> Program = vm::readProgramFile(Path);
  if (!Program)
    return Program.getError();

  // Resolve the engine from the lowering target recorded in the binary
  // header; warn when an explicit target contradicts it (the program
  // still runs — both engines execute either lowering).
  Target Recorded = Target::Auto;
  if (Program->Lowering == vm::LoweringKind::TableLookup)
    Recorded = Target::CPU;
  else if (Program->Lowering == vm::LoweringKind::SelectCascade)
    Recorded = Target::GPU;
  if (TheTarget == Target::Auto)
    TheTarget = Recorded == Target::Auto ? Target::CPU : Recorded;
  else if (Recorded != Target::Auto && TheTarget != Recorded)
    std::fprintf(stderr,
                 "warning: '%s' was compiled for the %s lowering but is "
                 "loaded on the %s engine\n",
                 Path.c_str(), targetName(Recorded),
                 targetName(TheTarget));

  CompilerOptions Options;
  Options.TheTarget = TheTarget;
  Options.Execution = Execution;
  Options.Device = Device;
  Options.GpuBlockSize = GpuBlockSize;
  Expected<PipelineConfig> Config = PipelineConfig::create(Options);
  if (!Config)
    return Config.getError();
  backend::VmBackend Vm;
  Expected<backend::CompiledArtifact> Artifact =
      Vm.materialize(Program.takeValue(), *Config);
  if (!Artifact)
    return Artifact.getError();
  return CompiledKernel(std::move(Artifact->Engine));
}
