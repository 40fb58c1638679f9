//===- LookupBackend.cpp - The built-in backends by name ----------------------===//
//
// Part of the SPNC-Repro project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//

#include "backend/LookupBackend.h"

#include "backend/CppBackend.h"
#include "backend/VmBackend.h"

using namespace spnc;
using namespace spnc::backend;

Expected<std::shared_ptr<Backend>>
spnc::backend::lookupBackend(const std::string &Name) {
  if (Name == "vm") {
    static const std::shared_ptr<Backend> Vm = std::make_shared<VmBackend>();
    return Vm;
  }
  if (Name == "cpp") {
    static const std::shared_ptr<Backend> Cpp =
        std::make_shared<CppBackend>();
    return Cpp;
  }
  return makeError("unknown backend '" + Name +
                   "'; built-in backends: vm, cpp");
}
