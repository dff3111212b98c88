// gemm_wide.hpp — the AVX2 capability check under its plan-layer name.
//
// Compiled plans run their GEMMs on the AVX2 build of the blocked kernel
// when the host supports it (tensor::kernels::Isa::kAvx2); the build and
// the check live in src/tensor/kernels.
#pragma once

#include "tensor/kernels/gemm.hpp"

namespace tsdx::plan::wide {

/// True when the running CPU supports AVX2 (tensor::kernels::cpu_supported).
using tensor::kernels::cpu_supported;

}  // namespace tsdx::plan::wide
