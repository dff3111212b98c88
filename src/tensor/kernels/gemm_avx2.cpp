// gemm_avx2.cpp — the AVX2 build of gemm_body.inc.
//
// Built with -mavx2 -mno-fma -ffp-contract=off on x86-64 GCC/Clang (see
// src/tensor/CMakeLists.txt): no multiply-add is contracted to one
// rounding, so every C element sees the portable build's float operations.
// Code here may contain AVX2 instructions; gemm.cpp calls it only after
// avx2_available(). Elsewhere the file builds plain and is never called.
// Keep library templates out of this file: an out-of-line instantiation
// built here is a weak symbol the linker may also hand to portable callers.

#include <algorithm>
#include <cstring>

#include "tensor/kernels/gemm.hpp"

namespace tsdx::tensor::kernels::avx2 {

bool built() {
#if defined(__AVX2__) && !defined(__FMA__)
  return true;
#else
  return false;
#endif
}

#include "tensor/kernels/gemm_body.inc"

}  // namespace tsdx::tensor::kernels::avx2
