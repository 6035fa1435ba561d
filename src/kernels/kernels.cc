#include "kernels/kernels.h"

#include <cmath>

#include "obs/obs.h"

namespace tms::kernels {

bool HasNaN(const double* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::isnan(p[i])) return true;
  }
  return false;
}

namespace internal {

void CountGemv(size_t cells) {
  TMS_OBS_COUNT("kernels.gemv.calls", 1);
  TMS_OBS_COUNT("kernels.gemv.cells", static_cast<int64_t>(cells));
  (void)cells;
}

void CountGemm(size_t cells) {
  TMS_OBS_COUNT("kernels.gemm.calls", 1);
  TMS_OBS_COUNT("kernels.gemm.cells", static_cast<int64_t>(cells));
  (void)cells;
}

}  // namespace internal

// Hot-path instantiations, compiled here under this file's vectorization
// flags (see src/CMakeLists.txt) and declared extern in kernels.h.
#define TMS_KERNELS_INSTANTIATE_SR(SR)                                   \
  template void GemvT<SR>(const Matrix<SR::Value>&,                      \
                          const Vector<SR::Value>&, Vector<SR::Value>*); \
  template void GemmTN<SR>(const Matrix<SR::Value>&,                     \
                           const Matrix<SR::Value>&, Matrix<SR::Value>*); \
  template void RowReduce<SR>(const Matrix<SR::Value>&,                  \
                              Vector<SR::Value>*);                       \
  template void EdgeScatter<SR>(const Matrix<SR::Value>&, const int32_t*, \
                                const int32_t*, Matrix<SR::Value>*)
TMS_KERNELS_INSTANTIATE_SR(MaxPlus);
TMS_KERNELS_INSTANTIATE_SR(Real);
TMS_KERNELS_INSTANTIATE_SR(BoolOr);
#undef TMS_KERNELS_INSTANTIATE_SR

}  // namespace tms::kernels
