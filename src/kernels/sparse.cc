#include "kernels/sparse.h"

#include <string>

#include "obs/obs.h"

namespace tms::kernels {

Backend ChooseBackend(BackendChoice choice, double density, size_t dim,
                      bool has_sparse) {
  Backend picked = Backend::kDense;
  bool fallback = false;
  switch (choice) {
    case BackendChoice::kDense:
      break;
    case BackendChoice::kSparse:
      if (has_sparse) {
        picked = Backend::kSparse;
      } else {
        fallback = true;  // no CSR views were built; dense is all we have
      }
      break;
    case BackendChoice::kAuto:
      if (has_sparse && density <= kAutoSparseMaxDensity &&
          dim >= kAutoSparseMinDim) {
        picked = Backend::kSparse;
      }
      break;
  }
  if (picked == Backend::kSparse) {
    TMS_OBS_COUNT("kernels.sparse.chosen", 1);
  } else if (fallback) {
    TMS_OBS_COUNT("kernels.sparse.fallback", 1);
  } else {
    TMS_OBS_COUNT("kernels.sparse.rejected", 1);
  }
  return picked;
}

const char* BackendName(Backend backend) {
  return backend == Backend::kSparse ? "sparse" : "dense";
}

const char* BackendChoiceName(BackendChoice choice) {
  switch (choice) {
    case BackendChoice::kDense:
      return "dense";
    case BackendChoice::kSparse:
      return "sparse";
    case BackendChoice::kAuto:
      break;
  }
  return "auto";
}

std::optional<BackendChoice> ParseBackendChoice(const std::string& name) {
  if (name == "dense") return BackendChoice::kDense;
  if (name == "sparse") return BackendChoice::kSparse;
  if (name == "auto") return BackendChoice::kAuto;
  return std::nullopt;
}

size_t BuildCsr(const double* dense, size_t rows, size_t cols,
                std::vector<int32_t>* off, std::vector<int32_t>* idx,
                std::vector<double>* out_val) {
  off->clear();
  idx->clear();
  out_val->clear();
  off->reserve(rows + 1);
  off->push_back(0);
  for (size_t r = 0; r < rows; ++r) {
    const double* row = dense + r * cols;
    for (size_t c = 0; c < cols; ++c) {
      if (row[c] > 0.0) {
        idx->push_back(static_cast<int32_t>(c));
        out_val->push_back(row[c]);
      }
    }
    off->push_back(static_cast<int32_t>(idx->size()));
  }
  return idx->size();
}

size_t BuildCsrTranspose(const double* dense, size_t rows, size_t cols,
                         std::vector<int32_t>* off, std::vector<int32_t>* idx,
                         std::vector<double>* out_val) {
  // Column-outer scan keeps the output rows (= input columns) ascending
  // in the inner index, i.e. a valid CSR of the transpose.
  off->clear();
  idx->clear();
  out_val->clear();
  off->reserve(cols + 1);
  off->push_back(0);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      const double v = dense[r * cols + c];
      if (v > 0.0) {
        idx->push_back(static_cast<int32_t>(r));
        out_val->push_back(v);
      }
    }
    off->push_back(static_cast<int32_t>(idx->size()));
  }
  return idx->size();
}

namespace internal {

void CountSpGemv(size_t nnz) {
  TMS_OBS_COUNT("kernels.sparse.gemv.calls", 1);
  TMS_OBS_COUNT("kernels.sparse.gemv.nnz", static_cast<int64_t>(nnz));
  (void)nnz;
}

void CountSpGemm(size_t cells) {
  TMS_OBS_COUNT("kernels.sparse.gemm.calls", 1);
  TMS_OBS_COUNT("kernels.sparse.gemm.cells", static_cast<int64_t>(cells));
  (void)cells;
}

void CountSpMaskOr(size_t nnz) {
  TMS_OBS_COUNT("kernels.sparse.maskor.calls", 1);
  TMS_OBS_COUNT("kernels.sparse.maskor.nnz", static_cast<int64_t>(nnz));
  (void)nnz;
}

}  // namespace internal

namespace ref {

void SpMaskOr(const CsrView<double>& A, const Matrix<uint8_t>& B,
              Matrix<uint8_t>* C) {
  TMS_DCHECK(A.cols == B.rows() && A.rows == C->rows() &&
             B.cols() == C->cols());
  for (size_t i = 0; i < A.rows; ++i) {
    for (size_t j = 0; j < B.cols(); ++j) {
      uint8_t acc = 0;
      for (int32_t e = A.row_off[i]; e < A.row_off[i + 1]; ++e) {
        acc |= B(A.col_idx[e], j);
      }
      (*C)(i, j) = acc;
    }
  }
}

}  // namespace ref

void SpMaskOr(const CsrView<double>& A, const Matrix<uint8_t>& B,
              Matrix<uint8_t>* C) {
  TMS_DCHECK(A.cols == B.rows() && A.rows == C->rows() &&
             B.cols() == C->cols());
  const size_t n = B.cols();
  const int32_t* TMS_RESTRICT off = A.row_off;
  const int32_t* TMS_RESTRICT col = A.col_idx;
  for (size_t i = 0; i < A.rows; ++i) {
    uint8_t* TMS_RESTRICT crow = C->row(i);
    for (size_t j = 0; j < n; ++j) crow[j] = 0;
    for (int32_t e = off[i]; e < off[i + 1]; ++e) {
      const uint8_t* TMS_RESTRICT brow = B.row(col[e]);
      for (size_t j = 0; j < n; ++j) crow[j] |= brow[j];
    }
  }
  internal::CountSpMaskOr(A.nnz);
}

// Hot-path instantiations, compiled here under this file's vectorization
// flags (see src/CMakeLists.txt) and declared extern in sparse.h.
#define TMS_SPARSE_INSTANTIATE_SR(SR)                                     \
  template void SpGemvT<SR>(const CsrView<SR::Value>&,                    \
                            const Vector<SR::Value>&,                     \
                            Vector<SR::Value>*);                          \
  template void SpGemm<SR>(const CsrView<SR::Value>&,                     \
                           const Matrix<SR::Value>&, Matrix<SR::Value>*)
TMS_SPARSE_INSTANTIATE_SR(MaxPlus);
TMS_SPARSE_INSTANTIATE_SR(Real);
TMS_SPARSE_INSTANTIATE_SR(BoolOr);
#undef TMS_SPARSE_INSTANTIATE_SR

}  // namespace tms::kernels
