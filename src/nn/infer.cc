#include "nn/infer.h"

#include <algorithm>
#include <cmath>

namespace trmma {
namespace nn {

InferScratch& InferScratch::ForThread() {
  thread_local InferScratch scratch;
  return scratch;
}

double* Zeroed(std::vector<double>& buf, size_t n) {
  buf.assign(n, 0.0);
  return buf.data();
}

void TransposeInto(const double* src, int ld, int rows, int cols,
                   double* dst) {
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) dst[c * rows + r] = src[r * ld + c];
  }
}

void SoftmaxRowsInPlace(double* x, int rows, int cols) {
  for (int r = 0; r < rows; ++r) {
    double* row = x + static_cast<size_t>(r) * cols;
    double mx = row[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    for (int c = 0; c < cols; ++c) row[c] /= sum;
  }
}

}  // namespace nn
}  // namespace trmma
