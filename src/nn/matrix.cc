#include "nn/matrix.h"

#include <atomic>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace trmma {
namespace nn {
namespace {

std::atomic<int64_t> g_total_bytes{0};
std::atomic<int64_t> g_live_bytes{0};
std::atomic<int64_t> g_peak_bytes{0};

void TrackAlloc(int64_t bytes) {
  if (bytes == 0) return;
  g_total_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const int64_t live =
      g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void TrackFree(int64_t bytes) {
  if (bytes != 0) g_live_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

// Two doubles: one SSE2 register. Vector-extension arithmetic is lane-wise
// IEEE double, exactly the scalar operations.
typedef double V2 __attribute__((vector_size(16)));

inline V2 LoadV2(const double* p) {
  V2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreV2(double* p, V2 v) { std::memcpy(p, &v, sizeof(v)); }

int64_t LogicalBytes(int rows, int cols) {
  return static_cast<int64_t>(rows) * cols *
         static_cast<int64_t>(sizeof(double));
}

}  // namespace

MatrixAllocStats GetMatrixAllocStats() {
  MatrixAllocStats s;
  s.total_bytes = g_total_bytes.load(std::memory_order_relaxed);
  s.live_bytes = g_live_bytes.load(std::memory_order_relaxed);
  s.peak_bytes = g_peak_bytes.load(std::memory_order_relaxed);
  return s;
}

int64_t MatrixBytesAllocated() {
  return g_total_bytes.load(std::memory_order_relaxed);
}

void ResetMatrixPeakBytes() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

Matrix::Matrix(int rows, int cols) : Matrix(rows, cols, 0.0) {}

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  TRMMA_CHECK_GE(rows, 0);
  TRMMA_CHECK_GE(cols, 0);
  TrackAlloc(LogicalBytes(rows_, cols_));
}

Matrix::Matrix(const Matrix& o)
    : rows_(o.rows_), cols_(o.cols_), data_(o.data_) {
  TrackAlloc(LogicalBytes(rows_, cols_));
}

Matrix::Matrix(Matrix&& o) noexcept
    : rows_(o.rows_), cols_(o.cols_), data_(std::move(o.data_)) {
  // The moved-from matrix no longer owns storage; its bytes are ours now.
  o.rows_ = 0;
  o.cols_ = 0;
  o.data_.clear();
}

Matrix& Matrix::operator=(const Matrix& o) {
  if (this == &o) return *this;
  TrackFree(LogicalBytes(rows_, cols_));
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_ = o.data_;
  TrackAlloc(LogicalBytes(rows_, cols_));
  return *this;
}

Matrix& Matrix::operator=(Matrix&& o) noexcept {
  if (this == &o) return *this;
  TrackFree(LogicalBytes(rows_, cols_));
  rows_ = o.rows_;
  cols_ = o.cols_;
  data_ = std::move(o.data_);
  o.rows_ = 0;
  o.cols_ = 0;
  o.data_.clear();
  return *this;
}

Matrix::~Matrix() { TrackFree(LogicalBytes(rows_, cols_)); }

void Matrix::Fill(double v) {
  for (double& x : data_) x = v;
}

void Matrix::Axpy(double alpha, const Matrix& other) {
  TRMMA_CHECK(SameShape(other));
  const double* src = other.data();
  double* dst = data();
  for (int i = 0; i < size(); ++i) dst[i] += alpha * src[i];
}

double Matrix::Sum() const {
  double total = 0.0;
  for (double x : data_) total += x;
  return total;
}

void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  *out = Matrix(a.rows(), b.cols());
  AddMatMul(a, b, out);
}

void AddMatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.cols(), b.rows());
  TRMMA_CHECK_EQ(out->rows(), a.rows());
  TRMMA_CHECK_EQ(out->cols(), b.cols());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  // i-k-j loop order: streams through b and out rows contiguously.
  for (int i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    double* orow = out->row(i);
    for (int p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.row(p);
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void AddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.rows(), b.rows());
  TRMMA_CHECK_EQ(out->rows(), a.cols());
  TRMMA_CHECK_EQ(out->cols(), b.cols());
  const int m = a.cols();
  const int k = a.rows();
  const int n = b.cols();
  for (int p = 0; p < k; ++p) {
    const double* arow = a.row(p);
    const double* brow = b.row(p);
    for (int i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->row(i);
      for (int j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void AddMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out) {
  TRMMA_CHECK_EQ(a.cols(), b.cols());
  TRMMA_CHECK_EQ(out->rows(), a.rows());
  TRMMA_CHECK_EQ(out->cols(), b.rows());
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.rows();
  for (int i = 0; i < m; ++i) {
    const double* arow = a.row(i);
    double* orow = out->row(i);
    for (int j = 0; j < n; ++j) {
      const double* brow = b.row(j);
      double acc = 0.0;
      for (int p = 0; p < k; ++p) acc += arow[p] * brow[p];
      orow[j] += acc;
    }
  }
}

void AddMatMulBlocked(const double* a, int lda, const double* b, int ldb,
                      double* out, int ldo, int m, int k, int n) {
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * lda;
    double* orow = out + static_cast<size_t>(i) * ldo;
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      V2 c0 = LoadV2(orow + j);
      V2 c1 = LoadV2(orow + j + 2);
      V2 c2 = LoadV2(orow + j + 4);
      V2 c3 = LoadV2(orow + j + 6);
      for (int p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const V2 a2 = {av, av};
        const double* brow = b + static_cast<size_t>(p) * ldb + j;
        c0 += a2 * LoadV2(brow);
        c1 += a2 * LoadV2(brow + 2);
        c2 += a2 * LoadV2(brow + 4);
        c3 += a2 * LoadV2(brow + 6);
      }
      StoreV2(orow + j, c0);
      StoreV2(orow + j + 2, c1);
      StoreV2(orow + j + 4, c2);
      StoreV2(orow + j + 6, c3);
    }
    for (; j + 2 <= n; j += 2) {
      V2 c0 = LoadV2(orow + j);
      for (int p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        const V2 a2 = {av, av};
        c0 += a2 * LoadV2(b + static_cast<size_t>(p) * ldb + j);
      }
      StoreV2(orow + j, c0);
    }
    if (j < n) {
      double c0 = orow[j];
      for (int p = 0; p < k; ++p) {
        const double av = arow[p];
        if (av == 0.0) continue;
        c0 += av * b[static_cast<size_t>(p) * ldb + j];
      }
      orow[j] = c0;
    }
  }
}

}  // namespace nn
}  // namespace trmma
