#ifndef TRMMA_NN_MATRIX_H_
#define TRMMA_NN_MATRIX_H_

#include <cstdint>
#include <vector>

namespace trmma {
namespace nn {

/// Process-wide matrix storage accounting, maintained by every Matrix
/// special member. Feeds the op profiler's bytes-per-op column and the
/// training telemetry's peak-bytes field.
struct MatrixAllocStats {
  int64_t total_bytes = 0;  ///< cumulative bytes ever allocated
  int64_t live_bytes = 0;   ///< bytes currently held by live matrices
  int64_t peak_bytes = 0;   ///< high-water mark of live_bytes
};

MatrixAllocStats GetMatrixAllocStats();

/// Cumulative allocated bytes (monotonic); cheap single atomic load, used
/// by the profiler to attribute allocation deltas to ops.
int64_t MatrixBytesAllocated();

/// Resets the peak-bytes high-water mark to the current live bytes, so a
/// training step can report its own peak.
void ResetMatrixPeakBytes();

/// Dense row-major matrix of doubles: the storage type of the from-scratch
/// neural-network substrate. Double precision keeps numerical gradient
/// checks tight; model dimensions in this project are small (d <= 64) so
/// the cost is acceptable. All special members keep the process-wide
/// allocation stats above in sync (one relaxed atomic op each — far below
/// the cost of the heap allocation itself).
class Matrix {
 public:
  Matrix() = default;
  /// Zero-initialized rows x cols matrix.
  Matrix(int rows, int cols);
  Matrix(int rows, int cols, double fill);
  Matrix(const Matrix& o);
  Matrix(Matrix&& o) noexcept;
  Matrix& operator=(const Matrix& o);
  Matrix& operator=(Matrix&& o) noexcept;
  ~Matrix();

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }
  bool empty() const { return data_.empty(); }

  double& at(int r, int c) { return data_[r * cols_ + c]; }
  double at(int r, int c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  double* row(int r) { return data_.data() + r * cols_; }
  const double* row(int r) const { return data_.data() + r * cols_; }

  /// Sets every element to `v`.
  void Fill(double v);

  /// In-place scaled accumulate: this += alpha * other (same shape).
  void Axpy(double alpha, const Matrix& other);

  /// Sum of all elements.
  double Sum() const;

  bool SameShape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// out = a * b. Shapes must agree; out is resized.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a * b (accumulating variant used by gradients).
void AddMatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a^T * b.
void AddMatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a * b^T.
void AddMatMulTransB(const Matrix& a, const Matrix& b, Matrix* out);

/// out += a * b on row-major buffers with leading dimensions lda/ldb/ldo
/// (a is m x k, b is k x n, out is m x n; a column block of a wider
/// matrix is addressed by offsetting the pointer and keeping its width as
/// the leading dimension). The GEMM of the tape-free inference path: it
/// keeps AddMatMul's per-element summation order (p ascending from out's
/// current value) and its skip of zero a-elements, with no fused
/// multiply-add, so its results are bit-identical to AddMatMul's. Columns
/// run in blocks of 8 held in SSE2-width vector registers (x86-64's
/// baseline ISA, so no -march flag is needed), with a 2-wide and a scalar
/// tail.
void AddMatMulBlocked(const double* a, int lda, const double* b, int ldb,
                      double* out, int ldo, int m, int k, int n);

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_MATRIX_H_
