#ifndef TRMMA_NN_INFER_H_
#define TRMMA_NN_INFER_H_

#include <cstddef>
#include <vector>

namespace trmma {
namespace nn {

/// Grow-only activation buffers of the tape-free inference path (the
/// const Infer methods of Linear, Mlp, LayerNorm, MultiHeadAttention and
/// the transformer). One set per thread, so one shared model serves any
/// number of threads and steady-state inference allocates nothing. A
/// buffer is live only inside the Infer call that fills it, and Infer
/// calls do not nest, so a caller may use the buffers between calls.
struct InferScratch {
  std::vector<double> q, k, v, kt, scores, heads;  ///< MultiHeadAttention
  std::vector<double> attn, ffn;                   ///< TransformerLayer
  std::vector<double> hidden;                      ///< Mlp

  /// This thread's scratch.
  static InferScratch& ForThread();
};

/// Resizes `buf` to `n` zeros (keeping its capacity) and returns its data.
double* Zeroed(std::vector<double>& buf, size_t n);

/// dst (cols x rows) = src^T for a row-major rows x cols block whose rows
/// are `ld` apart.
void TransposeInto(const double* src, int ld, int rows, int cols,
                   double* dst);

/// In-place row-wise softmax of a rows x cols buffer, the exact arithmetic
/// of ops::SoftmaxRows.
void SoftmaxRowsInPlace(double* x, int rows, int cols);

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_INFER_H_
