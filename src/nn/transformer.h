#ifndef TRMMA_NN_TRANSFORMER_H_
#define TRMMA_NN_TRANSFORMER_H_

#include <memory>
#include <vector>

#include "nn/attention.h"
#include "nn/layers.h"
#include "nn/module.h"

namespace trmma {
namespace nn {

/// One post-norm transformer encoder layer (paper Eq. 6):
///   X' = LayerNorm(X + MHAttn(X,X,X));  out = LayerNorm(X' + FFN(X')).
class TransformerLayer : public Module {
 public:
  TransformerLayer(int model_dim, int num_heads, int ffn_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free, in-place Forward over a rows x model_dim buffer;
  /// bit-identical to Forward's value.
  void Infer(double* x, int rows) const;

 private:
  MultiHeadAttention attention_;
  Mlp ffn_;
  LayerNorm norm1_;
  LayerNorm norm2_;
};

/// A stack of transformer layers with additive sinusoidal positional
/// encodings (Trans(.) in paper Eq. 3/11/12).
class TransformerEncoder : public Module {
 public:
  TransformerEncoder(int model_dim, int num_heads, int ffn_dim,
                     int num_layers, Rng& rng);

  /// Encodes a sequence (len x d) -> (len x d).
  Tensor Forward(Tensor x);

  /// Tape-free Forward for inference: replaces `x` (len x d) with its
  /// encoding, bit-identical to Forward's value. Const, with activations
  /// in the calling thread's InferScratch, so one encoder serves any
  /// number of threads. Forward stays the training path and the oracle.
  void Infer(Matrix* x) const;

 private:
  int model_dim_;
  std::vector<std::unique_ptr<TransformerLayer>> layers_;
};

/// Sinusoidal positional encoding matrix (len x dim).
Matrix SinusoidalPositionalEncoding(int len, int dim);

/// Rows [0, len) of the dim-wide sinusoidal positional encoding (row-major,
/// `dim` apart), served from the calling thread's cache: each row is
/// computed once per thread and dim, with the same arithmetic as ever, so
/// the values are bit-identical to a fresh computation. No lock; the
/// pointer is valid until the thread's next call.
const double* PositionalEncodingRows(int len, int dim);

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_TRANSFORMER_H_
