#ifndef TRMMA_NN_ATTENTION_H_
#define TRMMA_NN_ATTENTION_H_

#include "nn/layers.h"
#include "nn/module.h"

namespace trmma {
namespace nn {

/// Multi-head scaled dot-product self/cross attention (paper Eq. 4).
/// Model dimension must be divisible by the number of heads.
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int model_dim, int num_heads, Rng& rng);

  /// MHAttn(Q=query, K=keys, V=keys): query (n x d), keys (m x d) -> n x d.
  Tensor Forward(Tensor query, Tensor keys);

  /// Tape-free Forward on row-major buffers: query (n x d), keys (m x d)
  /// -> out (n x d), bit-identical to Forward's value. Projections,
  /// scores and heads live in InferScratch; `out` must not alias the
  /// inputs.
  void Infer(const double* query, int n, const double* keys, int m,
             double* out) const;

  int model_dim() const { return model_dim_; }
  int num_heads() const { return num_heads_; }

 private:
  int model_dim_;
  int num_heads_;
  int head_dim_;
  Param* wq_;
  Param* wk_;
  Param* wv_;
  Param* wo_;
};

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_ATTENTION_H_
