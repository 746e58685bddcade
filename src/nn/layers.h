#ifndef TRMMA_NN_LAYERS_H_
#define TRMMA_NN_LAYERS_H_

#include "nn/module.h"
#include "nn/ops.h"

namespace trmma {
namespace nn {

/// Fully-connected layer y = xW + b.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free Forward: x (rows x in) -> out (rows x out), bit-identical
  /// to Forward's value. `out` must not alias `x`.
  void Infer(const double* x, int rows, double* out) const;

  int in_dim() const { return w_->value.rows(); }
  int out_dim() const { return w_->value.cols(); }

  Param& weight() { return *w_; }
  Param& bias() { return *b_; }

 private:
  Param* w_;
  Param* b_;
};

/// Two-layer perceptron with ReLU: relu(xW1+b1)W2+b2 (paper Eq. 2/7/15).
class Mlp : public Module {
 public:
  Mlp(int in_dim, int hidden_dim, int out_dim, Rng& rng);

  Tensor Forward(Tensor x);

  /// Tape-free Forward (hidden layer in InferScratch::hidden);
  /// bit-identical to Forward's value. `out` must not alias `x`.
  void Infer(const double* x, int rows, double* out) const;

 private:
  Linear fc1_;
  Linear fc2_;
};

/// Row-wise layer normalization with trainable gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim);

  Tensor Forward(Tensor x);

  /// Tape-free, in-place Forward over a rows x dim buffer; bit-identical
  /// to Forward's value.
  void Infer(double* x, int rows) const;

 private:
  Param* gamma_;
  Param* beta_;
};

/// Trainable embedding table; rows are looked up by integer id. Supports
/// initialization from pre-trained vectors (MMA initializes its segment
/// table from Node2Vec, paper Eq. 1).
class Embedding : public Module {
 public:
  Embedding(int num_rows, int dim, Rng& rng);

  /// Overwrites the table with pre-trained vectors (same shape).
  void LoadPretrained(const Matrix& table);

  Tensor Forward(Tape& tape, const std::vector<int>& ids);

  Param& table() { return *table_; }
  const Param& table() const { return *table_; }

 private:
  Param* table_;
};

}  // namespace nn
}  // namespace trmma

#endif  // TRMMA_NN_LAYERS_H_
