#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/infer.h"

namespace trmma {
namespace nn {

Linear::Linear(int in_dim, int out_dim, Rng& rng)
    : w_(AddParam("w", XavierUniform(in_dim, out_dim, rng))),
      b_(AddParam("b", Matrix(1, out_dim))) {}

Tensor Linear::Forward(Tensor x) { return ops::Affine(x, *w_, *b_); }

void Linear::Infer(const double* x, int rows, double* out) const {
  const int in = in_dim();
  const int n = out_dim();
  std::fill(out, out + static_cast<size_t>(rows) * n, 0.0);
  AddMatMulBlocked(x, in, w_->value.data(), n, out, n, rows, in, n);
  const double* b = b_->value.data();
  for (int r = 0; r < rows; ++r) {
    double* orow = out + static_cast<size_t>(r) * n;
    for (int c = 0; c < n; ++c) orow[c] += b[c];
  }
}

Mlp::Mlp(int in_dim, int hidden_dim, int out_dim, Rng& rng)
    : fc1_(in_dim, hidden_dim, rng), fc2_(hidden_dim, out_dim, rng) {
  AddChild(&fc1_);
  AddChild(&fc2_);
}

Tensor Mlp::Forward(Tensor x) {
  return fc2_.Forward(ops::Relu(fc1_.Forward(x)));
}

void Mlp::Infer(const double* x, int rows, double* out) const {
  const size_t n = static_cast<size_t>(rows) * fc1_.out_dim();
  std::vector<double>& hidden = InferScratch::ForThread().hidden;
  hidden.resize(n);
  fc1_.Infer(x, rows, hidden.data());
  for (double& h : hidden) {
    if (h < 0.0) h = 0.0;
  }
  fc2_.Infer(hidden.data(), rows, out);
}

LayerNorm::LayerNorm(int dim)
    : gamma_(AddParam("gamma", Matrix(1, dim, 1.0))),
      beta_(AddParam("beta", Matrix(1, dim))) {}

Tensor LayerNorm::Forward(Tensor x) {
  return ops::LayerNormRows(x, *gamma_, *beta_);
}

void LayerNorm::Infer(double* x, int rows) const {
  const double eps = 1e-5;  // ops::LayerNormRows' default, used by Forward
  const int d = gamma_->value.cols();
  const double* gamma = gamma_->value.data();
  const double* beta = beta_->value.data();
  for (int r = 0; r < rows; ++r) {
    double* row = x + static_cast<size_t>(r) * d;
    double mean = 0.0;
    for (int c = 0; c < d; ++c) mean += row[c];
    mean /= d;
    double var = 0.0;
    for (int c = 0; c < d; ++c) {
      const double diff = row[c] - mean;
      var += diff * diff;
    }
    var /= d;
    const double inv = 1.0 / std::sqrt(var + eps);
    for (int c = 0; c < d; ++c) {
      row[c] = (row[c] - mean) * inv * gamma[c] + beta[c];
    }
  }
}

Embedding::Embedding(int num_rows, int dim, Rng& rng)
    : table_(AddParam("table", XavierUniform(num_rows, dim, rng))) {}

void Embedding::LoadPretrained(const Matrix& table) {
  TRMMA_CHECK(table_->value.SameShape(table));
  table_->value = table;
}

Tensor Embedding::Forward(Tape& tape, const std::vector<int>& ids) {
  return ops::EmbeddingLookup(tape, *table_, ids);
}

}  // namespace nn
}  // namespace trmma
