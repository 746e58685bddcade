#include "nn/attention.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "nn/infer.h"

namespace trmma {
namespace nn {

MultiHeadAttention::MultiHeadAttention(int model_dim, int num_heads, Rng& rng)
    : model_dim_(model_dim), num_heads_(num_heads),
      head_dim_(model_dim / num_heads) {
  TRMMA_CHECK_EQ(model_dim % num_heads, 0);
  wq_ = AddParam("wq", XavierUniform(model_dim, model_dim, rng));
  wk_ = AddParam("wk", XavierUniform(model_dim, model_dim, rng));
  wv_ = AddParam("wv", XavierUniform(model_dim, model_dim, rng));
  wo_ = AddParam("wo", XavierUniform(model_dim, model_dim, rng));
}

Tensor MultiHeadAttention::Forward(Tensor query, Tensor keys) {
  TRMMA_CHECK_EQ(query.cols(), model_dim_);
  TRMMA_CHECK_EQ(keys.cols(), model_dim_);
  Tensor q = ops::MatMulParam(query, *wq_);
  Tensor k = ops::MatMulParam(keys, *wk_);
  Tensor v = ops::MatMulParam(keys, *wv_);

  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(head_dim_));
  Tensor heads;
  for (int h = 0; h < num_heads_; ++h) {
    Tensor qh = ops::SliceCols(q, h * head_dim_, head_dim_);
    Tensor kh = ops::SliceCols(k, h * head_dim_, head_dim_);
    Tensor vh = ops::SliceCols(v, h * head_dim_, head_dim_);
    Tensor scores =
        ops::Scale(ops::MatMul(qh, ops::Transpose(kh)), inv_sqrt_d);
    Tensor attn = ops::SoftmaxRows(scores);
    Tensor out = ops::MatMul(attn, vh);
    heads = h == 0 ? out : ops::ConcatCols(heads, out);
  }
  return ops::MatMulParam(heads, *wo_);
}

void MultiHeadAttention::Infer(const double* query, int n, const double* keys,
                               int m, double* out) const {
  const int d = model_dim_;
  const int hd = head_dim_;
  InferScratch& s = InferScratch::ForThread();
  const size_t nd = static_cast<size_t>(n) * d;
  const size_t md = static_cast<size_t>(m) * d;
  double* q = Zeroed(s.q, nd);
  double* k = Zeroed(s.k, md);
  double* v = Zeroed(s.v, md);
  AddMatMulBlocked(query, d, wq_->value.data(), d, q, d, n, d, d);
  AddMatMulBlocked(keys, d, wk_->value.data(), d, k, d, m, d, d);
  AddMatMulBlocked(keys, d, wv_->value.data(), d, v, d, m, d, d);

  // Each head reads and writes its column block of q, k, v and heads in
  // place: the slices and the concatenation of Forward are only views.
  const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(hd));
  double* heads = Zeroed(s.heads, nd);
  s.kt.resize(static_cast<size_t>(hd) * m);
  for (int h = 0; h < num_heads_; ++h) {
    TransposeInto(k + h * hd, d, m, hd, s.kt.data());
    double* scores = Zeroed(s.scores, static_cast<size_t>(n) * m);
    AddMatMulBlocked(q + h * hd, d, s.kt.data(), m, scores, m, n, hd, m);
    for (size_t i = 0; i < s.scores.size(); ++i) scores[i] *= inv_sqrt_d;
    SoftmaxRowsInPlace(scores, n, m);
    AddMatMulBlocked(scores, m, v + h * hd, d, heads + h * hd, d, n, m, hd);
  }
  std::fill(out, out + nd, 0.0);
  AddMatMulBlocked(heads, d, wo_->value.data(), d, out, d, n, d, d);
}

}  // namespace nn
}  // namespace trmma
