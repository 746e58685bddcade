#include "nn/transformer.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "nn/infer.h"

namespace trmma {
namespace nn {

TransformerLayer::TransformerLayer(int model_dim, int num_heads, int ffn_dim,
                                   Rng& rng)
    : attention_(model_dim, num_heads, rng),
      ffn_(model_dim, ffn_dim, model_dim, rng),
      norm1_(model_dim),
      norm2_(model_dim) {
  AddChild(&attention_);
  AddChild(&ffn_);
  AddChild(&norm1_);
  AddChild(&norm2_);
}

Tensor TransformerLayer::Forward(Tensor x) {
  Tensor attended = norm1_.Forward(ops::Add(x, attention_.Forward(x, x)));
  return norm2_.Forward(ops::Add(attended, ffn_.Forward(attended)));
}

void TransformerLayer::Infer(double* x, int rows) const {
  InferScratch& s = InferScratch::ForThread();
  const size_t size = static_cast<size_t>(rows) * attention_.model_dim();
  s.attn.resize(size);
  attention_.Infer(x, rows, x, rows, s.attn.data());
  for (size_t i = 0; i < size; ++i) x[i] += s.attn[i];
  norm1_.Infer(x, rows);
  s.ffn.resize(size);
  ffn_.Infer(x, rows, s.ffn.data());
  for (size_t i = 0; i < size; ++i) x[i] += s.ffn[i];
  norm2_.Infer(x, rows);
}

TransformerEncoder::TransformerEncoder(int model_dim, int num_heads,
                                       int ffn_dim, int num_layers, Rng& rng)
    : model_dim_(model_dim) {
  for (int i = 0; i < num_layers; ++i) {
    layers_.push_back(
        std::make_unique<TransformerLayer>(model_dim, num_heads, ffn_dim, rng));
    AddChild(layers_.back().get());
  }
}

Tensor TransformerEncoder::Forward(Tensor x) {
  Tensor h = ops::Add(
      x, ops::Input(*x.tape(),
                    SinusoidalPositionalEncoding(x.rows(), model_dim_)));
  for (auto& layer : layers_) h = layer->Forward(h);
  return h;
}

void TransformerEncoder::Infer(Matrix* x) const {
  TRMMA_CHECK_EQ(x->cols(), model_dim_);
  const double* pe = PositionalEncodingRows(x->rows(), model_dim_);
  double* h = x->data();
  for (int i = 0; i < x->size(); ++i) h[i] += pe[i];
  for (const auto& layer : layers_) layer->Infer(h, x->rows());
}

Matrix SinusoidalPositionalEncoding(int len, int dim) {
  Matrix pe(len, dim);
  if (pe.size() > 0) {
    std::memcpy(pe.data(), PositionalEncodingRows(len, dim),
                sizeof(double) * pe.size());
  }
  return pe;
}

const double* PositionalEncodingRows(int len, int dim) {
  struct Table {
    int dim = 0;
    int rows = 0;
    std::vector<double> values;
  };
  thread_local std::vector<Table> tables;
  Table* table = nullptr;
  for (Table& t : tables) {
    if (t.dim == dim) table = &t;
  }
  if (table == nullptr) {
    tables.push_back(Table{dim, 0, {}});
    table = &tables.back();
  }
  if (table->rows < len) {
    table->values.resize(static_cast<size_t>(len) * dim);
    for (int pos = table->rows; pos < len; ++pos) {
      double* row = table->values.data() + static_cast<size_t>(pos) * dim;
      for (int i = 0; i < dim; i += 2) {
        const double freq = std::pow(10000.0, -static_cast<double>(i) / dim);
        row[i] = std::sin(pos * freq);
        if (i + 1 < dim) row[i + 1] = std::cos(pos * freq);
      }
    }
    table->rows = len;
  }
  return table->values.data();
}

}  // namespace nn
}  // namespace trmma
