#include <gtest/gtest.h>

#include "common/random.h"
#include "nn/matrix.h"

namespace trmma {
namespace nn {
namespace {

Matrix RandomMatrix(int r, int c, Rng& rng) {
  Matrix m(r, c);
  for (int i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-2, 2);
  return m;
}

/// Naive triple-loop reference.
Matrix NaiveMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      out.at(i, j) = acc;
    }
  }
  return out;
}

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m.at(1, 2), 0.0);
  m.Fill(7.5);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.5);
  Matrix f(2, 2, -1.0);
  EXPECT_DOUBLE_EQ(f.at(1, 1), -1.0);
}

TEST(MatrixTest, Axpy) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 3.0);
  a.Axpy(2.0, b);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 7.0);
}

TEST(MatrixTest, Sum) {
  Matrix m(2, 2);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(1, 0) = 3;
  m.at(1, 1) = -1;
  EXPECT_DOUBLE_EQ(m.Sum(), 5.0);
}

TEST(MatrixTest, SameShape) {
  EXPECT_TRUE(Matrix(2, 3).SameShape(Matrix(2, 3)));
  EXPECT_FALSE(Matrix(2, 3).SameShape(Matrix(3, 2)));
}

class MatMulPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MatMulPropertyTest, MatchesNaive) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const int m = 1 + static_cast<int>(rng.UniformInt(8));
    const int k = 1 + static_cast<int>(rng.UniformInt(8));
    const int n = 1 + static_cast<int>(rng.UniformInt(8));
    Matrix a = RandomMatrix(m, k, rng);
    Matrix b = RandomMatrix(k, n, rng);
    Matrix fast;
    MatMul(a, b, &fast);
    Matrix slow = NaiveMatMul(a, b);
    ASSERT_TRUE(fast.SameShape(slow));
    for (int i = 0; i < fast.size(); ++i) {
      EXPECT_NEAR(fast.data()[i], slow.data()[i], 1e-10);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatMulPropertyTest, testing::Values(1, 2, 3));

TEST(MatrixTest, AddMatMulAccumulates) {
  Rng rng(9);
  Matrix a = RandomMatrix(3, 4, rng);
  Matrix b = RandomMatrix(4, 2, rng);
  Matrix out(3, 2, 1.0);
  AddMatMul(a, b, &out);
  Matrix ref = NaiveMatMul(a, b);
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], ref.data()[i] + 1.0, 1e-10);
  }
}

TEST(MatrixTest, AddMatMulTransA) {
  Rng rng(11);
  Matrix a = RandomMatrix(4, 3, rng);  // a^T is 3x4
  Matrix b = RandomMatrix(4, 2, rng);
  Matrix out(3, 2);
  AddMatMulTransA(a, b, &out);
  // Reference: transpose a then multiply.
  Matrix at(3, 4);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 3; ++j) at.at(j, i) = a.at(i, j);
  }
  Matrix ref = NaiveMatMul(at, b);
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], ref.data()[i], 1e-10);
  }
}

TEST(MatrixTest, AddMatMulTransB) {
  Rng rng(13);
  Matrix a = RandomMatrix(3, 4, rng);
  Matrix b = RandomMatrix(2, 4, rng);  // b^T is 4x2
  Matrix out(3, 2);
  AddMatMulTransB(a, b, &out);
  Matrix bt(4, 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 4; ++j) bt.at(j, i) = b.at(i, j);
  }
  Matrix ref = NaiveMatMul(a, bt);
  for (int i = 0; i < out.size(); ++i) {
    EXPECT_NEAR(out.data()[i], ref.data()[i], 1e-10);
  }
}

TEST(MatrixTest, AddMatMulBlockedEqualsAddMatMulBitwise) {
  // Widths around the 8-column block and its 2-wide and scalar tails, an
  // accumulating (non-zero) output, exact zeros in `a` (the zero skip) and
  // a column block of wider matrices addressed through leading dimensions.
  Rng rng(17);
  for (int n : {1, 2, 3, 7, 8, 9, 16, 19}) {
    for (int k : {1, 5, 32}) {
      const int m = 4;
      Matrix a = RandomMatrix(m, k + 3, rng);
      for (int i = 0; i < a.size(); i += 3) a.data()[i] = 0.0;
      Matrix b = RandomMatrix(k, n + 2, rng);
      Matrix init = RandomMatrix(m, n + 1, rng);
      // Reference on dense copies of the blocks a[:, 1:1+k], b[:, 2:2+n].
      Matrix a_blk(m, k);
      Matrix b_blk(k, n);
      Matrix want(m, n);
      for (int i = 0; i < m; ++i) {
        for (int p = 0; p < k; ++p) a_blk.at(i, p) = a.at(i, 1 + p);
        for (int j = 0; j < n; ++j) want.at(i, j) = init.at(i, j);
      }
      for (int p = 0; p < k; ++p) {
        for (int j = 0; j < n; ++j) b_blk.at(p, j) = b.at(p, 2 + j);
      }
      AddMatMul(a_blk, b_blk, &want);
      Matrix got = init;
      AddMatMulBlocked(a.data() + 1, a.cols(), b.data() + 2, b.cols(),
                       got.data(), got.cols(), m, k, n);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          EXPECT_EQ(got.at(i, j), want.at(i, j))
              << "n=" << n << " k=" << k << " (" << i << "," << j << ")";
        }
        EXPECT_EQ(got.at(i, n), init.at(i, n)) << "wrote past column n";
      }
    }
  }
}

}  // namespace
}  // namespace nn
}  // namespace trmma
