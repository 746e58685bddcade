#include <gtest/gtest.h>

#include <cstdio>

#include "mm/deep_mm_lite.h"
#include "mm/mma.h"
#include "mm/nearest.h"
#include "node2vec/node2vec.h"
#include "tests/test_util.h"

namespace trmma {
namespace {

class MmaFixture : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new Dataset(test::MakeTinyDataset("XA", 150));
    index_ = new SegmentRTree(*dataset_->network);
  }
  static void TearDownTestSuite() {
    delete index_;
    delete dataset_;
  }

  static double PointAccuracy(MapMatcher& matcher, int max_samples = 30) {
    int64_t total = 0;
    int64_t ok = 0;
    int count = 0;
    for (int idx : dataset_->test_idx) {
      if (count++ >= max_samples) break;
      const auto& sample = dataset_->samples[idx];
      auto segs = matcher.MatchPoints(sample.sparse);
      for (size_t i = 0; i < segs.size(); ++i) {
        ok += segs[i] == sample.truth[sample.sparse_indices[i]].segment;
        ++total;
      }
    }
    return static_cast<double>(ok) / total;
  }

  static MmaConfig SmallConfig() {
    MmaConfig config;
    config.d0 = 16;
    config.d1 = 32;
    config.d2 = 16;
    config.d3 = 32;
    config.trans_ffn = 32;
    return config;
  }

  static Dataset* dataset_;
  static SegmentRTree* index_;
};

Dataset* MmaFixture::dataset_ = nullptr;
SegmentRTree* MmaFixture::index_ = nullptr;

TEST_F(MmaFixture, MatchesEveryPointToACandidate) {
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  const auto& sample = dataset_->samples[0];
  auto segs = mma.MatchPoints(sample.sparse);
  ASSERT_EQ(segs.size(), static_cast<size_t>(sample.sparse.size()));
  for (SegmentId s : segs) {
    EXPECT_GE(s, 0);
    EXPECT_LT(s, dataset_->network->num_segments());
  }
}

TEST_F(MmaFixture, TrainingReducesLoss) {
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  Rng rng(1);
  const double first = mma.TrainEpoch(*dataset_, rng);
  double last = first;
  for (int e = 0; e < 3; ++e) last = mma.TrainEpoch(*dataset_, rng);
  EXPECT_LT(last, first);
}

TEST_F(MmaFixture, TrainingBeatsNearestBaseline) {
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  Rng rng(2);
  for (int e = 0; e < 5; ++e) mma.TrainEpoch(*dataset_, rng);
  NearestMatcher nearest(*dataset_->network, *index_);
  EXPECT_GT(PointAccuracy(mma), PointAccuracy(nearest) + 0.03);
}

TEST_F(MmaFixture, ScoresAreProbabilities) {
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  Rng rng(3);
  mma.TrainEpoch(*dataset_, rng);
  std::vector<double> scores;
  mma.MatchPointsWithScores(dataset_->samples[0].sparse, &scores);
  ASSERT_EQ(scores.size(),
            static_cast<size_t>(dataset_->samples[0].sparse.size()));
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST_F(MmaFixture, InferFedLogitsEqualTapedLogitsBitwise) {
  // MatchPoints feeds the candidate head from the tape-free point encoder;
  // its logits, and so its argmax segments, must equal the fully taped
  // forward pass bit for bit.
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  Rng rng(4);
  mma.TrainEpoch(*dataset_, rng);
  ASSERT_GE(dataset_->test_idx.size(), 12u);
  for (int t = 0; t < 12; ++t) {
    const Trajectory& traj = dataset_->samples[dataset_->test_idx[t]].sparse;
    const std::vector<nn::Matrix> want = mma.CandidateLogits(traj, true);
    const std::vector<nn::Matrix> got = mma.CandidateLogits(traj, false);
    ASSERT_EQ(got.size(), static_cast<size_t>(traj.size()));
    ASSERT_EQ(got.size(), want.size());
    const auto candidates =
        ComputeCandidates(*dataset_->network, *index_, traj, mma.config().kc);
    const std::vector<SegmentId> matched = mma.MatchPoints(traj);
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].SameShape(want[i]));
      int best = 0;
      for (int j = 0; j < got[i].rows(); ++j) {
        ASSERT_EQ(got[i].at(j, 0), want[i].at(j, 0))
            << "sample " << t << " point " << i << " candidate " << j;
        if (want[i].at(j, 0) > want[i].at(best, 0)) best = j;
      }
      EXPECT_EQ(matched[i], candidates[i][best].segment)
          << "sample " << t << " point " << i;
    }
  }
}

TEST_F(MmaFixture, PretrainedEmbeddingsLoadable) {
  MmaConfig config = SmallConfig();
  MmaMatcher mma(*dataset_->network, *index_, config);
  Node2VecConfig n2v;
  n2v.dim = config.d0;
  n2v.epochs = 1;
  n2v.walks_per_node = 2;
  Rng rng(4);
  nn::Matrix table = TrainNode2Vec(*dataset_->network, n2v, rng);
  mma.LoadPretrainedSegmentEmbeddings(table);  // must not crash / mismatch
  auto segs = mma.MatchPoints(dataset_->samples[0].sparse);
  EXPECT_FALSE(segs.empty());
}

TEST_F(MmaFixture, AblationConfigsRun) {
  MmaConfig no_ctx = SmallConfig();
  no_ctx.use_candidate_context = false;  // TRMMA-C
  MmaConfig no_dir = SmallConfig();
  no_dir.use_directional = false;  // TRMMA-DI
  for (MmaConfig* config : {&no_ctx, &no_dir}) {
    MmaMatcher mma(*dataset_->network, *index_, *config);
    Rng rng(5);
    const double loss = mma.TrainEpoch(*dataset_, rng);
    EXPECT_GT(loss, 0.0);
    auto segs = mma.MatchPoints(dataset_->samples[0].sparse);
    EXPECT_EQ(segs.size(),
              static_cast<size_t>(dataset_->samples[0].sparse.size()));
  }
}

TEST_F(MmaFixture, DirectionalFeaturesHelp) {
  MmaConfig with = SmallConfig();
  MmaConfig without = SmallConfig();
  without.use_directional = false;
  MmaMatcher mma_with(*dataset_->network, *index_, with);
  MmaMatcher mma_without(*dataset_->network, *index_, without);
  Rng rng1(6);
  Rng rng2(6);
  for (int e = 0; e < 5; ++e) {
    mma_with.TrainEpoch(*dataset_, rng1);
    mma_without.TrainEpoch(*dataset_, rng2);
  }
  // Directional features should not hurt (usually help).
  EXPECT_GE(PointAccuracy(mma_with) + 0.03, PointAccuracy(mma_without));
}

TEST_F(MmaFixture, DeterministicInference) {
  MmaMatcher mma(*dataset_->network, *index_, SmallConfig());
  Rng rng(7);
  mma.TrainEpoch(*dataset_, rng);
  auto a = mma.MatchPoints(dataset_->samples[0].sparse);
  auto b = mma.MatchPoints(dataset_->samples[0].sparse);
  EXPECT_EQ(a, b);
}

TEST_F(MmaFixture, CheckpointRoundTrip) {
  MmaMatcher trained(*dataset_->network, *index_, SmallConfig());
  Rng rng(99);
  for (int e = 0; e < 3; ++e) trained.TrainEpoch(*dataset_, rng);
  const std::string path = testing::TempDir() + "/mma_ckpt.bin";
  ASSERT_TRUE(trained.Save(path).ok());

  MmaMatcher restored(*dataset_->network, *index_, SmallConfig());
  ASSERT_TRUE(restored.Load(path).ok());
  const auto& sparse = dataset_->samples[0].sparse;
  EXPECT_EQ(trained.MatchPoints(sparse), restored.MatchPoints(sparse));
  std::remove(path.c_str());
}

TEST_F(MmaFixture, CheckpointConfigMismatchFails) {
  MmaMatcher a(*dataset_->network, *index_, SmallConfig());
  const std::string path = testing::TempDir() + "/mma_ckpt_bad.bin";
  ASSERT_TRUE(a.Save(path).ok());
  MmaConfig bigger = SmallConfig();
  bigger.d2 = 24;
  MmaMatcher b(*dataset_->network, *index_, bigger);
  EXPECT_FALSE(b.Load(path).ok());
  std::remove(path.c_str());
}

TEST_F(MmaFixture, DeepMmLiteTrainsAndMatches) {
  DeepMmConfig config;
  config.hidden_dim = 16;
  DeepMmLiteMatcher deepmm(*dataset_->network, config);
  Rng rng(8);
  const double first = deepmm.TrainEpoch(*dataset_, rng);
  double last = first;
  for (int e = 0; e < 4; ++e) last = deepmm.TrainEpoch(*dataset_, rng);
  EXPECT_LT(last, first);
  auto segs = deepmm.MatchPoints(dataset_->samples[0].sparse);
  EXPECT_EQ(segs.size(),
            static_cast<size_t>(dataset_->samples[0].sparse.size()));
}

}  // namespace
}  // namespace trmma
