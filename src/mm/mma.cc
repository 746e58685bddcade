#include "mm/mma.h"

#include <algorithm>
#include <cmath>

#include "common/deadline.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/ops.h"
#include "nn/serialize.h"
#include "nn/telemetry.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"

namespace trmma {

using nn::Tensor;

MmaMatcher::MmaMatcher(const RoadNetwork& network, const SegmentRTree& index,
                       const MmaConfig& config)
    : network_(network), index_(index), config_(config),
      init_rng_(config.seed),
      seg_emb_(network.num_segments(), config.d0, init_rng_),
      cand_mlp_(config.d0 + 7, config.d1, config.d2, init_rng_),
      point_fc_(3, config.d2, init_rng_),
      point_trans_(config.d2, config.trans_heads, config.trans_ffn,
                   config.trans_layers, init_rng_),
      attn_mlp_(2 * config.d2, config.d3, 1, init_rng_) {
  AddChild(&seg_emb_);
  AddChild(&cand_mlp_);
  AddChild(&point_fc_);
  AddChild(&point_trans_);
  AddChild(&attn_mlp_);
  optimizer_ = std::make_unique<nn::Adam>(Parameters(), config.lr);
}

void MmaMatcher::LoadPretrainedSegmentEmbeddings(const nn::Matrix& table) {
  seg_emb_.LoadPretrained(table);
}

namespace {

/// Min-max normalized [lat, lng, t] features (paper §IV-B) for all points.
nn::Matrix PointFeatures(const RoadNetwork& network, const Trajectory& traj) {
  double min_lat = 1e30;
  double max_lat = -1e30;
  double min_lng = 1e30;
  double max_lng = -1e30;
  for (NodeId i = 0; i < network.num_nodes(); ++i) {
    const LatLng& p = network.node(i).pos;
    min_lat = std::min(min_lat, p.lat);
    max_lat = std::max(max_lat, p.lat);
    min_lng = std::min(min_lng, p.lng);
    max_lng = std::max(max_lng, p.lng);
  }
  const double lat_span = std::max(max_lat - min_lat, 1e-9);
  const double lng_span = std::max(max_lng - min_lng, 1e-9);
  const double t0 = traj.points.front().t;
  const double t_span = std::max(traj.points.back().t - t0, 1e-9);

  nn::Matrix z0(traj.size(), 3);
  for (int i = 0; i < traj.size(); ++i) {
    const GpsPoint& p = traj.points[i];
    z0.at(i, 0) = (p.pos.lat - min_lat) / lat_span;
    z0.at(i, 1) = (p.pos.lng - min_lng) / lng_span;
    z0.at(i, 2) = (p.t - t0) / t_span;
  }
  return z0;
}

/// Repairs empty candidate columns (possible only on a segmentless network
/// or fully corrupt coordinates) by borrowing the nearest non-empty
/// neighbor column, so ForwardLogits always sees at least one candidate
/// per point. Returns false when every column is empty — the trajectory
/// cannot be matched at all and the caller must degrade.
bool EnsureNonEmptyCandidates(std::vector<std::vector<Candidate>>* candidates) {
  auto& cols = *candidates;
  const int n = static_cast<int>(cols.size());
  int first_nonempty = -1;
  for (int i = 0; i < n; ++i) {
    if (!cols[i].empty()) {
      first_nonempty = i;
      break;
    }
  }
  if (first_nonempty < 0) return false;
  for (int i = 0; i < n; ++i) {
    if (cols[i].empty()) {
      cols[i] = i > 0 && !cols[i - 1].empty() ? cols[i - 1]
                                              : cols[first_nonempty];
    }
  }
  return true;
}

}  // namespace

Tensor MmaMatcher::EncodePoints(nn::Tape& tape, const Trajectory& traj) {
  Tensor z0 = nn::ops::Input(tape, PointFeatures(network_, traj));
  return point_trans_.Forward(point_fc_.Forward(z0));
}

nn::Matrix MmaMatcher::InferPoints(const Trajectory& traj) const {
  const nn::Matrix z0 = PointFeatures(network_, traj);
  nn::Matrix z2(traj.size(), config_.d2);
  point_fc_.Infer(z0.data(), traj.size(), z2.data());
  point_trans_.Infer(&z2);
  return z2;
}

std::vector<Tensor> MmaMatcher::ForwardLogits(
    nn::Tape& tape, Tensor z2,
    const std::vector<std::vector<Candidate>>& candidates) {
  TRMMA_SPAN("mma.forward");
  namespace ops = nn::ops;
  const int num_points = z2.rows();
  std::vector<Tensor> logits;
  logits.reserve(num_points);
  for (int i = 0; i < num_points; ++i) {
    const auto& cands = candidates[i];
    // Invariant enforced by EnsureNonEmptyCandidates at every call site.
    TRMMA_CHECK(!cands.empty());
    const int k = static_cast<int>(cands.size());

    // Candidate embeddings c_j (Eq. 1-2). Besides the paper's four
    // directional cosines, each candidate carries its perpendicular
    // distance, projection ratio and rank — geometric signals the paper's
    // id embeddings absorb from millions of trips (DESIGN.md §2).
    std::vector<int> ids(k);
    nn::Matrix feats(k, 7);
    for (int j = 0; j < k; ++j) {
      ids[j] = cands[j].segment;
      if (config_.use_directional) {
        for (int f = 0; f < 4; ++f) feats.at(j, f) = cands[j].cosine[f];
      }
      feats.at(j, 4) = cands[j].distance / 30.0;
      feats.at(j, 5) = cands[j].ratio;
      feats.at(j, 6) = static_cast<double>(j) / config_.kc;
    }
    Tensor emb = seg_emb_.Forward(tape, ids);
    Tensor cmat = cand_mlp_.Forward(
        ops::ConcatCols(emb, ops::Input(tape, std::move(feats))));

    // Point embedding p_i with candidate-context attention (Eq. 7-8).
    Tensor zi = ops::SliceRows(z2, i, 1);
    Tensor point;
    if (config_.use_candidate_context) {
      Tensor scores = attn_mlp_.Forward(
          ops::ConcatCols(ops::RepeatRows(zi, k), cmat));     // k x 1
      Tensor alpha = ops::SoftmaxRows(ops::Transpose(scores));  // 1 x k
      point = ops::Add(zi, ops::MatMul(alpha, cmat));
    } else {
      point = zi;  // TRMMA-C ablation
    }

    // P(c_j|p_i) logits = c_j . p_i (Eq. 9, pre-sigmoid).
    logits.push_back(ops::MatMul(cmat, ops::Transpose(point)));  // k x 1
  }
  return logits;
}

double MmaMatcher::TrainEpoch(const Dataset& dataset, Rng& rng) {
  TRMMA_SPAN("mma.train_epoch");
  namespace ops = nn::ops;
  std::vector<int> order = dataset.train_idx;
  rng.Shuffle(order);

  double total_loss = 0.0;
  int64_t total_points = 0;
  int in_batch = 0;
  double batch_loss = 0.0;
  int64_t batch_points = 0;
  Stopwatch step_watch;
  const int64_t epoch = epochs_trained_++;
  nn::Tape tape;
  for (int idx : order) {
    const TrajectorySample& sample = dataset.samples[idx];
    if (sample.sparse.size() < 2) continue;
    auto candidates =
        ComputeCandidates(network_, index_, sample.sparse, config_.kc);
    if (!EnsureNonEmptyCandidates(&candidates)) continue;
    std::vector<Tensor> logits = ForwardLogits(
        tape, EncodePoints(tape, sample.sparse), candidates);

    // Per-point binary cross entropy against the ground-truth segment
    // (Eq. 10); points whose truth is outside the candidate set
    // contribute all-zero labels, exactly as in the paper's formulation.
    Tensor loss;
    for (size_t i = 0; i < logits.size(); ++i) {
      const SegmentId truth =
          sample.truth[sample.sparse_indices[i]].segment;
      nn::Matrix labels(logits[i].rows(), 1);
      for (int j = 0; j < logits[i].rows(); ++j) {
        if (candidates[i][j].segment == truth) labels.at(j, 0) = 1.0;
      }
      Tensor point_loss = ops::BceWithLogits(logits[i], std::move(labels));
      loss = i == 0 ? point_loss : ops::Add(loss, point_loss);
    }
    loss = ops::Scale(loss, 1.0 / static_cast<double>(logits.size()));
    total_loss += loss.value().at(0, 0) * logits.size();
    total_points += static_cast<int64_t>(logits.size());
    batch_loss += loss.value().at(0, 0) * logits.size();
    batch_points += static_cast<int64_t>(logits.size());
    tape.Backward(loss);
    tape.Clear();

    if (++in_batch == config_.batch_size) {
      optimizer_->Step();
      nn::LogTrainStep("mma", *optimizer_,
                       batch_points > 0 ? batch_loss / batch_points : 0.0,
                       batch_points, step_watch.LapMillis() / 1e3, epoch);
      in_batch = 0;
      batch_loss = 0.0;
      batch_points = 0;
    }
  }
  if (in_batch > 0) {
    optimizer_->Step();
    nn::LogTrainStep("mma", *optimizer_,
                     batch_points > 0 ? batch_loss / batch_points : 0.0,
                     batch_points, step_watch.LapMillis() / 1e3, epoch);
  }
  return total_points > 0 ? total_loss / total_points : 0.0;
}

Status MmaMatcher::Save(const std::string& path) {
  return nn::SaveParameters(Parameters(), path);
}

Status MmaMatcher::Load(const std::string& path) {
  return nn::LoadParameters(Parameters(), path);
}

std::vector<nn::Matrix> MmaMatcher::CandidateLogits(const Trajectory& traj,
                                                    bool taped) {
  std::vector<nn::Matrix> out;
  if (traj.empty()) return out;
  auto candidates = ComputeCandidates(network_, index_, traj, config_.kc);
  if (!EnsureNonEmptyCandidates(&candidates)) return out;
  nn::Tape tape;
  const Tensor z2 = taped ? EncodePoints(tape, traj)
                          : nn::ops::Input(tape, InferPoints(traj));
  for (const Tensor& logit : ForwardLogits(tape, z2, candidates)) {
    out.push_back(logit.value());
  }
  return out;
}

std::vector<SegmentId> MmaMatcher::MatchPoints(const Trajectory& traj) {
  return MatchPointsWithScores(traj, nullptr);
}

std::vector<SegmentId> MmaMatcher::MatchPointsWithScores(
    const Trajectory& traj, std::vector<double>* scores) {
  TRMMA_SPAN("mma.match");
  if (obs::MetricsEnabled()) {
    static obs::Counter* const points =
        obs::MetricRegistry::Global().GetCounter("mma.points_matched");
    points->Increment(traj.size());
  }
  std::vector<SegmentId> out(traj.size(), kInvalidSegment);
  if (scores != nullptr) scores->assign(traj.size(), 0.0);
  if (traj.empty()) return out;

  auto candidates = ComputeCandidates(network_, index_, traj, config_.kc);
  if (!EnsureNonEmptyCandidates(&candidates)) return out;  // all unmatched
  obs::RequestRecord* rec = obs::ActiveRecord();
  const bool capture_scores = rec != nullptr && rec->scores.empty();
  if (capture_scores) rec->scores.assign(traj.size(), 0.0);
  // Likewise the chosen candidate per point (segment + offset), so the
  // record pairs each confidence with the decision it scores.
  const bool capture_matched = rec != nullptr && rec->matched.empty();
  if (capture_matched) rec->matched.resize(traj.size());
  // Deadline checkpoint: the transformer forward pass is the expensive
  // block here. Once the budget is gone, snap each point to its closest
  // candidate by projection distance (the classifier's strongest single
  // feature) with a neutral confidence instead of running the network.
  if (DeadlineExpired()) {
    NoteDeadlineDegradation();
    if (obs::MetricsEnabled()) {
      obs::MetricRegistry::Global()
          .GetCounter("mma.deadline_degraded")
          ->Increment();
    }
    obs::RecordEvent("mma:deadline_degraded");
    for (int i = 0; i < traj.size(); ++i) {
      int best = 0;
      for (size_t j = 1; j < candidates[i].size(); ++j) {
        if (candidates[i][j].distance < candidates[i][best].distance) {
          best = static_cast<int>(j);
        }
      }
      out[i] = candidates[i][best].segment;
      if (scores != nullptr) (*scores)[i] = 0.5;
      if (capture_scores) rec->scores[i] = 0.5;
      if (capture_matched) {
        rec->matched[i] = {candidates[i][best].segment,
                           candidates[i][best].ratio, traj.points[i].t};
      }
    }
    return out;
  }
  // The point encoder runs tape-free; the candidate head stays taped.
  nn::Tape tape;
  std::vector<Tensor> logits = ForwardLogits(
      tape, nn::ops::Input(tape, InferPoints(traj)), candidates);
  for (int i = 0; i < traj.size(); ++i) {
    int best = 0;
    for (int j = 1; j < logits[i].rows(); ++j) {
      if (logits[i].value().at(j, 0) > logits[i].value().at(best, 0)) {
        best = j;
      }
    }
    out[i] = candidates[i][best].segment;
    const double z = logits[i].value().at(best, 0);
    const double prob = 1.0 / (1.0 + std::exp(-z));
    if (scores != nullptr) (*scores)[i] = prob;
    // Flight recorder: capture the classifier's confidence even when the
    // caller doesn't ask for scores (the common MatchPoints path).
    if (capture_scores) rec->scores[i] = prob;
    if (capture_matched) {
      rec->matched[i] = {candidates[i][best].segment,
                         candidates[i][best].ratio, traj.points[i].t};
    }
  }
  return out;
}

}  // namespace trmma
