#ifndef TRMMA_MM_MMA_H_
#define TRMMA_MM_MMA_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "graph/spatial_index.h"
#include "mm/candidates.h"
#include "mm/map_matcher.h"
#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/transformer.h"
#include "traj/dataset.h"

namespace trmma {

/// Hyperparameters of MMA (paper §VI-A, scaled for CPU training; see
/// DESIGN.md §4). The two ablation switches implement TRMMA-C (no
/// candidate context in the point embedding) and TRMMA-DI (no directional
/// cosine features).
struct MmaConfig {
  int kc = 10;          ///< candidate set size (paper Fig. 2 analysis)
  int d0 = 32;          ///< segment embedding dim (Eq. 1)
  int d1 = 64;          ///< candidate MLP hidden dim (Eq. 2)
  int d2 = 32;          ///< candidate/point embedding dim
  int d3 = 64;          ///< attention MLP hidden dim (Eq. 7)
  int trans_layers = 2;
  int trans_heads = 2;
  int trans_ffn = 64;
  double lr = 1e-3;
  int batch_size = 16;  ///< trajectories per optimizer step
  uint64_t seed = 11;
  bool use_candidate_context = true;  ///< off = TRMMA-C ablation
  bool use_directional = true;        ///< off = TRMMA-DI ablation
};

/// MMA (paper §IV): maps each GPS point of a sparse trajectory to a road
/// segment by classification over its top-k_c candidate set, using a
/// transformer point encoder, Node2Vec-initialized candidate embeddings
/// with directional features, and attention fusion (Algorithm 1).
class MmaMatcher : public MapMatcher, public nn::Module {
 public:
  MmaMatcher(const RoadNetwork& network, const SegmentRTree& index,
             const MmaConfig& config);

  /// Initializes the candidate embedding table W^C from pre-trained
  /// Node2Vec vectors W_G (paper Eq. 1). Shape: num_segments x d0.
  void LoadPretrainedSegmentEmbeddings(const nn::Matrix& table);

  /// Runs one training epoch (binary cross entropy, Eq. 10) over the
  /// dataset's training split; returns the average per-point loss.
  double TrainEpoch(const Dataset& dataset, Rng& rng);

  std::vector<SegmentId> MatchPoints(const Trajectory& traj) override;

  /// MatchPoints plus per-point probabilities P(c|p_i) of the chosen
  /// candidates (Eq. 9).
  std::vector<SegmentId> MatchPointsWithScores(const Trajectory& traj,
                                               std::vector<double>* scores);

  std::string name() const override { return "MMA"; }

  /// Per-point candidate logits (each kc_i x 1) over `traj`'s repaired
  /// candidate sets (empty when no point has a candidate). The point
  /// embeddings come from the tape-free encoder, as in MatchPoints, or,
  /// with `taped`, from the taped one: the differential-test hook.
  std::vector<nn::Matrix> CandidateLogits(const Trajectory& traj, bool taped);

  const MmaConfig& config() const { return config_; }

  /// Persists / restores all trainable parameters. The loading matcher
  /// must be constructed with the same config and network.
  Status Save(const std::string& path);
  Status Load(const std::string& path);

 private:
  /// Point sequence embeddings z^(2) (Eq. 3) on the tape: FC +
  /// transformer over the normalized point features. The training path
  /// and the oracle of InferPoints.
  nn::Tensor EncodePoints(nn::Tape& tape, const Trajectory& traj);

  /// Tape-free twin of EncodePoints (traj.size() x d2), bit-identical to
  /// its value; activations in the calling thread's nn::InferScratch.
  nn::Matrix InferPoints(const Trajectory& traj) const;

  /// Builds the candidate head's graph for one trajectory from its point
  /// embeddings `z2`; returns per-point candidate logits (each kc_i x 1).
  /// `candidates` must come from ComputeCandidates.
  std::vector<nn::Tensor> ForwardLogits(
      nn::Tape& tape, nn::Tensor z2,
      const std::vector<std::vector<Candidate>>& candidates);

  const RoadNetwork& network_;
  const SegmentRTree& index_;
  MmaConfig config_;
  Rng init_rng_;

  nn::Embedding seg_emb_;       ///< W^C (Eq. 1)
  nn::Mlp cand_mlp_;            ///< Eq. 2
  nn::Linear point_fc_;         ///< z0 -> z1
  nn::TransformerEncoder point_trans_;  ///< Eq. 3
  nn::Mlp attn_mlp_;            ///< Eq. 7
  std::unique_ptr<nn::Adam> optimizer_;
  int64_t epochs_trained_ = 0;  ///< epoch index reported in train telemetry
};

}  // namespace trmma

#endif  // TRMMA_MM_MMA_H_
