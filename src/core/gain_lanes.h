// Whole-row marginal-gain scoring on the reviewer-lane kernel
// (simd::MarginalGainLanes): the Definition 8 gain of one paper's group
// for every reviewer at once, one SIMD lane per reviewer. Shared by the
// ideal bound (core::BuildIdealAssignment) and the stage-profit cache
// (core::GainCache), so both rest on one exactness argument.
#ifndef WGRAP_CORE_GAIN_LANES_H_
#define WGRAP_CORE_GAIN_LANES_H_

#include <vector>

#include "core/instance.h"

namespace wgrap::core {

/// Holds a T×R topic-major copy of the instance's dense reviewer matrix
/// (row t holds every reviewer's weight on topic t), so one kernel call
/// scores one paper against all R reviewers.
/// RowSums(…)[r] / PaperMass(p) + BidBonus(r, p) — the arithmetic of
/// Assignment::MarginalGain — has the bits of Assignment::MarginalGain(p,
/// r): lane r adds exactly MarginalGainSum's terms for reviewer r, in
/// ascending topic order (the kernels.h lane contract). Sparse views do
/// not matter: the instance always holds the dense matrices, and sparse
/// gains are bit-identical to dense ones by contract.
class GainLanes {
 public:
  explicit GainLanes(const Instance* instance);

  /// Re-copies the reviewer matrix; call after the instance's reviewer
  /// set or a reviewer's topic vector changed.
  void Rebuild();

  /// Fills `topics` with the topics a lane row of `paper` visits,
  /// ascending: all T topics for cR (f(x, 0) = x), only the paper's
  /// nonzero topics for c, cP and cD. There f(x, 0) is ±0.0 for every
  /// valid (finite, non-negative) x, so each gated term f(r, 0) - f(g, 0)
  /// at a zero-weight topic is ±0.0, and adding ±0.0 to a running sum that
  /// starts at +0.0 never changes it (a sum is -0.0 only when both addends
  /// are): skipping those topics gives the bits of the full scan.
  void RowTopics(int paper, std::vector<int>* topics) const;

  /// sums[r] = the un-normalized Definition 8 gain of reviewer r for
  /// `paper` against `group`, over `topics` (from RowTopics), for every
  /// reviewer r in [0, R).
  void RowSums(const double* group, int paper, const std::vector<int>& topics,
               double* sums) const;

 private:
  const Instance* instance_;
  std::vector<double> by_topic_;  // T×R, row t at t·R
};

}  // namespace wgrap::core

#endif  // WGRAP_CORE_GAIN_LANES_H_
