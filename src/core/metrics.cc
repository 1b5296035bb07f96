#include "core/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/check.h"
#include "core/gain_lanes.h"
#include "obs/trace.h"

namespace wgrap::core {

Result<Assignment> BuildIdealAssignment(const Instance& instance) {
  obs::ScopedSpan span("ideal_bound");
  Assignment ideal(&instance);
  const int P = instance.num_papers();
  const int R = instance.num_reviewers();
  const int T = instance.num_topics();
  // Built per call (not cached on the instance, which the online-update
  // path would then have to patch); the O(R·T) transpose is small against
  // the O(P·δp·R·|topics|) scan below.
  const GainLanes lanes(&instance);
  std::vector<int> topics;
  topics.reserve(T);
  std::vector<double> gains(R);
  std::vector<char> eligible(R);
  for (int p = 0; p < P; ++p) {
    const double mass = instance.PaperMass(p);
    WGRAP_CHECK(mass > 0.0);
    lanes.RowTopics(p, &topics);
    for (int r = 0; r < R; ++r) eligible[r] = !instance.IsConflict(r, p);
    for (int pick = 0; pick < instance.group_size(); ++pick) {
      lanes.RowSums(ideal.GroupVector(p), p, topics, gains.data());
      // Assignment::MarginalGain's arithmetic (sum / mass + bid bonus)
      // and the old per-reviewer scan's rule: the lowest-index strict
      // maximum over eligible reviewers not yet in the group.
      int best = -1;
      double best_gain = -1.0;
      for (int r = 0; r < R; ++r) {
        if (!eligible[r]) continue;
        const double gain = gains[r] / mass + instance.BidBonus(r, p);
        if (gain > best_gain) {
          best_gain = gain;
          best = r;
        }
      }
      if (best < 0) return Status::Infeasible("not enough eligible reviewers");
      WGRAP_RETURN_IF_ERROR(ideal.AddUnchecked(p, best));
      eligible[best] = 0;
    }
  }
  return ideal;
}

std::optional<double> OptimalityRatio(const Assignment& assignment,
                                      const Assignment& ideal) {
  const double denom = ideal.TotalScore();
  if (!(denom > 0.0)) return std::nullopt;
  return assignment.TotalScore() / denom;
}

Superiority SuperiorityRatio(const Assignment& x, const Assignment& y) {
  const int P = x.instance().num_papers();
  WGRAP_CHECK(P == y.instance().num_papers());
  constexpr double kEps = 1e-12;
  Superiority out;
  int better_or_equal = 0, ties = 0;
  for (int p = 0; p < P; ++p) {
    const double sx = x.PaperScore(p);
    const double sy = y.PaperScore(p);
    if (sx >= sy - kEps) ++better_or_equal;
    if (std::abs(sx - sy) <= kEps) ++ties;
  }
  out.better_or_equal = static_cast<double>(better_or_equal) / P;
  out.tie = static_cast<double>(ties) / P;
  return out;
}

double LowestCoverage(const Assignment& assignment) {
  double lowest = 1e300;
  for (int p = 0; p < assignment.instance().num_papers(); ++p) {
    lowest = std::min(lowest, assignment.PaperScore(p));
  }
  return lowest;
}

double SdgaRatioIntegral(int group_size) {
  WGRAP_CHECK(group_size >= 1);
  return 1.0 - std::pow(1.0 - 1.0 / group_size, group_size);
}

double SdgaRatioGeneral(int group_size) {
  WGRAP_CHECK(group_size >= 1);
  return 1.0 - std::pow(1.0 - 1.0 / group_size, group_size - 1);
}

}  // namespace wgrap::core
