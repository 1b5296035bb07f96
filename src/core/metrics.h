// Evaluation metrics of Sec. 5: the ideal assignment AI, the optimality
// ratio c(A)/c(AI), the superiority ratio, the lowest coverage score
// (Table 7), and the closed-form approximation-ratio curves of Fig. 7.
#ifndef WGRAP_CORE_METRICS_H_
#define WGRAP_CORE_METRICS_H_

#include <optional>

#include "common/status.h"
#include "core/assignment.h"
#include "core/instance.h"

namespace wgrap::core {

/// The ideal assignment AI of Sec. 5.2: each paper independently gets the
/// best δp reviewers disregarding workloads (built greedily, like the
/// evaluation in the paper; exact per-paper optimization is NP-hard).
/// c(AI) >= c(O), so c(A)/c(AI) lower-bounds the true optimality ratio.
///
/// Exactness: each greedy pick is the lowest-index strict maximum of
/// Assignment::MarginalGain over the eligible reviewers (not in the group,
/// no COI), i.e. the same groups, PaperScore and TotalScore bits as a
/// per-reviewer MarginalGain scan. The gains come from one
/// core::GainLanes row per pick (simd::MarginalGainLanes over a per-call
/// topic-major copy of the dense reviewer matrix; core/gain_lanes.h holds
/// the exactness argument, the skipped zero-weight topics included).
/// O(P·δp·R·|topics|) after an O(R·T) transpose. Traced as the
/// `ideal_bound` span.
Result<Assignment> BuildIdealAssignment(const Instance& instance);

/// c(A) / c(AI), or nullopt when c(AI) is not positive — no reviewer
/// shares a topic with any paper, so the ratio is undefined (a valid
/// input, not an error). `ideal` must come from BuildIdealAssignment on
/// the same instance.
std::optional<double> OptimalityRatio(const Assignment& assignment,
                                      const Assignment& ideal);

/// Superiority of X over Y (Sec. 5.2): fraction of papers whose group in X
/// scores >= (resp. ==) their group in Y.
struct Superiority {
  double better_or_equal = 0.0;  // the bar height in Fig. 11
  double tie = 0.0;              // the dark-grey portion
};
Superiority SuperiorityRatio(const Assignment& x, const Assignment& y);

/// min_p c(g→, p→) — the worst-reviewed paper (Table 7).
double LowestCoverage(const Assignment& assignment);

/// Closed forms plotted in Fig. 7.
double SdgaRatioIntegral(int group_size);  // 1 - (1 - 1/δp)^δp
double SdgaRatioGeneral(int group_size);   // 1 - (1 - 1/δp)^(δp-1)

}  // namespace wgrap::core

#endif  // WGRAP_CORE_METRICS_H_
