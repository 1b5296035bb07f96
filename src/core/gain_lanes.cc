#include "core/gain_lanes.h"

#include "common/matrix.h"
#include "simd/kernels.h"

namespace wgrap::core {

GainLanes::GainLanes(const Instance* instance) : instance_(instance) {
  Rebuild();
}

void GainLanes::Rebuild() {
  const Matrix& reviewers = instance_->ReviewerMatrix();
  const int R = reviewers.rows();
  const int T = reviewers.cols();
  by_topic_.resize(static_cast<size_t>(T) * R);
  for (int r = 0; r < R; ++r) {
    const double* row = reviewers.Row(r);
    for (int t = 0; t < T; ++t) {
      by_topic_[static_cast<size_t>(t) * R + r] = row[t];
    }
  }
}

void GainLanes::RowTopics(int paper, std::vector<int>* topics) const {
  const bool all = instance_->scoring() == ScoringFunction::kReviewerCoverage;
  const double* weights = instance_->PaperVector(paper);
  topics->clear();
  for (int t = 0; t < instance_->num_topics(); ++t) {
    if (all || weights[t] != 0.0) topics->push_back(t);
  }
}

void GainLanes::RowSums(const double* group, int paper,
                        const std::vector<int>& topics, double* sums) const {
  simd::MarginalGainLanes(instance_->scoring(), group,
                          instance_->PaperVector(paper), topics.data(),
                          static_cast<int>(topics.size()), by_topic_.data(),
                          instance_->num_reviewers(), sums);
}

}  // namespace wgrap::core
