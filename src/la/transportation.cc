#include "la/transportation.h"
#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "common/check.h"
#include "la/auction.h"
#include "la/min_cost_flow.h"

namespace wgrap::la {

int64_t ScaleTransportProfit(double profit) {
  return static_cast<int64_t>(std::llround(profit * kTransportProfitScale));
}

Status ValidateTransportProfit(double profit) {
  // Negated comparison so NaN (all comparisons false) is rejected too.
  if (!(std::abs(profit) <= kMaxTransportProfit)) {
    return Status::InvalidArgument(
        "profit outside the scalable range [-1e6, 1e6]");
  }
  return Status::OK();
}

namespace {

Result<MultiTransportationResult> SolveWithMinCostFlow(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const Deadline* deadline, const CancelToken& cancel) {
  const int tasks = profit.rows();
  const int agents = profit.cols();
  if (static_cast<int>(capacity.size()) != agents) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  if (demand < 0) return Status::InvalidArgument("negative demand");

  int64_t total_capacity = 0;
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
    total_capacity += c;
  }
  const int64_t total_demand = static_cast<int64_t>(tasks) * demand;
  if (total_capacity < total_demand) {
    return Status::Infeasible("agent capacity below total task demand");
  }

  // Nodes: 0 = source, 1..tasks = tasks, tasks+1..tasks+agents = agents,
  // last = sink.
  const int source = 0;
  const int sink = tasks + agents + 1;
  MinCostFlow flow(sink + 1);
  for (int t = 0; t < tasks; ++t) {
    flow.AddEdge(source, 1 + t, demand, 0);
  }
  // edge ids for (t, a) pairs, -1 when forbidden.
  std::vector<std::vector<int>> pair_edge(tasks, std::vector<int>(agents, -1));
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const double p = profit.At(t, a);
      if (p <= kTransportForbidden / 2) continue;
      WGRAP_RETURN_IF_ERROR(ValidateTransportProfit(p));
      pair_edge[t][a] =
          flow.AddEdge(1 + t, 1 + tasks + a, 1, -ScaleTransportProfit(p));
    }
  }
  for (int a = 0; a < agents; ++a) {
    flow.AddEdge(1 + tasks + a, sink, capacity[a], 0);
  }

  flow.SetInterrupt(deadline, cancel);
  auto solved = flow.Solve(source, sink);
  if (!solved.ok()) return solved.status();
  if (solved->flow != total_demand) {
    return Status::Infeasible("not all tasks could be fully assigned");
  }

  MultiTransportationResult result;
  result.task_to_agents.resize(tasks);
  for (int t = 0; t < tasks; ++t) {
    for (int a = 0; a < agents; ++a) {
      const int e = pair_edge[t][a];
      if (e >= 0 && flow.FlowOnEdge(e) > 0) {
        result.task_to_agents[t].push_back(a);
        result.profit += profit.At(t, a);
      }
    }
    WGRAP_CHECK(static_cast<int>(result.task_to_agents[t].size()) == demand);
  }
  return result;
}

// Capacitated Jonker–Volgenant (see SolveTransportation in the header).
// Minimizes Σ cost, cost = -ScaleTransportProfit(profit), one task at a
// time: task i takes a shortest augmenting path in the residual network
// source → task → agent → sink, where an agent's forward arcs are its
// allowed tasks' cost entries, its reverse arcs lead to the tasks it
// holds, and its sink arc is open while load < capacity.
//
// Johnson potentials keep every reduced arc cost >= 0. Only the agents'
// potentials are stored: a held task's potential is implied by its tight
// arc (potential[agent] - cost[task][agent]), the sink's is fixed at 0 and
// the entering task's at 0. An agent with spare capacity always has
// potential 0, so the search ends the moment it settles one; full agents
// have potential <= 0. After each path only the settled agents move,
// by dist - dist(sink).
class CapacitatedJv {
 public:
  // `cost` is tasks × agents row-major; kNoEdge marks a forbidden pair.
  // Every agent has capacity >= 1 (the caller gives zero-capacity agents
  // no column).
  CapacitatedJv(int tasks, int agents, std::vector<int64_t> cost,
                std::vector<int> capacity)
      : tasks_(tasks),
        agents_(agents),
        cost_(std::move(cost)),
        capacity_(std::move(capacity)),
        potential_(agents, 0),
        held_(agents),
        agent_of_(tasks, -1),
        slot_(tasks, -1),
        dist_(agents),
        pred_(agents),
        unsettled_(agents) {
    settled_.reserve(agents);
  }

  static constexpr int64_t kNoEdge = std::numeric_limits<int64_t>::max();

  // Assigns every task; false when some task has no augmenting path
  // (its allowed agents are full and cannot pass a task on).
  bool Solve() {
    for (int task = 0; task < tasks_; ++task) {
      if (!Augment(task)) return false;
      ++augmentations_;
    }
    return true;
  }

  int ColumnOf(int task) const { return agent_of_[task]; }
  int64_t augmentations() const { return augmentations_; }
  int64_t settled_agents() const { return settled_total_; }

 private:
  static constexpr int64_t kUnreached = std::numeric_limits<int64_t>::max();

  const int64_t* Row(int task) const {
    return cost_.data() + static_cast<size_t>(task) * agents_;
  }

  // Dijkstra from `task` over agents (dense, array-based), stopping when
  // the sink settles; then moves potentials and flips the path.
  bool Augment(int task) {
    const int64_t* row = Row(task);
    for (int a = 0; a < agents_; ++a) {
      dist_[a] = row[a] == kNoEdge ? kUnreached : row[a] - potential_[a];
      pred_[a] = task;
    }
    std::iota(unsettled_.begin(), unsettled_.end(), 0);
    int remaining = agents_;
    settled_.clear();
    int free_agent = -1;
    while (free_agent < 0) {
      int best_pos = -1;
      int64_t best = kUnreached;
      for (int pos = 0; pos < remaining; ++pos) {
        const int64_t d = dist_[unsettled_[pos]];
        if (d < best) {
          best = d;
          best_pos = pos;
        }
      }
      if (best_pos < 0) return false;
      const int agent = unsettled_[best_pos];
      unsettled_[best_pos] = unsettled_[--remaining];
      settled_.push_back(agent);
      if (static_cast<int>(held_[agent].size()) < capacity_[agent]) {
        free_agent = agent;  // sink arc has reduced cost 0: sink settles
        break;
      }
      // Full agent: each held task settles at the same distance (tight
      // reverse arc) and relaxes its row. Settled agents cannot improve
      // (reduced costs >= 0), so the scan needs no settled mask.
      for (const int held : held_[agent]) {
        const int64_t* held_row = Row(held);
        const int64_t base = best + potential_[agent] - held_row[agent];
        for (int a = 0; a < agents_; ++a) {
          if (held_row[a] == kNoEdge) continue;
          const int64_t candidate = base + held_row[a] - potential_[a];
          if (candidate < dist_[a]) {
            dist_[a] = candidate;
            pred_[a] = held;
          }
        }
      }
    }
    const int64_t sink_dist = dist_[free_agent];
    for (const int agent : settled_) {
      potential_[agent] += dist_[agent] - sink_dist;
    }
    settled_total_ += static_cast<int64_t>(settled_.size());
    // Flip the path: walking back from the free agent, each predecessor
    // task moves onto the agent that reached it.
    int agent = free_agent;
    while (true) {
      const int moved = pred_[agent];
      const int from = agent_of_[moved];
      if (from >= 0) Release(moved, from);
      slot_[moved] = static_cast<int>(held_[agent].size());
      held_[agent].push_back(moved);
      agent_of_[moved] = agent;
      if (moved == task) return true;
      agent = from;
    }
  }

  void Release(int task, int agent) {
    std::vector<int>& list = held_[agent];
    const int last = list.back();
    list[slot_[task]] = last;
    slot_[last] = slot_[task];
    list.pop_back();
  }

  const int tasks_;
  const int agents_;
  const std::vector<int64_t> cost_;
  const std::vector<int> capacity_;
  std::vector<int64_t> potential_;
  std::vector<std::vector<int>> held_;  // tasks each agent serves
  std::vector<int> agent_of_;          // -1 while unassigned
  std::vector<int> slot_;              // index of a task in held_
  std::vector<int64_t> dist_;          // reduced distance per agent
  std::vector<int> pred_;              // task that reached each agent
  std::vector<int> unsettled_;         // agents not yet settled
  std::vector<int> settled_;
  int64_t augmentations_ = 0;
  int64_t settled_total_ = 0;
};

}  // namespace

Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand) {
  return SolveWithMinCostFlow(profit, capacity, demand, /*deadline=*/nullptr,
                              /*cancel=*/nullptr);
}

Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const TransportationOptions& options) {
  if (options.backend == TransportationBackend::kAuction && demand >= 1) {
    // The auction's bidding rounds don't poll the budget yet, so check it
    // at least on entry instead of starting a solve that is already late.
    if (options.deadline != nullptr && options.deadline->Expired()) {
      return Status::ResourceExhausted("transportation time limit exceeded");
    }
    WGRAP_RETURN_IF_ERROR(CheckNotCancelled(options.cancel, "transportation"));
    AuctionOptions auction;
    auction.pool = options.pool;
    auction.initial_epsilon = options.initial_epsilon;
    auto solved =
        SolveAuctionTransportationWithDemand(profit, capacity, demand, auction);
    // kFailedPrecondition = the demand > 1 auction could not certify
    // complementary slackness; everything else (ok, infeasible, invalid)
    // is a final answer. The fallback keeps the optimum backend-agnostic.
    if (solved.ok() ||
        solved.status().code() != StatusCode::kFailedPrecondition) {
      return solved;
    }
    static obs::Counter* const fallbacks = obs::Registry::Global().GetCounter(
        "wgrap_lap_auction_fallbacks_total");
    if (fallbacks) fallbacks->Add();
  }
  return SolveWithMinCostFlow(profit, capacity, demand, options.deadline,
                              options.cancel);
}

Result<TransportationResult> SolveTransportation(
    const Matrix& profit, const std::vector<int>& capacity) {
  const int tasks = profit.rows();
  const int agents = profit.cols();
  // Same checks, in the same order, as the min-cost-flow network, so both
  // return the same status on every input.
  if (static_cast<int>(capacity.size()) != agents) {
    return Status::InvalidArgument("capacity size != number of agents");
  }
  int64_t total_capacity = 0;
  for (int c : capacity) {
    if (c < 0) return Status::InvalidArgument("negative capacity");
    total_capacity += c;
  }
  if (total_capacity < tasks) {
    return Status::Infeasible("agent capacity below total task demand");
  }

  // Zero-capacity agents can never serve: they get no column.
  std::vector<int> agent_of_column;
  std::vector<int> column_capacity;
  std::vector<int> column_of_agent(agents, -1);
  for (int a = 0; a < agents; ++a) {
    if (capacity[a] == 0) continue;
    column_of_agent[a] = static_cast<int>(agent_of_column.size());
    agent_of_column.push_back(a);
    column_capacity.push_back(capacity[a]);
  }
  const int columns = static_cast<int>(agent_of_column.size());
  std::vector<int64_t> cost(static_cast<size_t>(tasks) * columns,
                            CapacitatedJv::kNoEdge);
  int64_t max_abs = 0;  // C of the headroom bound
  for (int t = 0; t < tasks; ++t) {
    const double* row = profit.Row(t);
    int64_t* cost_row = cost.data() + static_cast<size_t>(t) * columns;
    for (int a = 0; a < agents; ++a) {
      if (row[a] <= kTransportForbidden / 2) continue;
      WGRAP_RETURN_IF_ERROR(ValidateTransportProfit(row[a]));
      const int64_t scaled = ScaleTransportProfit(row[a]);
      max_abs = std::max(max_abs, scaled < 0 ? -scaled : scaled);
      if (column_of_agent[a] >= 0) cost_row[column_of_agent[a]] = -scaled;
    }
  }
  if (max_abs > kTransportHeadroom / (2 * static_cast<int64_t>(tasks) + 2)) {
    return Status::InvalidArgument(
        "profits too large for the int64 headroom at this task count "
        "((2T+2) * max|scaled profit| > INT64_MAX/4)");
  }

  CapacitatedJv jv(tasks, columns, std::move(cost),
                   std::move(column_capacity));
  const bool assigned = jv.Solve();
  static obs::Counter* const augmentations =
      obs::Registry::Global().GetCounter("wgrap_lap_augmentations_total");
  static obs::Counter* const settled =
      obs::Registry::Global().GetCounter("wgrap_lap_settled_agents_total");
  if (augmentations) augmentations->Add(jv.augmentations());
  if (settled) settled->Add(jv.settled_agents());
  if (!assigned) {
    return Status::Infeasible("not all tasks could be fully assigned");
  }
  TransportationResult result;
  result.task_to_agent.resize(tasks);
  for (int t = 0; t < tasks; ++t) {
    const int a = agent_of_column[jv.ColumnOf(t)];
    result.task_to_agent[t] = a;
    result.profit += profit.At(t, a);
  }
  return result;
}

}  // namespace wgrap::la
