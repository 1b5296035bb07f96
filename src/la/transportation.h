// Capacitated max-profit assignment ("transportation"): every task (paper)
// receives exactly one agent (reviewer), each agent serves at most
// `capacity[a]` tasks, total profit maximized. This is the per-stage
// subproblem of SDGA (Definition 9, Stage-WGRAP) and of each SRA
// completion round. Two exact solvers share one scaled integer program:
//   SolveTransportation           — capacitated Jonker–Volgenant shortest
//                                   augmenting paths (demand 1, default);
//   SolveTransportationWithDemand — min-cost flow network, any demand;
//                                   also solves ILP-ARAP exactly because
//                                   the constraint matrix is totally
//                                   unimodular, and is the test oracle.
#ifndef WGRAP_LA_TRANSPORTATION_H_
#define WGRAP_LA_TRANSPORTATION_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/cancel.h"
#include "common/matrix.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace wgrap {
class ThreadPool;
}  // namespace wgrap

namespace wgrap::la {

/// A task<->agent matching: task_to_agent[t] is the agent serving task t.
struct TransportationResult {
  std::vector<int> task_to_agent;
  double profit = 0.0;
};

/// Profit marking an infeasible (forbidden) pair, e.g. conflicts of interest.
inline constexpr double kTransportForbidden = -1e15;

/// Fixed-point scale shared by every integer LAP backend (min-cost flow and
/// the auction). Profits are in [0, 1] per topic sums in this codebase, so
/// 1e9 keeps ~9 significant digits without overflow.
inline constexpr double kTransportProfitScale = 1e9;
/// Largest |profit| the int64 scaling supports; anything outside (other
/// than the forbidden marker) is rejected with kInvalidArgument.
inline constexpr double kMaxTransportProfit = 1e6;

/// llround(profit * kTransportProfitScale). Callers validate the range
/// first; this is the single definition both integer backends share, so a
/// pruned auction solve and a dense min-cost-flow solve optimize literally
/// the same integer program.
int64_t ScaleTransportProfit(double profit);

/// OK for finite profits in [-kMaxTransportProfit, kMaxTransportProfit];
/// kInvalidArgument otherwise (including NaN). The forbidden marker is not
/// a valid input — callers skip it before scaling.
Status ValidateTransportProfit(double profit);

/// Bound that SolveTransportation's distances and potentials must stay
/// under (see below). A quarter of INT64_MAX leaves room for the sums the
/// path search forms from them.
inline constexpr int64_t kTransportHeadroom =
    std::numeric_limits<int64_t>::max() / 4;

/// Maximizes total profit assigning each of `profit.rows()` tasks exactly one
/// of `profit.cols()` agents, agent a used at most capacity[a] times.
///
/// Capacitated Jonker–Volgenant (Jonker & Volgenant, Computing 38, 1987),
/// without column replication: tasks enter one at a time, each along a
/// shortest augmenting path to an agent with spare capacity. The search
/// keeps Johnson potentials (reviewer, task and sink; the task and sink
/// ones are implied) so every reduced cost is >= 0, scans dense int64
/// cost rows, stops as soon as the sink settles and moves only the
/// settled agents' potentials. O(T · (settled tasks + settled agents) · A)
/// for T tasks and A agents with capacity > 0; a slack stage settles one
/// agent per task, so it costs O(T · A). Work is counted in
/// wgrap_lap_augmentations_total (one per augmenting path) and
/// wgrap_lap_settled_agents_total.
///
/// int64 headroom. Let C = max |ScaleTransportProfit(p)| over the allowed
/// pairs and T = profit.rows(). An agent's potential is the cost
/// difference of two branches of the shortest-path tree, which together
/// visit each task at most once with at most two arcs per task, so it lies
/// in [-2T·C, 0] ⊂ [-(2T+2)·C, 0]. Reduced distances lie within
/// 2·(2T+2)·C, and every sum the search forms within 3·(2T+2)·C.
/// Inputs with (2T+2)·C > kTransportHeadroom are rejected with
/// kInvalidArgument, which keeps all of them below INT64_MAX. At the
/// largest admitted |profit| (kMaxTransportProfit, C = 1e15) that happens
/// from T = 1152 on; profits in [0, 1] (C = 1e9) pass up to T ≈ 1.1e9.
///
/// Profits outside [-kMaxTransportProfit, kMaxTransportProfit] (apart from
/// the forbidden marker) are rejected with kInvalidArgument. Returns
/// Status::Infeasible when capacities cannot cover all tasks or only
/// forbidden pairs remain for some task; on every input inside the
/// headroom the status is the same as the min-cost flow's below.
Result<TransportationResult> SolveTransportation(
    const Matrix& profit, const std::vector<int>& capacity);

/// Variant where every task needs `demand` agents (all distinct), used by
/// ILP-ARAP: paper p needs δp reviewers, reviewer r serves ≤ δr papers.
/// Returns one agent list per task. Solved by successive shortest paths on
/// a min-cost flow network over all T·A pair edges; with demand 1 it is the
/// reference the Jonker–Volgenant solver above is tested against (and the
/// `lap=mcf` stage backend).
struct MultiTransportationResult {
  std::vector<std::vector<int>> task_to_agents;
  double profit = 0.0;
};

Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand);

/// Backend selector for the options overload below: the successive-
/// shortest-path min-cost flow (default, sequential) or the parallel
/// ε-scaling auction of la/auction.h. Both find the same optimum of the
/// same scaled integer program.
enum class TransportationBackend {
  kMinCostFlow,
  kAuction,
};

struct TransportationOptions {
  TransportationBackend backend = TransportationBackend::kMinCostFlow;
  /// Auction bidding fan-out; ignored by min-cost flow. nullptr = inline.
  wgrap::ThreadPool* pool = nullptr;
  /// Auction initial ε (profit units); 0 = auto. Ignored by min-cost flow.
  double initial_epsilon = 0.0;
  /// Time budget (borrowed; may be null): the min-cost-flow backend polls it
  /// per augmenting path and returns kResourceExhausted on expiry; the
  /// auction backend is checked around the solve (coarser).
  const Deadline* deadline = nullptr;
  /// Cooperative cancellation, polled at the same sites (kCancelled).
  CancelToken cancel;
};

/// Options overload: routes to the selected backend. The auction path is
/// exact for demand == 1; for demand > 1 it verifies complementary
/// slackness and silently falls back to min-cost flow when certification
/// fails, so the returned optimum is backend-independent either way.
Result<MultiTransportationResult> SolveTransportationWithDemand(
    const Matrix& profit, const std::vector<int>& capacity, int demand,
    const TransportationOptions& options);

}  // namespace wgrap::la

#endif  // WGRAP_LA_TRANSPORTATION_H_
