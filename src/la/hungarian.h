// Hungarian algorithm (Kuhn–Munkres with Jonker–Volgenant style shortest
// augmenting paths and dual potentials) for the rectangular linear
// assignment problem in doubles, one column per unit of capacity. SDGA's
// stages use the capacitated int64 form in la/transportation.h instead;
// this one is the unit-capacity reference the transportation and LAP
// equivalence tests compare against.
#ifndef WGRAP_LA_HUNGARIAN_H_
#define WGRAP_LA_HUNGARIAN_H_

#include <vector>

#include "common/matrix.h"
#include "common/status.h"

namespace wgrap::la {

/// Result of a rectangular assignment: row_to_col[r] is the column assigned
/// to row r (always valid when rows <= cols), and `objective` is the total
/// cost/profit of the selected cells.
struct AssignmentResult {
  std::vector<int> row_to_col;
  double objective = 0.0;
};

/// Solves min-cost assignment on a rows x cols matrix with rows <= cols.
/// Every row is assigned to a distinct column. O(rows^2 * cols).
///
/// Entries set to `kForbidden` (or anything >= kForbidden / 2) mark
/// infeasible pairs; returns Status::Infeasible if a row cannot avoid them.
Result<AssignmentResult> SolveMinCostAssignment(const Matrix& cost);

/// Solves max-profit assignment by negating the matrix. Forbidden pairs are
/// marked with `kForbiddenProfit` (very negative).
Result<AssignmentResult> SolveMaxProfitAssignment(const Matrix& profit);

/// Cost marking an infeasible pair for SolveMinCostAssignment.
inline constexpr double kForbidden = 1e15;
/// Profit marking an infeasible pair for SolveMaxProfitAssignment.
inline constexpr double kForbiddenProfit = -1e15;

}  // namespace wgrap::la

#endif  // WGRAP_LA_HUNGARIAN_H_
