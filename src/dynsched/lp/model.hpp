// Linear program container.
//
// Minimization over bounded variables with two-sided (range) rows:
//     min  c^T x
//     s.t. rowLb_r <= A_r x <= rowUb_r     for every row r
//          lb_j    <= x_j  <= ub_j         for every column j
//
// Columns are stored sparsely (row index / coefficient pairs) in ascending
// row order, whatever order the entries were added in. The simplex relies
// on that order: its row-wise pricing sums each column's products by
// ascending row. The time-indexed scheduling model (dynsched::tip) produces
// instances whose columns are short relative to the row count, which is
// what the simplex implementation is tuned for — but the model is fully
// general.
#pragma once

#include <string>
#include <vector>

#include "dynsched/util/types.hpp"

namespace dynsched::lp {

/// +/- infinity for bounds.
inline constexpr double kInf = 1e30;

struct ColumnEntry {
  int row;
  double value;
};

class LpModel {
 public:
  /// Adds a variable; returns its column index.
  int addVariable(double lb, double ub, double objective,
                  std::string name = {});

  /// Adds an empty row (constraint) with the given range; returns its index.
  /// (Takes const char* rather than std::string so that brace-initialized
  /// entry lists bind unambiguously to the overload below.)
  int addRow(double lb, double ub, const char* name = "");

  /// Adds `value` to A[row, col] (duplicate (row, col) pairs accumulate).
  /// Inserts in place so the column stays in ascending row order; zero
  /// values add no entry.
  void addEntry(int row, int col, double value);

  /// Convenience: row with entries in one call.
  int addRow(double lb, double ub,
             const std::vector<std::pair<int, double>>& entries,
             const std::string& name = {});

  int numVariables() const { return static_cast<int>(colLb_.size()); }
  int numRows() const { return static_cast<int>(rowLb_.size()); }
  std::size_t numNonZeros() const;

  double objectiveCoef(int col) const { return objective_[col]; }

  double columnLower(int col) const { return colLb_[col]; }
  double columnUpper(int col) const { return colUb_[col]; }
  void setColumnBounds(int col, double lb, double ub);

  double rowLower(int row) const { return rowLb_[row]; }
  double rowUpper(int row) const { return rowUb_[row]; }

  /// Entries of column `col`, in ascending row order.
  const std::vector<ColumnEntry>& column(int col) const {
    return columns_[col];
  }

  const std::string& variableName(int col) const { return colNames_[col]; }
  const std::string& rowName(int row) const { return rowNames_[row]; }

  /// Row activities A x for a full assignment.
  std::vector<double> rowActivity(const std::vector<double>& x) const;

  /// Objective value c^T x.
  double objectiveValue(const std::vector<double>& x) const;

  /// True iff `x` satisfies all row and column bounds within `tol`.
  bool isFeasible(const std::vector<double>& x, double tol = 1e-6) const;

  /// Estimated memory footprint of the instance (matrix entries, bounds).
  std::size_t memoryBytes() const;

 private:
  std::vector<double> colLb_, colUb_, objective_;
  std::vector<double> rowLb_, rowUb_;
  std::vector<std::vector<ColumnEntry>> columns_;
  std::vector<std::string> colNames_, rowNames_;
};

}  // namespace dynsched::lp
