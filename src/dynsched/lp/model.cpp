#include "dynsched/lp/model.hpp"

#include <algorithm>
#include <cmath>

#include "dynsched/util/error.hpp"

namespace dynsched::lp {

int LpModel::addVariable(double lb, double ub, double objective,
                         std::string name) {
  DYNSCHED_CHECK_MSG(lb <= ub, "variable bounds crossed: [" << lb << ", "
                                                            << ub << "]");
  colLb_.push_back(lb);
  colUb_.push_back(ub);
  objective_.push_back(objective);
  columns_.emplace_back();
  colNames_.push_back(std::move(name));
  return numVariables() - 1;
}

int LpModel::addRow(double lb, double ub, const char* name) {
  DYNSCHED_CHECK_MSG(lb <= ub,
                     "row bounds crossed: [" << lb << ", " << ub << "]");
  rowLb_.push_back(lb);
  rowUb_.push_back(ub);
  rowNames_.emplace_back(name);
  return numRows() - 1;
}

void LpModel::addEntry(int row, int col, double value) {
  DYNSCHED_CHECK(row >= 0 && row < numRows());
  DYNSCHED_CHECK(col >= 0 && col < numVariables());
  if (value == 0.0) return;
  auto& column = columns_[col];
  // Keep the column in ascending row order; appending the next row (how
  // models are usually built) skips the search.
  if (column.empty() || column.back().row < row) {
    column.push_back(ColumnEntry{row, value});
    return;
  }
  const auto it = std::lower_bound(
      column.begin(), column.end(), row,
      [](const ColumnEntry& e, int r) { return e.row < r; });
  if (it->row == row) {
    it->value += value;  // duplicate (row, col) pairs accumulate
    return;
  }
  column.insert(it, ColumnEntry{row, value});
}

int LpModel::addRow(double lb, double ub,
                    const std::vector<std::pair<int, double>>& entries,
                    const std::string& name) {
  const int row = addRow(lb, ub, name.c_str());
  for (const auto& [col, value] : entries) addEntry(row, col, value);
  return row;
}

void LpModel::setColumnBounds(int col, double lb, double ub) {
  DYNSCHED_CHECK(lb <= ub);
  colLb_[col] = lb;
  colUb_[col] = ub;
}

std::size_t LpModel::numNonZeros() const {
  std::size_t count = 0;
  for (const auto& column : columns_) count += column.size();
  return count;
}

std::vector<double> LpModel::rowActivity(const std::vector<double>& x) const {
  DYNSCHED_CHECK(static_cast<int>(x.size()) == numVariables());
  std::vector<double> activity(static_cast<std::size_t>(numRows()), 0.0);
  for (int j = 0; j < numVariables(); ++j) {
    if (x[static_cast<std::size_t>(j)] == 0.0) continue;
    for (const ColumnEntry& e : columns_[static_cast<std::size_t>(j)]) {
      activity[static_cast<std::size_t>(e.row)] +=
          e.value * x[static_cast<std::size_t>(j)];
    }
  }
  return activity;
}

double LpModel::objectiveValue(const std::vector<double>& x) const {
  DYNSCHED_CHECK(static_cast<int>(x.size()) == numVariables());
  double total = 0;
  for (int j = 0; j < numVariables(); ++j) {
    total += objective_[static_cast<std::size_t>(j)] *
             x[static_cast<std::size_t>(j)];
  }
  return total;
}

bool LpModel::isFeasible(const std::vector<double>& x, double tol) const {
  if (static_cast<int>(x.size()) != numVariables()) return false;
  for (int j = 0; j < numVariables(); ++j) {
    const auto sj = static_cast<std::size_t>(j);
    if (x[sj] < colLb_[sj] - tol || x[sj] > colUb_[sj] + tol) return false;
  }
  const std::vector<double> activity = rowActivity(x);
  for (int r = 0; r < numRows(); ++r) {
    const auto sr = static_cast<std::size_t>(r);
    if (activity[sr] < rowLb_[sr] - tol || activity[sr] > rowUb_[sr] + tol)
      return false;
  }
  return true;
}

std::size_t LpModel::memoryBytes() const {
  return numNonZeros() * sizeof(ColumnEntry) +
         static_cast<std::size_t>(numVariables()) * 3 * sizeof(double) +
         static_cast<std::size_t>(numRows()) * 2 * sizeof(double);
}

}  // namespace dynsched::lp
