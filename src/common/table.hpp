#pragma once
// Aligned console tables for the bench harnesses: every bench binary prints
// the paper's table/figure as rows on stdout.

#include <string>
#include <vector>

namespace noc {

class Table {
 public:
  explicit Table(std::string title = {});

  Table& set_columns(std::vector<std::string> headers);

  /// Append a row of pre-formatted cells. Row length may be shorter than the
  /// header; missing cells render empty.
  Table& add_row(std::vector<std::string> cells);

  /// Render to stdout with column alignment.
  void print() const;

  const std::vector<std::vector<std::string>>& rows() const { return rows_; }

  /// Format helpers used by the benches.
  static std::string fmt(double v, int precision = 2);
  static std::string fmt_int(long long v);
  static std::string fmt_percent(double fraction, int precision = 1);

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace noc
