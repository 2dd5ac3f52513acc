#include "common/table.hpp"

#include <algorithm>
#include <cstdio>
#include <iostream>

namespace noc {

Table::Table(std::string title) : title_(std::move(title)) {}

Table& Table::set_columns(std::vector<std::string> headers) {
  headers_ = std::move(headers);
  return *this;
}

Table& Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

void Table::print() const {
  // Compute column widths over header + all rows.
  size_t ncols = headers_.size();
  for (const auto& r : rows_) ncols = std::max(ncols, r.size());
  std::vector<size_t> width(ncols, 0);
  for (size_t c = 0; c < headers_.size(); ++c)
    width[c] = std::max(width[c], headers_[c].size());
  for (const auto& r : rows_)
    for (size_t c = 0; c < r.size(); ++c)
      width[c] = std::max(width[c], r[c].size());

  auto print_rule = [&] {
    std::string line = "+";
    for (size_t c = 0; c < ncols; ++c)
      line += std::string(width[c] + 2, '-') + "+";
    std::cout << line << "\n";
  };
  auto print_cells = [&](const std::vector<std::string>& cells) {
    std::string line = "|";
    for (size_t c = 0; c < ncols; ++c) {
      const std::string& v = c < cells.size() ? cells[c] : std::string{};
      line += " " + v + std::string(width[c] - v.size(), ' ') + " |";
    }
    std::cout << line << "\n";
  };

  if (!title_.empty()) std::cout << "== " << title_ << " ==\n";
  print_rule();
  if (!headers_.empty()) {
    print_cells(headers_);
    print_rule();
  }
  for (const auto& r : rows_) print_cells(r);
  print_rule();
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::fmt_int(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string Table::fmt_percent(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

}  // namespace noc
