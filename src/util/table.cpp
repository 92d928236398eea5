#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <ostream>
#include <sstream>

namespace pandarus::util {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers)), aligns_(headers_.size(), Align::kLeft) {
  assert(!headers_.empty());
}

void Table::set_align(std::size_t column, Align align) {
  aligns_.at(column) = align;
}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back({std::move(cells), pending_separator_});
  pending_separator_ = false;
}

void Table::add_separator() { pending_separator_ = true; }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.cells.size(); ++c)
      widths[c] = std::max(widths[c], row.cells[c].size());
  }

  auto rule = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    return s + "\n";
  };
  auto emit_row = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const std::size_t pad = widths[c] - cells[c].size();
      s += ' ';
      if (aligns_[c] == Align::kRight) {
        s.append(pad, ' ');
        s += cells[c];
      } else {
        s += cells[c];
        s.append(pad, ' ');
      }
      s += " |";
    }
    return s + "\n";
  };

  std::string out = rule() + emit_row(headers_) + rule();
  for (const auto& row : rows_) {
    if (row.separator_before) out += rule();
    out += emit_row(row.cells);
  }
  out += rule();
  return out;
}

void Table::print(std::ostream& os) const { os << to_string(); }

}  // namespace pandarus::util
