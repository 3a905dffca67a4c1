#include "util/table.h"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/contract.h"

namespace ccs {

void Table::set_header(std::vector<std::string> header) {
  CCS_EXPECTS(rows_.empty(), "set_header must precede add_row");
  header_ = std::move(header);
  if (align_.empty()) align_.assign(header_.size(), Align::kRight);
}

void Table::set_align(std::vector<Align> align) {
  CCS_EXPECTS(align.size() == header_.size(), "alignment width must match header");
  align_ = std::move(align);
}

void Table::add_row(std::vector<std::string> row) {
  CCS_EXPECTS(!header_.empty(), "header must be set before rows");
  CCS_EXPECTS(row.size() == header_.size(), "row width must match header");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) width[c] = std::max(width[c], row[c].size());
  }

  os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << "  ";
      const auto pad = width[c] - row[c].size();
      if (align_[c] == Align::kRight) os << std::string(pad, ' ') << row[c];
      else os << row[c] << std::string(pad, ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (std::size_t c = 0; c < width.size(); ++c) total += width[c] + (c > 0 ? 2 : 0);
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

void Table::print_csv(std::ostream& os) const {
  auto quote = [](const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) return s;
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"') out += "\"\"";
      else out += ch;
    }
    out += '"';
    return out;
  };
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) os << ',';
      os << quote(row[c]);
    }
    os << '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

std::string Table::num(std::int64_t v) { return std::to_string(v); }

std::string Table::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string Table::ratio(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v << "x";
  return os.str();
}

}  // namespace ccs
