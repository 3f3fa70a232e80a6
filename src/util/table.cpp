#include "util/table.hpp"

#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "util/error.hpp"

namespace duti {

std::string format_double(double v, int digits) {
  std::ostringstream os;
  os << std::setprecision(digits) << std::defaultfloat << v;
  return os.str();
}

namespace {

std::string format_cell(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  if (const auto* i = std::get_if<std::int64_t>(&c)) return std::to_string(*i);
  return format_double(std::get<double>(c));
}

}  // namespace

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  require(!headers_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<Cell> row) {
  require(row.size() == headers_.size(),
          "Table::add_row: cell count does not match header count");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os, const std::string& title) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  std::vector<std::vector<std::string>> rendered;
  rendered.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      cells.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], cells.back().size());
    }
    rendered.push_back(std::move(cells));
  }
  if (!title.empty()) os << "== " << title << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c]) + 2) << cells[c];
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total, '-') << '\n';
  for (const auto& cells : rendered) print_row(cells);
  os.flush();
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += "\"\"";
    else out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw Error("Table::write_csv: cannot open " + path);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c > 0) f << ',';
    f << csv_escape(headers_[c]);
  }
  f << '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) f << ',';
      f << csv_escape(format_cell(row[c]));
    }
    f << '\n';
  }
}

}  // namespace duti
