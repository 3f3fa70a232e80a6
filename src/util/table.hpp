// Console table and CSV writers used by the benchmark harness to print the
// experiment tables (the paper-shaped output of each bench binary).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace duti {

/// One cell: string, integer, or double (formatted with 5 significant
/// digits).
using Cell = std::variant<std::string, std::int64_t, double>;

/// A simple column-aligned table. Typical use:
///
///   Table t({"k", "q*", "predicted"});
///   t.add_row({int64_t{16}, int64_t{210}, 207.8});
///   t.print(std::cout);
///   t.write_csv("out.csv");
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<Cell> row);

  [[nodiscard]] const std::vector<Cell>& row(std::size_t i) const {
    return rows_.at(i);
  }

  /// Render with aligned columns, a header rule, and `title` above if given.
  void print(std::ostream& os, const std::string& title = "") const;

  /// Write as RFC-4180-ish CSV (cells containing commas/quotes are quoted).
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
};

/// Format a double with `digits` significant digits (no trailing zeros mess).
[[nodiscard]] std::string format_double(double v, int digits = 5);

}  // namespace duti
