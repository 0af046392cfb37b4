// Aligned plain-text table printer: every bench prints its paper table /
// figure series through this, so every table has the same layout.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dgap {

class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  // Convenience: formats doubles with `precision` decimals.
  static std::string fmt(double v, int precision = 2);

  void print(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dgap
