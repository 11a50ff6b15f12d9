// Fixed-width text table rendering for the paper-style tables that the
// sections of bench/reproduce print.
#pragma once

#include <string>
#include <vector>

namespace originscan::report {

enum class Align { kLeft, kRight };

class Table {
 public:
  // Column headers; all rows must have the same arity.
  explicit Table(std::vector<std::string> headers,
                 std::vector<Align> alignment = {});

  void add_row(std::vector<std::string> cells);

  // Convenience: formats a double with the given precision.
  static std::string num(double value, int precision = 1);
  static std::string percent(double fraction, int precision = 1);

  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> headers_;
  std::vector<Align> alignment_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace originscan::report
