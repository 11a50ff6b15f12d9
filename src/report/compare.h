// Paper-vs-measured comparison rows: every section of bench/reproduce
// ends with one of these so EXPERIMENTS.md can be assembled from its
// output directly.
#pragma once

#include <string>
#include <vector>

namespace originscan::report {

struct ComparisonRow {
  std::string metric;
  std::string paper;     // the value (or range) the paper reports
  std::string measured;  // what this reproduction measured
  std::string note;      // e.g. "shape match: ordering preserved"
};

class Comparison {
 public:
  explicit Comparison(std::string title) : title_(std::move(title)) {}

  void add(std::string metric, std::string paper, std::string measured,
           std::string note = "") {
    rows_.push_back({std::move(metric), std::move(paper), std::move(measured),
                     std::move(note)});
  }

  [[nodiscard]] std::string to_string() const;

 private:
  std::string title_;
  std::vector<ComparisonRow> rows_;
};

}  // namespace originscan::report
