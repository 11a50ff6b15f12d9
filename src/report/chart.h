// Minimal ASCII charts: horizontal bars and CDF plots, for the figure
// sections of bench/reproduce.
#pragma once

#include <string>
#include <vector>

#include "stats/ecdf.h"

namespace originscan::report {

// A single horizontal bar scaled to `width` characters at value = max.
std::string bar(double value, double max, int width = 40);

struct BarRow {
  std::string label;
  double value = 0;
};

// Labeled bar chart; bars scale to the largest value.
std::string bar_chart(const std::vector<BarRow>& rows, int width = 40,
                      int value_precision = 1);

// ASCII CDF plot of an ECDF over a fixed grid.
std::string cdf_plot(const stats::Ecdf& ecdf, int width = 60, int height = 12,
                     const std::string& x_label = "value");

}  // namespace originscan::report
