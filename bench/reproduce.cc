// The paper reproduction: every table, figure and ablation of Wan et al.
// (IMC 2020) as one section of this binary, run in paper order (DESIGN.md
// §4, then §4b). Sections read shared experiments (see Runs) instead of
// each rerunning its own: each is built on first use and runs at most
// once per invocation, so naming a few sections builds only the
// experiments those need.
//
// Usage: reproduce [section...]   no arguments runs every section; named
//                                 sections run in table order
// Environment:
//   OSN_BENCH_SCALE  universe exponent, 12..24 (default 18: 2^18 addresses)
//   OSN_BENCH_SEED   scenario seed, decimal (default 0x05CA9)
// A malformed setting or an unknown section name exits 2.
#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "core/access_matrix.h"
#include "core/analysis/as_distribution.h"
#include "core/analysis/country.h"
#include "core/analysis/coverage.h"
#include "core/analysis/exclusivity.h"
#include "core/analysis/multi_origin.h"
#include "core/analysis/overlap.h"
#include "core/analysis/packet_loss.h"
#include "core/analysis/significance.h"
#include "core/analysis/ssh.h"
#include "core/analysis/stability.h"
#include "core/analysis/transient.h"
#include "core/classify.h"
#include "core/experiment.h"
#include "report/chart.h"
#include "report/compare.h"
#include "report/table.h"
#include "stats/ecdf.h"

namespace originscan::bench {
namespace {

std::string pct(double fraction, int precision = 1) {
  return report::Table::percent(fraction, precision);
}

// Runs every scan of `experiment`, printing one progress line per scan.
void run_with_progress(core::Experiment& experiment) {
  experiment.run([](std::string_view line) {
    std::printf("  [scan] %.*s\n", static_cast<int>(line.size()), line.data());
  });
}

// The experiments the sections share. Each is built on first use and
// kept for the rest of the invocation.
class Runs {
 public:
  Runs(std::uint32_t universe_size, std::uint64_t seed)
      : universe_size_(universe_size), seed_(seed) {}

  [[nodiscard]] std::uint32_t universe_size() const { return universe_size_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  // The paper roster at bench scale and seed, three trials, all protocols.
  [[nodiscard]] core::ExperimentConfig config() const {
    core::ExperimentConfig config;
    config.scenario.universe_size = universe_size_;
    config.scenario.seed = seed_;
    return config;
  }

  // The three-trial paper-roster grids, one per protocol set. They are
  // separate runs, not slices of one: each origin's chain carries its IDS
  // state from cell to cell across protocols, so the HTTP cells of the
  // three-protocol grid differ from an HTTP-only grid.
  core::Experiment& all_protocols() {
    return grid(all_protocols_, {proto::Protocol::kHttp,
                                 proto::Protocol::kHttps,
                                 proto::Protocol::kSsh});
  }
  core::Experiment& https_ssh() {
    return grid(https_ssh_, {proto::Protocol::kHttps, proto::Protocol::kSsh});
  }
  core::Experiment& http() { return grid(http_, {proto::Protocol::kHttp}); }
  core::Experiment& ssh() { return grid(ssh_, {proto::Protocol::kSsh}); }

  // The follow-up roster (Section 7): AU DE JP US1 CEN + colocated
  // Tier-1s, two HTTP trials, as in the paper's September-2020 experiment.
  core::Experiment& colocated() {
    if (!colocated_) {
      core::ExperimentConfig config = this->config();
      config.scenario.seed = seed_ ^ 0x20200900;
      config.roster = core::ExperimentConfig::Roster::kColocated;
      config.trials = 2;
      config.protocols = {proto::Protocol::kHttp};
      colocated_.emplace(std::move(config));
      run_with_progress(*colocated_);
    }
    return *colocated_;
  }

  // One HTTP trial with every other setting at its default: the baseline
  // of both the loss-model and the probe-delay ablation. Runs silently.
  core::Experiment& one_trial_http() {
    if (!one_trial_http_) {
      one_trial_http_.emplace(one_trial_http_config());
      one_trial_http_->run();
    }
    return *one_trial_http_;
  }
  [[nodiscard]] core::ExperimentConfig one_trial_http_config() const {
    core::ExperimentConfig config = this->config();
    config.trials = 1;
    config.protocols = {proto::Protocol::kHttp};
    return config;
  }

 private:
  core::Experiment& grid(std::optional<core::Experiment>& slot,
                         std::vector<proto::Protocol> protocols) {
    if (!slot) {
      core::ExperimentConfig config = this->config();
      config.protocols = std::move(protocols);
      slot.emplace(std::move(config));
      run_with_progress(*slot);
    }
    return *slot;
  }

  std::uint32_t universe_size_;
  std::uint64_t seed_;
  std::optional<core::Experiment> all_protocols_, https_ssh_, http_, ssh_,
      colocated_, one_trial_http_;
};

// Each section prints its rows after the header the driver prints and
// returns its paper-vs-measured comparison, which the driver prints last;
// nullopt means the section could not compute it, and fails the run.
using SectionResult = std::optional<report::Comparison>;

// Figure 1: IPv4 host coverage by scan origin (2 probes), per protocol.
// Paper: every origin sees a distinct host set; SSH origins see ~10%
// fewer hosts than HTTP(S); Censys trails on HTTP(S); US64 leads.
SectionResult fig01_coverage(Runs& runs) {
  auto& experiment = runs.all_protocols();

  std::vector<double> mean_http(7), mean_ssh(7);
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const auto coverage = core::compute_coverage(matrix);

    std::printf("\n%s coverage of ground-truth hosts:\n",
                std::string(proto::name_of(protocol)).c_str());
    std::vector<report::BarRow> rows;
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      rows.push_back({matrix.origin_codes()[o],
                      100.0 * coverage.mean_two_probe(o)});
      if (protocol == proto::Protocol::kHttp) {
        mean_http[o] = coverage.mean_two_probe(o);
      }
      if (protocol == proto::Protocol::kSsh) {
        mean_ssh[o] = coverage.mean_two_probe(o);
      }
    }
    std::printf("%s", report::bar_chart(rows, 40, 2).c_str());
  }

  double academic_http = 0, ssh_gap = 0;
  for (std::size_t o = 0; o < 6; ++o) academic_http += mean_http[o];
  academic_http /= 6;
  for (std::size_t o = 0; o < 7; ++o) ssh_gap += mean_http[o] - mean_ssh[o];
  ssh_gap /= 7;

  report::Comparison comparison("Fig 1 coverage by origin");
  comparison.add("mean academic HTTP coverage", "96.7-98.0%",
                 pct(academic_http),
                 "single-origin 2-probe scans miss a few % of hosts");
  comparison.add("Censys HTTP coverage", "92.5%", pct(mean_http[6]),
                 "worst origin due to blocking");
  comparison.add("SSH coverage deficit vs HTTP", "~10pp", pct(ssh_gap),
                 "SSH origins see fewer ground-truth hosts");
  return comparison;
}

// Figure 2: breakdown of missing hosts by scan origin and trial —
// transient vs long-term, host vs network level, plus unknown.
// Paper: Censys has the most long-term inaccessibility; for other
// origins transient loss dominates; transient misses are host-level
// (49.7% vs 1.9% network-level); one third of missing hosts long-term.
SectionResult fig02_missing_breakdown(Runs& runs) {
  auto& experiment = runs.all_protocols();

  std::uint64_t transient_host = 0, transient_net = 0;
  std::uint64_t longterm = 0, unknown = 0, total = 0;

  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);

    std::printf("\n%s missing-host breakdown (share of trial ground truth):\n",
                std::string(proto::name_of(protocol)).c_str());
    report::Table table({"origin", "trial", "trans-host", "trans-net",
                         "lt-host", "lt-net", "unknown", "total"});
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      for (int t = 0; t < matrix.trials(); ++t) {
        const auto b = classification.breakdown(o, t);
        const double gt = static_cast<double>(matrix.present_count(t));
        table.add_row({matrix.origin_codes()[o], std::to_string(t + 1),
                       pct(b.transient_host / gt, 2),
                       pct(b.transient_net / gt, 2),
                       pct(b.longterm_host / gt, 2),
                       pct(b.longterm_net / gt, 2), pct(b.unknown / gt, 2),
                       pct(b.total() / gt, 2)});
        transient_host += b.transient_host;
        transient_net += b.transient_net;
        longterm += b.longterm_host + b.longterm_net;
        unknown += b.unknown;
        total += b.total();
      }
    }
    std::printf("%s", table.to_string().c_str());
  }

  const double ftotal = static_cast<double>(total);
  report::Comparison comparison("Fig 2 missing-host taxonomy");
  comparison.add("transient share of missing hosts", "51.6%",
                 pct((transient_host + transient_net) / ftotal),
                 "transient loss is the majority");
  comparison.add("transient host- vs network-level", "49.7% vs 1.9%",
                 pct(transient_host / ftotal) + " vs " +
                     pct(transient_net / ftotal),
                 "transients hit individual hosts");
  comparison.add("long-term share", "~33%", pct(longterm / ftotal),
                 "about one third missing long-term");
  comparison.add("unknown share", "~15%", pct(unknown / ftotal),
                 "hosts present in a single trial");
  return comparison;
}

// Figure 3: long-term inaccessibility among origins — of the hosts
// long-term inaccessible from somewhere, how many origins miss each?
// Paper: excluding Censys, nearly half (47%) are inaccessible from only
// one origin; 5-10% of inaccessible hosts are exclusively accessible
// from a single origin.
SectionResult fig03_longterm_overlap(Runs& runs) {
  auto& experiment = runs.all_protocols();
  const auto cen = static_cast<std::size_t>(experiment.origin_id("CEN"));

  double http_single_share = 0;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);
    const auto with_cen = core::longterm_overlap(classification);
    const auto without_cen = core::longterm_overlap(classification, {cen});

    std::printf("\n%s: hosts long-term inaccessible from k origins "
                "(excluding Censys):\n",
                std::string(proto::name_of(protocol)).c_str());
    std::vector<report::BarRow> rows;
    for (std::size_t k = 1; k <= matrix.origins() - 1; ++k) {
      rows.push_back({"k=" + std::to_string(k),
                      100.0 * without_cen.fraction(k)});
    }
    std::printf("%s", report::bar_chart(rows, 40, 1).c_str());
    std::printf("total long-term-missed hosts: %llu (incl. Censys: %llu)\n",
                static_cast<unsigned long long>(without_cen.total),
                static_cast<unsigned long long>(with_cen.total));
    if (protocol == proto::Protocol::kHttp) {
      http_single_share = without_cen.fraction(1);
    }
  }

  report::Comparison comparison("Fig 3 long-term overlap");
  comparison.add("HTTP hosts missed by exactly one origin (excl CEN)",
                 "~47%", pct(http_single_share),
                 "long-term loss is mostly origin-specific");
  return comparison;
}

// Table 1: origins responsible for hosts exclusively (in)accessible from
// a single origin. Paper: US64 sees the most exclusively accessible
// hosts; Censys owns the most exclusively inaccessible hosts on every
// protocol (83.4% HTTP / 68.9% HTTPS / 36.7% SSH).
SectionResult tab01_exclusivity(Runs& runs) {
  auto& experiment = runs.all_protocols();

  std::vector<std::string> codes;
  std::vector<std::vector<double>> acc_rows, inacc_rows;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);
    const auto result = core::compute_exclusivity(classification);
    codes = result.origin_codes;
    acc_rows.push_back(result.accessible_percent());
    inacc_rows.push_back(result.inaccessible_percent());
  }

  std::vector<std::string> headers = {"row"};
  headers.insert(headers.end(), codes.begin(), codes.end());
  report::Table table(headers);
  const char* protocol_names[3] = {"HTTP", "HTTPS", "SSH"};
  for (int p = 0; p < 3; ++p) {
    std::vector<std::string> row = {std::string("Acc. ") + protocol_names[p] +
                                    "%"};
    for (double value : acc_rows[static_cast<std::size_t>(p)]) {
      row.push_back(report::Table::num(value, 1));
    }
    table.add_row(row);
  }
  for (int p = 0; p < 3; ++p) {
    std::vector<std::string> row = {std::string("Inacc. ") +
                                    protocol_names[p] + "%"};
    for (double value : inacc_rows[static_cast<std::size_t>(p)]) {
      row.push_back(report::Table::num(value, 1));
    }
    table.add_row(row);
  }
  std::printf("\n%s", table.to_string().c_str());

  const std::size_t us64 = static_cast<std::size_t>(
      experiment.origin_id("US64"));
  const std::size_t cen = static_cast<std::size_t>(
      experiment.origin_id("CEN"));
  report::Comparison comparison("Table 1 exclusivity");
  comparison.add("CEN share of exclusively inaccessible (HTTP)", "83.4%",
                 report::Table::num(inacc_rows[0][cen], 1) + "%",
                 "Censys dominates exclusive blocking");
  comparison.add("US64 share of exclusively accessible (SSH)", "64.4%",
                 report::Table::num(acc_rows[2][us64], 1) + "%",
                 "multiple source IPs evade per-IP detection");
  return comparison;
}

// Figure 4: distribution of long-term inaccessible hosts by AS, relative
// to ground truth. Paper: three hosting providers (DXTL, EGI, Enzu)
// account for 67% of Censys's long-term inaccessible HTTP hosts; for
// other origins the misses are spread more evenly.
SectionResult fig04_as_distribution(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto by_as =
      core::longterm_by_as(classification, experiment.world().topology);

  double cen_top3 = 0, academic_top3 = 0;
  int academic_count = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    const auto& shares = by_as[o];
    double top3 = 0;
    for (std::size_t i = 0; i < shares.size() && i < 3; ++i) {
      top3 += shares[i].share_of_origin_misses;
    }
    std::printf("\n%s: top ASes by share of this origin's LT misses "
                "(top-3 cumulative %s):\n",
                matrix.origin_codes()[o].c_str(), pct(top3).c_str());
    report::Table table({"AS", "LT hosts", "GT hosts", "share"});
    for (std::size_t i = 0; i < shares.size() && i < 5; ++i) {
      table.add_row({shares[i].name,
                     std::to_string(shares[i].longterm_hosts),
                     std::to_string(shares[i].ground_truth_hosts),
                     pct(shares[i].share_of_origin_misses)});
    }
    std::printf("%s", table.to_string().c_str());
    if (matrix.origin_codes()[o] == "CEN") {
      cen_top3 = top3;
    } else if (matrix.origin_codes()[o] != "US64") {
      academic_top3 += top3;
      ++academic_count;
    }
  }

  report::Comparison comparison("Fig 4 AS concentration of LT misses");
  comparison.add("Censys top-3-AS share of its LT misses", "67%",
                 pct(cen_top3), "a handful of blockers dominate");
  comparison.add("academic mean top-3 share", "(lower than Censys)",
                 pct(academic_top3 / academic_count),
                 "academic misses spread more evenly");
  return comparison;
}

// Figure 5: long-term inaccessible ASes — how many ASes are 100% / >=75%
// / >=50% long-term inaccessible from each origin. Paper: Brazil loses
// the most entire ASes (~1.4x Censys, ~6.5x US1).
SectionResult fig05_inaccessible_ases(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto counts = core::inaccessible_as_counts(
      classification, experiment.world().topology, /*min_hosts=*/2);

  report::Table table({"origin", "100% inaccessible", ">=75%", ">=50%"});
  std::uint64_t br_full = 0, us1_full = 0, cen_full = 0;
  for (const auto& row : counts) {
    table.add_row({row.origin_code, std::to_string(row.fully),
                   std::to_string(row.at_least_75),
                   std::to_string(row.at_least_50)});
    if (row.origin_code == "BR") br_full = row.fully;
    if (row.origin_code == "US1") us1_full = row.fully;
    if (row.origin_code == "CEN") cen_full = row.fully;
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("Fig 5 fully inaccessible ASes");
  comparison.add("BR fully-lost ASes vs US1", "~6.5x",
                 std::to_string(br_full) + " vs " + std::to_string(us1_full),
                 "US finance/health networks block Brazil outright");
  comparison.add("BR vs CEN fully-lost ASes", "~1.4x",
                 std::to_string(br_full) + " vs " + std::to_string(cen_full),
                 "Brazil loses the most entire networks");
  return comparison;
}

// Table 2: countries with the most long-term inaccessible HTTP hosts,
// bucketed by country size. Paper: coverage of small countries is
// heavily origin-dependent and usually dominated by one or two ASes
// (e.g. 43% of Bangladesh / 27% of South Africa unreachable from Censys
// via DXTL); host count vs inaccessibility Spearman rho = 0.92.
SectionResult tab02_countries_http(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto table =
      core::compute_country_table(classification, experiment.world().topology);
  const auto buckets = core::bucket_top_countries(table, 5);

  const char* bucket_names[4] = {">1M-equivalent hosts", ">100K-equivalent",
                                 ">10K-equivalent", ">1K-equivalent"};
  for (int b = 0; b < 4; ++b) {
    std::printf("\n%s:\n", bucket_names[b]);
    std::vector<std::string> headers = {"country", "GT hosts"};
    for (const auto& code : table.origin_codes) headers.push_back(code);
    headers.push_back("#dominant AS");
    report::Table out(headers);
    for (const auto& row : buckets[static_cast<std::size_t>(b)]) {
      std::vector<std::string> cells = {row.country.to_string(),
                                        std::to_string(row.ground_truth_hosts)};
      for (double pct_value : row.inaccessible_percent) {
        cells.push_back(report::Table::num(pct_value, 1));
      }
      cells.push_back(std::to_string(row.dominating_ases));
      out.add_row(cells);
    }
    std::printf("%s", out.to_string().c_str());
  }

  // Headline cells: BD and ZA from Censys.
  const auto cen = static_cast<std::size_t>(experiment.origin_id("CEN"));
  double bd = 0, za = 0;
  for (const auto& row : table.rows) {
    if (row.country == sim::country::kBD) bd = row.inaccessible_percent[cen];
    if (row.country == sim::country::kZA) za = row.inaccessible_percent[cen];
  }
  const double rho = core::host_count_inaccessibility_correlation(
      classification);

  report::Comparison comparison("Table 2 country-level blocking");
  comparison.add("Bangladesh inaccessible from Censys", "42.9%",
                 report::Table::num(bd, 1) + "%", "driven by DXTL");
  comparison.add("South Africa inaccessible from Censys", "27.0%",
                 report::Table::num(za, 1) + "%", "driven by DXTL");
  comparison.add("Spearman rho, host count vs inaccessible count", "0.92",
                 report::Table::num(rho, 2),
                 "big countries lose the most hosts in absolute terms");
  return comparison;
}

// Figure 6: exclusively accessible HTTP hosts by country — origins
// usually reach their own country better than outside origins do.
// Paper: ~1.1% of Japanese and ~2% of Australian HTTP hosts are only
// reachable from within the country; globally only 0.17% of hosts are
// exclusively accessible from any single origin.
SectionResult fig06_exclusive_country(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);

  std::vector<sim::CountryCode> origin_countries;
  for (const auto& origin : experiment.world().origins) {
    origin_countries.push_back(origin.country);
  }
  const auto in_country =
      core::in_country_exclusives(classification, origin_countries);
  const auto exclusivity = core::compute_exclusivity(classification);

  report::Table table({"origin", "country", "in-country exclusive hosts",
                       "country hosts", "share"});
  double jp_share = 0, au_share = 0;
  for (std::size_t o = 0; o < in_country.size(); ++o) {
    const auto& entry = in_country[o];
    const double share =
        entry.country_hosts == 0
            ? 0.0
            : static_cast<double>(entry.exclusive_hosts) /
                  static_cast<double>(entry.country_hosts);
    table.add_row({matrix.origin_codes()[o], entry.country.to_string(),
                   std::to_string(entry.exclusive_hosts),
                   std::to_string(entry.country_hosts), pct(share, 2)});
    if (matrix.origin_codes()[o] == "JP") jp_share = share;
    if (matrix.origin_codes()[o] == "AU") au_share = share;
  }
  std::printf("\n%s", table.to_string().c_str());

  // Exclusive-accessible totals across all destination countries.
  std::uint64_t exclusive_total = 0;
  for (std::uint64_t v : exclusivity.exclusively_accessible) {
    exclusive_total += v;
  }
  std::uint64_t gt_total = 0;
  for (core::HostIdx h = 0; h < matrix.host_count(); ++h) {
    if (matrix.trials_present(h) > 0) ++gt_total;
  }

  std::printf("\nper-origin exclusive hosts by destination country (top 3):\n");
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    std::vector<std::pair<std::uint64_t, sim::CountryCode>> rows;
    for (const auto& [cc, count] : exclusivity.accessible_by_country[o]) {
      rows.emplace_back(count, cc);
    }
    std::sort(rows.rbegin(), rows.rend());
    std::printf("  %-5s:", matrix.origin_codes()[o].c_str());
    for (std::size_t i = 0; i < rows.size() && i < 3; ++i) {
      std::printf(" %s=%llu", rows[i].second.to_string().c_str(),
                  static_cast<unsigned long long>(rows[i].first));
    }
    std::printf("\n");
  }

  report::Comparison comparison("Fig 6 in-country exclusivity");
  comparison.add("JP hosts only reachable from JP", "~1.1%",
                 pct(jp_share, 2), "Bekkoame/NTT/Gateway archetypes");
  comparison.add("AU hosts only reachable from AU", "~2%", pct(au_share, 2),
                 "WebCentral archetype");
  comparison.add("global share exclusively accessible", "0.17%",
                 pct(static_cast<double>(exclusive_total) / gt_total, 2),
                 "regional bias is real but globally small");
  return comparison;
}

// Figure 7: AS distribution of exclusively accessible HTTP hosts — the
// networks holding the hosts only one origin can reach. Paper: Bekkoame
// (40%) and NTT (29%) dominate Japan's exclusives; WebCentral holds >80%
// of Australia's; WA K-20 holds about two-thirds of Brazil's.
SectionResult fig07_exclusive_as(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto exclusivity = core::compute_exclusivity(classification);
  const auto& topology = experiment.world().topology;

  double jp_top_share = 0, au_top_share = 0;
  std::string jp_top_name, au_top_name;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    std::uint64_t total = exclusivity.exclusively_accessible[o];
    if (total == 0) continue;
    std::vector<std::pair<std::uint64_t, std::string>> rows;
    for (const auto& [as, count] : exclusivity.accessible_by_as[o]) {
      rows.emplace_back(count, as == sim::kNoAs ? "(unrouted)"
                                                : topology.as_info(as).name);
    }
    std::sort(rows.rbegin(), rows.rend());

    std::printf("\n%s (%llu exclusive hosts):\n",
                matrix.origin_codes()[o].c_str(),
                static_cast<unsigned long long>(total));
    report::Table table({"AS", "hosts", "share"});
    for (std::size_t i = 0; i < rows.size() && i < 4; ++i) {
      table.add_row({rows[i].second, std::to_string(rows[i].first),
                     pct(static_cast<double>(rows[i].first) / total)});
    }
    std::printf("%s", table.to_string().c_str());

    if (matrix.origin_codes()[o] == "JP" && !rows.empty()) {
      jp_top_share = static_cast<double>(rows[0].first) / total;
      jp_top_name = rows[0].second;
    }
    if (matrix.origin_codes()[o] == "AU" && !rows.empty()) {
      au_top_share = static_cast<double>(rows[0].first) / total;
      au_top_name = rows[0].second;
    }
  }

  report::Comparison comparison("Fig 7 exclusive-host AS concentration");
  comparison.add("top AS share of JP exclusives", "40% (Bekkoame)",
                 pct(jp_top_share) + " (" + jp_top_name + ")",
                 "one hosting provider dominates");
  comparison.add("top AS share of AU exclusives", ">80% (WebCentral)",
                 pct(au_top_share) + " (" + au_top_name + ")",
                 "geo-restricted digital agency");
  return comparison;
}

// Figure 8: transient inaccessibility among origins. Paper: nearly half
// (two thirds by host-count wording) of transiently inaccessible HTTP(S)
// hosts are missed by only one origin; SSH transients are more likely to
// be shared across origins (MaxStartups hits everyone).
SectionResult fig08_transient_overlap(Runs& runs) {
  auto& experiment = runs.all_protocols();

  double http_single = 0, ssh_single = 0;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);
    const auto overlap = core::transient_overlap(classification);

    std::printf("\n%s: transiently missed hosts by number of origins:\n",
                std::string(proto::name_of(protocol)).c_str());
    std::vector<report::BarRow> rows;
    for (std::size_t k = 1; k <= matrix.origins(); ++k) {
      rows.push_back({"k=" + std::to_string(k),
                      100.0 * overlap.fraction(k)});
    }
    std::printf("%s", report::bar_chart(rows, 40, 1).c_str());
    if (protocol == proto::Protocol::kHttp) http_single = overlap.fraction(1);
    if (protocol == proto::Protocol::kSsh) ssh_single = overlap.fraction(1);
  }

  report::Comparison comparison("Fig 8 transient overlap");
  comparison.add("HTTP transients missed by exactly one origin", "~50-66%",
                 pct(http_single), "transient loss is mostly origin-local");
  comparison.add("SSH single-origin share vs HTTP", "lower",
                 pct(ssh_single) + " vs " + pct(http_single),
                 "probabilistic blocking hits several origins at once");
  return comparison;
}

// Figure 9: distribution of differences in transient loss rate among
// origins, per destination AS (plain and AS-size weighted CDFs).
// Paper: loss rates are identical across origins for about half of ASes;
// they differ by more than 10% for roughly 20% of ASes; ~40% of ASes
// show >1% coverage difference between some pair of origins.
SectionResult fig09_transient_cdf(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto by_as = core::transient_by_as(
      classification, experiment.world().topology, /*min_hosts=*/5);
  const auto spread = core::transient_spread(by_as);

  const stats::Ecdf plain(spread.differences);
  const stats::Ecdf weighted(spread.differences, spread.weights);

  std::printf("\nCDF over %zu ASes (unweighted):\n", plain.sample_count());
  std::printf("%s", report::cdf_plot(plain, 60, 12,
                                     "max-min transient loss rate").c_str());

  const double identical = plain.at(0.0);
  const double over_1pct = 1.0 - plain.at(0.01);
  const double over_10pct = 1.0 - plain.at(0.10);
  std::printf("ASes with identical rates: %s; >1%% difference: %s; "
              ">10%% difference: %s\n",
              pct(identical).c_str(), pct(over_1pct).c_str(),
              pct(over_10pct).c_str());
  std::printf("weighted by AS size: >1%%: %s, >10%%: %s\n",
              pct(1.0 - weighted.at(0.01)).c_str(),
              pct(1.0 - weighted.at(0.10)).c_str());

  report::Comparison comparison("Fig 9 transient-loss spread");
  comparison.add("ASes where origins differ by >1%", "~40%", pct(over_1pct),
                 "coverage is origin-dependent");
  comparison.add("ASes where origins differ by >10%", "16-25%",
                 pct(over_10pct), "long tail of high-variance ASes");
  comparison.add("ASes with identical rates", "~50%", pct(identical),
                 "half the Internet looks the same from everywhere");
  return comparison;
}

// Table 3: ASes with the largest range of transient host-loss rates
// between origins, per protocol. Paper: large Chinese and Italian ASes
// (HZ Alibaba, Akamai, Telecom Italia/Sparkle, Tencent, China Telecom,
// ABCDE, Psychz) top the list.
SectionResult tab03_transient_ases(Runs& runs) {
  auto& experiment = runs.all_protocols();

  int expected_archetypes = 0;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);
    auto by_as = core::transient_by_as(classification,
                                       experiment.world().topology, 10);
    const auto top = core::largest_transient_spread(std::move(by_as), 100, 6);

    std::printf("\n%s:\n", std::string(proto::name_of(protocol)).c_str());
    report::Table table({"AS", "cc", "Δ(%)", "Diff", "Ratio"});
    for (const auto& entry : top) {
      table.add_row({entry.name, entry.country,
                     report::Table::num(entry.delta_percent(), 1),
                     std::to_string(entry.diff_hosts()),
                     report::Table::num(entry.ratio(), 1)});
      for (const char* name :
           {"Alibaba", "Telecom Italia", "Akamai", "Tencent", "China",
            "ABCDE", "Psychz"}) {
        if (entry.name.find(name) != std::string::npos) {
          ++expected_archetypes;
          break;
        }
      }
    }
    std::printf("%s", table.to_string().c_str());
  }

  report::Comparison comparison("Table 3 top transient-spread ASes");
  comparison.add("paper archetypes among the 18 top slots", "most",
                 std::to_string(expected_archetypes) + "/18",
                 "Chinese + Italian + CDN networks dominate the spread");
  return comparison;
}

// Figure 10 / Section 5.2: transient host loss vs estimated packet loss.
// Paper: only a weak correlation per origin across ASes (Spearman rho =
// 0.40-0.52), and within high-variance ASes (Alibaba archetype) the
// origins with the most packet loss are NOT the ones missing the most
// hosts (rho ~ 0.18, p = 0.44).
SectionResult fig10_loss_correlation(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto& topology = experiment.world().topology;

  // Per-origin correlation across ASes.
  const auto correlations =
      core::loss_vs_transient_correlation(classification, topology, 20);
  std::printf("\nper-origin Spearman(packet loss, transient loss) across "
              "ASes:\n");
  report::Table table({"origin", "rho", "p"});
  double rho_sum = 0;
  for (std::size_t o = 0; o < correlations.size(); ++o) {
    table.add_row({matrix.origin_codes()[o],
                   report::Table::num(correlations[o].rho, 2),
                   report::Table::num(correlations[o].p_value, 4)});
    rho_sum += correlations[o].rho;
  }
  std::printf("%s", table.to_string().c_str());

  // Within the wild-variance archetype: across origins.
  const auto by_as =
      core::transient_by_as(classification, topology, /*min_hosts=*/10);
  const auto losses = core::loss_by_as(matrix, topology, 10);
  double abcde_rho = 0;
  bool found = false;
  for (const auto& as_loss : losses) {
    if (as_loss.name != "ABCDE Group Co.") continue;
    for (const auto& transient : by_as) {
      if (transient.as != as_loss.as) continue;
      const auto result = core::per_as_loss_vs_transient(
          classification, as_loss, transient.transient_hosts);
      abcde_rho = result.rho;
      found = true;
      std::printf("\nABCDE Group (wild-variance archetype): per-origin "
                  "rho = %.2f (p = %.2f)\n",
                  result.rho, result.p_value);
    }
  }

  report::Comparison comparison("Fig 10 loss correlation");
  comparison.add("mean per-origin Spearman rho", "0.40-0.52",
                 report::Table::num(rho_sum / correlations.size(), 2),
                 "packet loss only weakly predicts missing hosts");
  if (found) {
    comparison.add("high-variance AS per-origin rho", "~0.18 (n.s.)",
                   report::Table::num(abcde_rho, 2),
                   "within wild ASes packet loss does not rank origins");
  }
  return comparison;
}

// Figure 11 / Section 5.1: consistent best and worst scan origins per
// destination AS. Paper: ~23% of ASes flip (best origin in one trial is
// worst in another); <5% have a consistent best; ~10% a consistent
// worst; Australia is the consistent-worst origin for 72% of those.
SectionResult fig11_best_worst(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const core::Classification classification(matrix);
  const auto stability = core::compute_stability(classification, 20);

  std::printf("\nASes considered: %llu\n",
              static_cast<unsigned long long>(stability.ases_considered));
  std::printf("best-flips-to-worst ASes: %llu (%s)\n",
              static_cast<unsigned long long>(stability.flip_ases),
              pct(stability.flip_fraction()).c_str());
  std::printf("consistent best: %llu (%s), consistent worst: %llu (%s)\n",
              static_cast<unsigned long long>(stability.consistent_best_ases),
              pct(static_cast<double>(stability.consistent_best_ases) /
                  stability.ases_considered).c_str(),
              static_cast<unsigned long long>(stability.consistent_worst_ases),
              pct(static_cast<double>(stability.consistent_worst_ases) /
                  stability.ases_considered).c_str());

  report::Table table({"origin", "consistent best ASes",
                       "consistent worst ASes"});
  std::uint64_t au_worst = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    table.add_row({matrix.origin_codes()[o],
                   std::to_string(stability.consistent_best_by_origin[o]),
                   std::to_string(stability.consistent_worst_by_origin[o])});
    if (matrix.origin_codes()[o] == "AU") {
      au_worst = stability.consistent_worst_by_origin[o];
    }
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("Fig 11 origin stability");
  comparison.add("ASes where best flips to worst", "~23%",
                 pct(stability.flip_fraction()), "transient rank is unstable");
  comparison.add("ASes with a consistent best origin", "<5%",
                 pct(static_cast<double>(stability.consistent_best_ases) /
                     std::max<std::uint64_t>(1, stability.ases_considered)),
                 "no reliable 'closest is best' rule");
  comparison.add("AU share of consistent-worst ASes", "72%",
                 pct(static_cast<double>(au_worst) /
                     std::max<std::uint64_t>(
                         1, stability.consistent_worst_ases)),
                 "Australia's lossy paths are persistent");
  return comparison;
}

// Figure 12: temporal blocking by SSH hosts in Alibaba networks — hourly
// fraction of the AS's hosts answering RST immediately after the TCP
// handshake, per single-IP origin. Paper: detection fires mid-scan at
// origin-specific times; multi-IP US64 is never detected.
SectionResult fig12_alibaba_blocking(Runs& runs) {
  auto& experiment = runs.ssh();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kSsh);
  const auto& topology = experiment.world().topology;

  const auto blockers = core::find_temporal_blockers(matrix, topology);
  if (blockers.empty()) {
    std::printf("no temporal blockers detected (unexpected)\n");
    return std::nullopt;
  }
  std::printf("\ndetected temporal blockers (network-wide RST after TCP "
              "handshake):\n");
  for (const auto& blocker : blockers) {
    std::printf("  %-28s %llu / %llu SSH hosts RST somewhere\n",
                blocker.name.c_str(),
                static_cast<unsigned long long>(blocker.rst_hosts),
                static_cast<unsigned long long>(blocker.ssh_hosts));
  }

  const auto series =
      core::temporal_blocking_series(matrix, topology, blockers.front().as,
                                     /*trial=*/0);
  std::printf("\n%s, trial 1 — hourly RST-after-accept fraction:\n",
              series.as_name.c_str());
  std::printf("hour:    ");
  const std::size_t hours = series.series.front().size();
  for (std::size_t hr = 0; hr < hours; ++hr) std::printf("%2zu ", hr);
  std::printf("\n");
  // A "blocked hour" shows the network-wide signature: the majority of
  // hosts probed that hour RST right after the TCP handshake.
  int us64_blocked_hours = 0, single_ip_blocked_hours = 0, single_count = 0;
  int origins_with_blocked_hours = 0;
  for (std::size_t o = 0; o < series.origin_codes.size(); ++o) {
    std::printf("%-6s : ", series.origin_codes[o].c_str());
    int blocked = 0;
    for (double value : series.series[o]) {
      std::printf("%s", value > 0.5 ? " # " : (value > 0.05 ? " + " : " . "));
      if (value > 0.5) ++blocked;
    }
    std::printf("\n");
    if (series.origin_codes[o] == "US64") {
      us64_blocked_hours = blocked;
    } else {
      if (blocked > 0) ++origins_with_blocked_hours;
      single_ip_blocked_hours += blocked;
      ++single_count;
    }
  }

  report::Comparison comparison("Fig 12 temporal SSH blocking");
  comparison.add("single-IP origins with blocked hours", "all of them",
                 std::to_string(origins_with_blocked_hours) + " of " +
                     std::to_string(single_count),
                 "'#' marks network-wide-RST hours above");
  comparison.add("mean blocked hours per single-IP origin", "several",
                 report::Table::num(
                     static_cast<double>(single_ip_blocked_hours) /
                         single_count, 1),
                 "detection times differ per origin (and per trial)");
  comparison.add("US64 blocked hours", "0 (never detected)",
                 std::to_string(us64_blocked_hours),
                 "64 source IPs stay under the radar");
  return comparison;
}

// Figure 13: scanning probabilistic temporarily blocking hosts — success
// rate of the SSH handshake as the retry budget grows, for candidate
// subnets from the most transiently-missed ASes. Paper: retrying up to
// eight times reaches ~90% of responding IPs in EGI Hosting and Psychz
// Networks.
//
// The retry ladders are extra scans against the SSH grid's world and
// advance its persistent IDS state; the grid's recorded results, which
// the other SSH sections read, do not change.
SectionResult fig13_ssh_retries(Runs& runs) {
  auto& experiment = runs.ssh();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kSsh);
  const core::Classification classification(matrix);
  const auto& world = experiment.world();

  // Candidate subnets: one /24 from each of the ASes showing the most
  // refused-before-banner SSH handshakes — the observable MaxStartups
  // signature the paper's Section 6 investigation chased.
  std::map<sim::AsId, std::uint64_t> refusals;
  for (core::HostIdx h = 0; h < matrix.host_count(); ++h) {
    for (int t = 0; t < matrix.trials(); ++t) {
      for (std::size_t o = 0; o < matrix.origins(); ++o) {
        if (matrix.outcome(t, o, h) == sim::L7Outcome::kClosedBeforeData) {
          ++refusals[matrix.host_as(h)];
        }
      }
    }
  }
  auto by_as =
      core::transient_by_as(classification, world.topology, /*min_hosts=*/10);
  std::sort(by_as.begin(), by_as.end(),
            [&](const core::AsTransient& a, const core::AsTransient& b) {
              return refusals[a.as] > refusals[b.as];
            });

  const auto us1 = experiment.origin_id("US1");
  std::printf("\nsuccess rate of responding IPs vs retry budget (US1):\n");
  report::Table table({"AS", "retries=0", "1", "2", "4", "8"});
  double worst_r0 = 1.0, worst_r8 = 0.0;
  int subnets = 0;
  for (const auto& entry : by_as) {
    if (subnets >= 6) break;
    if (entry.as == sim::kNoAs) continue;
    const auto& info = world.topology.as_info(entry.as);
    if (info.prefixes.empty()) continue;
    ++subnets;

    std::vector<scan::ScanResult> ladder;
    for (int retries : {0, 1, 2, 4, 8}) {
      scan::ScanOptions options;
      options.l7_retries = retries;
      options.target_prefix = info.prefixes.front().prefix;
      ladder.push_back(experiment.run_extra_scan(0, proto::Protocol::kSsh,
                                                 us1, options));
    }
    // Networks that block US1 outright (tripped IDSes, ABCDE-style
    // blocks) have nothing to retry against; the paper's follow-up
    // could only probe networks that answered at all.
    bool any_responding = false;
    for (const auto& record : ladder.front().records) {
      if (record.synack_mask != 0) any_responding = true;
    }
    if (!any_responding) {
      --subnets;
      continue;
    }
    const auto curve = core::retry_success_curve(ladder);
    table.add_row({info.name, pct(curve[0]), pct(curve[1]), pct(curve[2]),
                   pct(curve[3]), pct(curve[4])});
    if (curve[0] < worst_r0) {
      worst_r0 = curve[0];
      worst_r8 = curve.back();
    }
  }
  std::printf("%s", table.to_string().c_str());

  report::Comparison comparison("Fig 13 retry recovery");
  comparison.add("worst subnet, success with 0 retries", "well below 100%",
                 pct(worst_r0), "MaxStartups refuses first contact");
  comparison.add("same subnet after 8 retries", "~90%", pct(worst_r8),
                 "immediate retries recover refused hosts");
  return comparison;
}

// Figure 14: further breakdown of missing SSH hosts — temporal blocking
// (the Alibaba signature), probabilistic temporary blocking (MaxStartups
// signature), and the remaining long-term / transient / unknown misses.
// Paper: the two SSH-specific mechanisms explain over half of missing
// SSH hosts; probabilistic blocking hits all origins roughly equally,
// Alibaba only the single-IP ones.
SectionResult fig14_ssh_breakdown(Runs& runs) {
  auto& experiment = runs.ssh();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kSsh);
  const core::Classification classification(matrix);
  const auto breakdown = core::ssh_miss_breakdown(classification);

  report::Table table({"origin", "temporal", "probabilistic", "lt-other",
                       "transient-other", "unknown", "ssh-specific share"});
  std::uint64_t grand_total = 0, grand_specific = 0;
  double us64_temporal = 0, single_temporal = 0;
  int single_count = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    const std::uint64_t total = breakdown.total(o);
    const std::uint64_t specific =
        breakdown.temporal_blocking[o] + breakdown.probabilistic_blocking[o];
    table.add_row(
        {breakdown.origin_codes[o],
         std::to_string(breakdown.temporal_blocking[o]),
         std::to_string(breakdown.probabilistic_blocking[o]),
         std::to_string(breakdown.longterm_other[o]),
         std::to_string(breakdown.transient_other[o]),
         std::to_string(breakdown.unknown[o]),
         pct(total == 0 ? 0.0 : static_cast<double>(specific) / total)});
    grand_total += total;
    grand_specific += specific;
    if (breakdown.origin_codes[o] == "US64") {
      us64_temporal = static_cast<double>(breakdown.temporal_blocking[o]);
    } else if (breakdown.origin_codes[o] != "CEN") {
      single_temporal += static_cast<double>(breakdown.temporal_blocking[o]);
      ++single_count;
    }
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("Fig 14 SSH miss causes");
  comparison.add("SSH-specific mechanisms' share of misses", ">50%",
                 pct(static_cast<double>(grand_specific) / grand_total),
                 "temporal + probabilistic blocking dominate");
  comparison.add("US64 temporal-blocking misses vs single-IP mean",
                 "~0 vs large",
                 report::Table::num(us64_temporal, 0) + " vs " +
                     report::Table::num(single_temporal / single_count, 0),
                 "detection keys on per-IP scan rate");
  return comparison;
}

// Figure 15 / Section 7: multi-origin coverage of HTTP hosts for one and
// two probes. Paper: single origin median 95.5% (1 probe) / 96.9%
// (2 probes); two origins 98.3%/98.9%; three origins 99.1%/99.4% with
// sigma = 0.08%; the best combination is hard to predict.
SectionResult fig15_multi_origin(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);

  // The paper excludes US64 from the combination analysis.
  const std::vector<std::size_t> exclude = {
      static_cast<std::size_t>(experiment.origin_id("US64"))};

  report::Table table({"k origins", "median 1-probe", "median 2-probe",
                       "min", "max", "sigma (2-probe)"});
  std::vector<core::MultiOriginResult> results;
  for (int k = 1; k <= 4; ++k) {
    auto result = core::multi_origin_coverage(matrix, k, exclude);
    const auto s1 = result.summary_single_probe();
    const auto s2 = result.summary_two_probe();
    table.add_row({std::to_string(k), pct(s1.median, 2), pct(s2.median, 2),
                   pct(s2.min, 2), pct(s2.max, 2),
                   report::Table::num(100.0 * s2.stddev, 2) + "pp"});
    results.push_back(std::move(result));
  }
  std::printf("\n%s", table.to_string().c_str());

  std::printf("\nbest/worst combinations by mean 2-probe coverage:\n");
  for (const auto& result : results) {
    const auto* best = result.best();
    const auto* worst = result.worst();
    if (best == nullptr || worst == nullptr) continue;
    std::printf("  k=%d: best %-18s %s   worst %-18s %s\n", result.k,
                best->label.c_str(), pct(best->mean_two_probe, 2).c_str(),
                worst->label.c_str(), pct(worst->mean_two_probe, 2).c_str());
  }

  const auto s1 = results[0].summary_two_probe();
  const auto s2 = results[1].summary_two_probe();
  const auto s3 = results[2].summary_two_probe();
  report::Comparison comparison("Fig 15 multi-origin coverage");
  comparison.add("median single-origin coverage (2 probes)", "96.9%",
                 pct(s1.median, 2), "");
  comparison.add("median 2-origin coverage", "98.9%", pct(s2.median, 2),
                 "two diverse origins recover most loss");
  comparison.add("median 3-origin coverage", "99.4%", pct(s3.median, 2), "");
  comparison.add("3-origin sigma", "0.08pp",
                 report::Table::num(100.0 * s3.stddev, 2) + "pp",
                 "variance collapses with diversity");
  return comparison;
}

// Appendix A, Table 4a: fraction of ground-truth hosts perceived from
// each origin in every trial (2 probes), with the all-origin agreement
// (∩) and union sizes. Paper: all origins agree on only 87% of HTTP,
// 91% of HTTPS, and 71% of SSH hosts.
SectionResult tab04_ground_truth(Runs& runs) {
  auto& experiment = runs.all_protocols();

  double agreement[3] = {0, 0, 0};
  int index = 0;
  for (proto::Protocol protocol : proto::kAllProtocols) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const auto coverage = core::compute_coverage(matrix);

    std::printf("\n%s:\n", std::string(proto::name_of(protocol)).c_str());
    std::vector<std::string> headers = {"trial"};
    for (const auto& code : matrix.origin_codes()) headers.push_back(code);
    headers.push_back("∩");
    headers.push_back("∪");
    report::Table table(headers);
    for (int t = 0; t < matrix.trials(); ++t) {
      std::vector<std::string> row = {std::to_string(t + 1)};
      for (std::size_t o = 0; o < matrix.origins(); ++o) {
        row.push_back(pct(coverage.two_probe[t][o]));
      }
      row.push_back(pct(coverage.intersection_fraction[t]));
      row.push_back(std::to_string(coverage.union_size[t]));
      table.add_row(row);
      agreement[index] += coverage.intersection_fraction[t] / matrix.trials();
    }
    std::vector<std::string> mean_row = {"μ"};
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      mean_row.push_back(pct(coverage.mean_two_probe(o)));
    }
    mean_row.push_back(pct(agreement[index]));
    mean_row.push_back("-");
    table.add_row(mean_row);
    std::printf("%s", table.to_string().c_str());
    ++index;
  }

  report::Comparison comparison("Table 4a agreement");
  comparison.add("all-origin HTTP agreement", "86.7%", pct(agreement[0]), "");
  comparison.add("all-origin HTTPS agreement", "90.5%", pct(agreement[1]),
                 "");
  comparison.add("all-origin SSH agreement", "70.6%", pct(agreement[2]),
                 "SSH origins disagree the most");
  return comparison;
}

// Appendix A, Table 4b: the September-2020 follow-up — two HTTP trials
// from AU, DE, JP, US1, Censys-with-new-IPs, and three Tier-1 providers
// colocated at one Chicago data center. Paper: Hurricane Electric has
// the highest coverage (98.1-98.2%); Censys gains >5% with fresh IPs.
SectionResult tab04b_colocated(Runs& runs) {
  auto& experiment = runs.colocated();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const auto coverage = core::compute_coverage(matrix);

  std::vector<std::string> headers = {"trial"};
  for (const auto& code : matrix.origin_codes()) headers.push_back(code);
  headers.push_back("∪");
  report::Table table(headers);
  for (int t = 0; t < matrix.trials(); ++t) {
    std::vector<std::string> row = {std::to_string(t + 1)};
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      row.push_back(pct(coverage.two_probe[t][o]));
    }
    row.push_back(std::to_string(coverage.union_size[t]));
    table.add_row(row);
  }
  std::printf("\n%s", table.to_string().c_str());

  const auto idx = [&](const char* code) {
    return static_cast<std::size_t>(experiment.origin_id(code));
  };
  const double he = coverage.mean_two_probe(idx("HE"));
  const double ntt = coverage.mean_two_probe(idx("NTT"));
  const double telia = coverage.mean_two_probe(idx("TELIA"));
  const double cen = coverage.mean_two_probe(idx("CEN*"));

  report::Comparison comparison("Table 4b colocated origins");
  comparison.add("Hurricane Electric coverage", "98.1-98.2%", pct(he),
                 "highest of the three colocated providers");
  comparison.add("HE vs NTT vs Telia", "98.1 / 97.9 / 97.8",
                 pct(he) + " / " + pct(ntt) + " / " + pct(telia),
                 "colocated providers are nearly identical");
  comparison.add("Censys with fresh IPs", "~97.6% (+5.5pp)", pct(cen),
                 "blocking followed the old address range");
  return comparison;
}

// Appendix B, Table 5: countries with the most long-term inaccessible
// HTTPS and SSH hosts. Paper: the same pattern as HTTP (origin-dependent
// coverage concentrated in few ASes), with SSH showing China/Korea/Italy
// prominently and US64 consistently lowest.
SectionResult tab05_countries_https_ssh(Runs& runs) {
  auto& experiment = runs.https_ssh();

  double cen_bd_https = 0, us64_ssh_max = 0, single_ip_ssh_max = 0;
  for (proto::Protocol protocol :
       {proto::Protocol::kHttps, proto::Protocol::kSsh}) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    const core::Classification classification(matrix);
    const auto table = core::compute_country_table(
        classification, experiment.world().topology);
    const auto buckets = core::bucket_top_countries(table, 5);

    std::printf("\n%s:\n", std::string(proto::name_of(protocol)).c_str());
    const char* bucket_names[4] = {"largest", "large", "medium", "small"};
    for (int b = 0; b < 4; ++b) {
      std::printf(" %s countries:\n", bucket_names[b]);
      std::vector<std::string> headers = {"country"};
      for (const auto& code : table.origin_codes) headers.push_back(code);
      report::Table out(headers);
      for (const auto& row : buckets[static_cast<std::size_t>(b)]) {
        std::vector<std::string> cells = {row.country.to_string()};
        for (double value : row.inaccessible_percent) {
          cells.push_back(report::Table::num(value, 1));
        }
        out.add_row(cells);
      }
      std::printf("%s", out.to_string().c_str());
    }

    const auto cen = static_cast<std::size_t>(experiment.origin_id("CEN"));
    const auto us64 = static_cast<std::size_t>(experiment.origin_id("US64"));
    for (const auto& row : table.rows) {
      // Headline cells only consider countries with a meaningful host
      // population; micro-countries of a handful of hosts produce
      // degenerate 0/100% cells at simulation scale.
      if (row.ground_truth_hosts < 30) continue;
      if (protocol == proto::Protocol::kHttps &&
          row.country == sim::country::kBD) {
        cen_bd_https = row.inaccessible_percent[cen];
      }
      if (protocol == proto::Protocol::kSsh) {
        us64_ssh_max =
            std::max(us64_ssh_max, row.inaccessible_percent[us64]);
        for (std::size_t o = 0; o < row.inaccessible_percent.size(); ++o) {
          if (o != us64) {
            single_ip_ssh_max = std::max(single_ip_ssh_max,
                                         row.inaccessible_percent[o]);
          }
        }
      }
    }
  }

  report::Comparison comparison("Table 5 HTTPS/SSH country blocking");
  comparison.add("Bangladesh HTTPS inaccessible from Censys", "14.3%",
                 report::Table::num(cen_bd_https, 1) + "%",
                 "DXTL's HTTPS footprint is smaller than HTTP");
  comparison.add("US64 worst SSH country vs single-IP worst", "far lower",
                 report::Table::num(us64_ssh_max, 1) + "% vs " +
                     report::Table::num(single_ip_ssh_max, 1) + "%",
                 "multi-IP scanning evades the SSH detectors");
  return comparison;
}

// Appendix D, Figure 17: multi-origin coverage for HTTPS and SSH.
// Paper: three origins add 2-3% HTTPS coverage over one; SSH needs many
// more origins for the same effect because probabilistic temporary
// blocking punishes every origin.
SectionResult fig17_multi_origin_all(Runs& runs) {
  auto& experiment = runs.https_ssh();
  const std::vector<std::size_t> exclude = {
      static_cast<std::size_t>(experiment.origin_id("US64"))};

  double https_gain3 = 0, ssh_gain3 = 0, ssh_median5 = 0;
  for (proto::Protocol protocol :
       {proto::Protocol::kHttps, proto::Protocol::kSsh}) {
    const auto matrix = core::AccessMatrix::build(experiment, protocol);
    std::printf("\n%s coverage by origin count:\n",
                std::string(proto::name_of(protocol)).c_str());
    report::Table table({"k", "median 2-probe", "min", "max", "sigma"});
    double k1 = 0, k3 = 0, k5 = 0;
    for (int k = 1; k <= 5; ++k) {
      const auto result = core::multi_origin_coverage(matrix, k, exclude);
      const auto summary = result.summary_two_probe();
      table.add_row({std::to_string(k), pct(summary.median, 2),
                     pct(summary.min, 2), pct(summary.max, 2),
                     report::Table::num(100.0 * summary.stddev, 2) + "pp"});
      if (k == 1) k1 = summary.median;
      if (k == 3) k3 = summary.median;
      if (k == 5) k5 = summary.median;
    }
    std::printf("%s", table.to_string().c_str());
    if (protocol == proto::Protocol::kHttps) https_gain3 = k3 - k1;
    if (protocol == proto::Protocol::kSsh) {
      ssh_gain3 = k3 - k1;
      ssh_median5 = k5;
    }
  }

  report::Comparison comparison("Fig 17 multi-origin HTTPS/SSH");
  comparison.add("HTTPS gain from 1 to 3 origins", "+2-3pp",
                 report::Table::num(100.0 * https_gain3, 2) + "pp", "");
  comparison.add("SSH gain from 1 to 3 origins", "larger, still short",
                 report::Table::num(100.0 * ssh_gain3, 2) + "pp",
                 "SSH needs more origins than HTTP(S)");
  comparison.add("SSH median with 5 origins", "< HTTPS with 2",
                 pct(ssh_median5, 2),
                 "probabilistic blocking caps union coverage");
  return comparison;
}

// Appendix D, Figure 18: multi-origin coverage in the follow-up
// experiment. Paper: the HE-NTT-TELIA triad — three Tier-1s in the same
// data center — is the WORST of all triads (mu = 98.7%, 0.4pp below the
// median triad), but still within the band of geographically diverse
// triads (sigma = 0.1%): colocated diversity buys most of the benefit.
SectionResult fig18_colocated_triads(Runs& runs) {
  auto& experiment = runs.colocated();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);

  const auto result = core::multi_origin_coverage(matrix, 3);
  const auto summary = result.summary_single_probe();

  // Find the colocated triad.
  const core::ComboCoverage* colocated = nullptr;
  for (const auto& combo : result.combos) {
    if (combo.label == "HE+NTT+TELIA") colocated = &combo;
  }

  std::vector<const core::ComboCoverage*> sorted;
  for (const auto& combo : result.combos) sorted.push_back(&combo);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) {
              return a->mean_single_probe > b->mean_single_probe;
            });

  std::printf("\nall triads by mean single-probe coverage:\n");
  report::Table table({"rank", "triad", "1-probe", "2-probe"});
  std::size_t colocated_rank = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    table.add_row({std::to_string(i + 1), sorted[i]->label,
                   pct(sorted[i]->mean_single_probe, 2),
                   pct(sorted[i]->mean_two_probe, 2)});
    if (sorted[i] == colocated) colocated_rank = i + 1;
  }
  std::printf("%s", table.to_string().c_str());

  report::Comparison comparison("Fig 18 colocated triad");
  if (colocated != nullptr) {
    comparison.add("HE+NTT+TELIA rank among triads",
                   "last (worst of any three origins)",
                   std::to_string(colocated_rank) + " of " +
                       std::to_string(sorted.size()),
                   "shared paths reduce effective diversity");
    comparison.add("colocated triad vs median triad", "-0.4pp",
                   report::Table::num(
                       100.0 * (colocated->mean_single_probe - summary.median),
                       2) + "pp",
                   "still close: origin diversity saturates fast");
  }
  comparison.add("sigma across all triads", "0.1pp",
                 report::Table::num(100.0 * summary.stddev, 2) + "pp", "");
  return comparison;
}

// Section 3's statistical validation: McNemar's test over every origin
// pair with a Bonferroni correction, plus Cochran's Q for contrast.
// Paper: all pairs differ significantly (p < 0.001) in every trial.
SectionResult sec3_mcnemar(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);

  int significant = 0, total = 0;
  for (int t = 0; t < matrix.trials(); ++t) {
    const auto pairs = core::pairwise_mcnemar(matrix, t);
    std::printf("\ntrial %d:\n", t + 1);
    report::Table table({"pair", "b (only A)", "c (only B)", "chi2",
                         "Bonferroni p"});
    for (const auto& pair : pairs) {
      table.add_row({pair.label, std::to_string(pair.mcnemar.b),
                     std::to_string(pair.mcnemar.c),
                     report::Table::num(pair.mcnemar.statistic, 1),
                     pair.bonferroni_p < 1e-4
                         ? "<0.0001"
                         : report::Table::num(pair.bonferroni_p, 4)});
      ++total;
      if (pair.bonferroni_p < 0.001) ++significant;
    }
    std::printf("%s", table.to_string().c_str());
    const auto q = core::cochran_q_all_origins(matrix, t);
    std::printf("Cochran's Q = %.1f (df %.0f, p %s)\n", q.statistic,
                q.degrees_of_freedom,
                q.p_value < 1e-4 ? "<0.0001"
                                 : report::Table::num(q.p_value, 4).c_str());
  }

  report::Comparison comparison("Section 3 significance");
  comparison.add("origin pairs significantly different (p<0.001)",
                 "all pairs, all trials",
                 std::to_string(significant) + "/" + std::to_string(total),
                 "after Bonferroni correction");
  return comparison;
}

// Section 5.2: packet-drop estimation from one-vs-two probe responses.
// Paper: global drop estimates between 0.44% and 1.6% by origin/trial
// with Australia highest; paths into China lose 3-14%; >93% of loss
// events drop both back-to-back probes (so retransmission barely helps).
SectionResult sec52_packet_loss(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const auto& topology = experiment.world().topology;

  const auto global = core::global_loss(matrix);
  std::printf("\nestimated drop-rate lower bound by origin and trial:\n");
  std::vector<std::string> headers = {"trial"};
  for (const auto& code : matrix.origin_codes()) headers.push_back(code);
  report::Table table(headers);
  double au_mean = 0, others_mean = 0;
  for (int t = 0; t < matrix.trials(); ++t) {
    std::vector<std::string> row = {std::to_string(t + 1)};
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      const double rate = global[t][o].rate();
      row.push_back(pct(rate, 3));
      if (matrix.origin_codes()[o] == "AU") {
        au_mean += rate / matrix.trials();
      } else {
        others_mean += rate / (matrix.trials() * (matrix.origins() - 1));
      }
    }
    table.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());

  // Both-probes-lost ratio: among ground-truth hosts that lost >= 1
  // probe (responded to neither or exactly one), how many lost both?
  std::uint64_t lost_any = 0, lost_both = 0;
  for (int t = 0; t < matrix.trials(); ++t) {
    for (core::HostIdx h = 0; h < matrix.host_count(); ++h) {
      if (!matrix.present(t, h)) continue;
      for (std::size_t o = 0; o < matrix.origins(); ++o) {
        const std::uint8_t mask = matrix.synack_mask(t, o, h);
        if (mask != 0b11) {
          ++lost_any;
          if (mask == 0) ++lost_both;
        }
      }
    }
  }

  // China vs elsewhere.
  const auto by_as = core::loss_by_as(matrix, topology, 30);
  double china_loss = 0, other_loss = 0;
  int china_count = 0, other_count = 0;
  for (const auto& entry : by_as) {
    if (entry.as == sim::kNoAs) continue;
    double mean = 0;
    for (const auto& estimate : entry.per_origin) mean += estimate.rate();
    mean /= entry.per_origin.size();
    if (topology.as_info(entry.as).country == sim::country::kCN) {
      china_loss += mean;
      ++china_count;
    } else {
      other_loss += mean;
      ++other_count;
    }
  }

  report::Comparison comparison("Section 5.2 packet loss");
  comparison.add("AU mean drop estimate vs other origins", "highest",
                 pct(au_mean, 3) + " vs " + pct(others_mean, 3),
                 "Australia's paths are the lossiest");
  comparison.add("mean China-AS drop estimate vs elsewhere", "3-14% vs low",
                 pct(china_loss / std::max(1, china_count), 2) + " vs " +
                     pct(other_loss / std::max(1, other_count), 3),
                 "the transnational China bottleneck");
  comparison.add("both-probes-lost share of loss events", ">93%",
                 pct(static_cast<double>(lost_both) /
                     std::max<std::uint64_t>(1, lost_any)),
                 "loss is bursty, not uniform random");
  return comparison;
}

// Section 2's eighth origin: Carinet, the scanning-tolerant cloud
// provider Rapid7 uses for Project Sonar, scanned in one trial only and
// excluded from the paper's aggregates. We run it alongside the main
// roster for one trial and check it behaves like a mid-reputation cloud
// origin — worse than fresh academics, better than Censys.
SectionResult sec2_carinet(Runs& runs) {
  core::ExperimentConfig config = runs.config();
  config.roster = core::ExperimentConfig::Roster::kPaperWithCarinet;
  config.trials = 1;  // Carinet participated in a single trial
  config.protocols = {proto::Protocol::kHttp};
  core::Experiment experiment(std::move(config));
  run_with_progress(experiment);

  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const auto coverage = core::compute_coverage(matrix);

  report::Table table({"origin", "HTTP coverage (2 probes)"});
  double car = 0, cen = 0, academic = 0;
  int academic_count = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    const double value = coverage.two_probe[0][o];
    table.add_row({matrix.origin_codes()[o], pct(value, 2)});
    if (matrix.origin_codes()[o] == "CAR") {
      car = value;
    } else if (matrix.origin_codes()[o] == "CEN") {
      cen = value;
    } else if (matrix.origin_codes()[o] != "US64") {
      academic += value;
      ++academic_count;
    }
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("Section 2 Carinet");
  comparison.add("Carinet vs Censys coverage", "higher (less blocked)",
                 pct(car, 2) + " vs " + pct(cen, 2),
                 "Carinet scans less and from rotating space");
  comparison.add("Carinet vs academic mean", "comparable",
                 pct(car, 2) + " vs " + pct(academic / academic_count, 2),
                 "(the paper excluded Carinet from aggregates)");
  return comparison;
}

// Runs `config` without progress lines, as the ablations' variants do.
core::Experiment run_quietly(core::ExperimentConfig config) {
  core::Experiment experiment(std::move(config));
  experiment.run();
  return experiment;
}

struct LossOutcome {
  double single_probe = 0;
  double two_probe = 0;
  double both_lost_ratio = 0;
};

LossOutcome loss_outcome(const core::Experiment& experiment) {
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const auto coverage = core::compute_coverage(matrix);

  LossOutcome outcome;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    outcome.single_probe += coverage.single_probe[0][o] / matrix.origins();
    outcome.two_probe += coverage.two_probe[0][o] / matrix.origins();
  }
  std::uint64_t lost_any = 0, lost_both = 0;
  for (core::HostIdx h = 0; h < matrix.host_count(); ++h) {
    for (std::size_t o = 0; o < matrix.origins(); ++o) {
      const std::uint8_t mask = matrix.synack_mask(0, o, h);
      if (mask != 0b11) {
        ++lost_any;
        if (mask == 0) ++lost_both;
      }
    }
  }
  outcome.both_lost_ratio =
      lost_any == 0 ? 0.0
                    : static_cast<double>(lost_both) /
                          static_cast<double>(lost_any);
  return outcome;
}

// Ablation: correlated (Gilbert-Elliott) loss vs uniform random loss at
// the same stationary rate. The paper's core methodological point: under
// the uniform-random assumption of the original ZMap estimate, a second
// back-to-back probe recovers almost all loss; under realistic bursty
// loss it recovers almost none, because >93% of loss events swallow both
// probes.
SectionResult abl_correlated_loss(Runs& runs) {
  std::printf("\nrunning with realistic correlated loss...\n");
  const LossOutcome correlated = loss_outcome(runs.one_trial_http());
  std::printf("running with uniform random loss (same stationary rates)...\n");
  core::ExperimentConfig config = runs.one_trial_http_config();
  config.uniform_random_loss = true;
  const LossOutcome uniform = loss_outcome(run_quietly(std::move(config)));

  report::Table table({"loss model", "1-probe coverage", "2-probe coverage",
                       "retransmission gain", "both-probes-lost ratio"});
  table.add_row({"correlated (Gilbert-Elliott)",
                 pct(correlated.single_probe, 2),
                 pct(correlated.two_probe, 2),
                 report::Table::num(
                     100.0 * (correlated.two_probe - correlated.single_probe),
                     2) + "pp",
                 pct(correlated.both_lost_ratio)});
  table.add_row({"uniform random", pct(uniform.single_probe, 2),
                 pct(uniform.two_probe, 2),
                 report::Table::num(
                     100.0 * (uniform.two_probe - uniform.single_probe), 2) +
                     "pp",
                 pct(uniform.both_lost_ratio)});
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("loss-correlation ablation");
  comparison.add("both-probes-lost under correlated loss", ">93%",
                 pct(correlated.both_lost_ratio),
                 "bursty loss defeats back-to-back retransmission");
  comparison.add("both-probes-lost under uniform loss", "much lower",
                 pct(uniform.both_lost_ratio),
                 "residual double losses are dark flaky hosts, not drops");
  comparison.add("retransmission gain correlated vs uniform", "small vs large",
                 report::Table::num(
                     100.0 * (correlated.two_probe - correlated.single_probe),
                     2) + "pp vs " +
                     report::Table::num(
                         100.0 * (uniform.two_probe - uniform.single_probe),
                         2) + "pp",
                 "why the original ZMap estimate was optimistic");
  return comparison;
}

double mean_two_probe_coverage(const core::Experiment& experiment) {
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);
  const auto coverage = core::compute_coverage(matrix);
  double mean = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    mean += coverage.two_probe[0][o] / matrix.origins();
  }
  return mean;
}

// Ablation: delay between the two probes to each target (Bano et al.,
// endorsed by the paper's Section 7). Back-to-back probes die together in
// the same Bad period; spacing them by more than typical Bad-period
// lengths makes the second probe an independent draw.
SectionResult abl_probe_delay(Runs& runs) {
  struct Point {
    const char* label;
    net::VirtualTime interval;
    double coverage = 0;
  };
  Point points[] = {
      {"back-to-back (ZMap default)", net::VirtualTime{}, 0},
      {"10 s apart", net::VirtualTime::from_seconds(10), 0},
      {"2 min apart", net::VirtualTime::from_seconds(120), 0},
      {"15 min apart", net::VirtualTime::from_seconds(900), 0},
      {"60 min apart", net::VirtualTime::from_seconds(3600), 0},
  };
  for (auto& point : points) {
    std::printf("running with probes %s...\n", point.label);
    if (point.interval == net::VirtualTime{}) {
      point.coverage = mean_two_probe_coverage(runs.one_trial_http());
      continue;
    }
    core::ExperimentConfig config = runs.one_trial_http_config();
    config.probe_interval = point.interval;
    point.coverage = mean_two_probe_coverage(run_quietly(std::move(config)));
  }

  report::Table table({"probe spacing", "mean 2-probe coverage", "gain vs "
                       "back-to-back"});
  for (const auto& point : points) {
    table.add_row({point.label, pct(point.coverage, 2),
                   report::Table::num(
                       100.0 * (point.coverage - points[0].coverage), 2) +
                       "pp"});
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("probe-delay ablation");
  comparison.add("delayed probes vs back-to-back", "higher coverage",
                 report::Table::num(
                     100.0 * (points[4].coverage - points[0].coverage), 2) +
                     "pp gain at 60 min",
                 "matches Bano et al. / paper Section 7 advice");
  return comparison;
}

// Builds a roster of four US origins that differ only in source-IP count.
std::vector<sim::OriginSpec> sweep_origins(std::uint32_t universe_size) {
  std::vector<sim::OriginSpec> origins;
  int index = 0;
  for (int ips : {1, 4, 16, 64}) {
    sim::OriginSpec spec;
    spec.code = "US" + std::to_string(ips);
    spec.display_name = spec.code;
    spec.country = sim::country::kUS;
    spec.scan_reputation = 0.15;
    spec.loss_multiplier = 0.9;
    for (int i = 0; i < ips; ++i) {
      spec.source_ips.emplace_back(universe_size +
                                   static_cast<std::uint32_t>(256 * index + i +
                                                              10));
    }
    origins.push_back(std::move(spec));
    ++index;
  }
  return origins;
}

// Ablation: number of source IPs at one origin (1 / 4 / 16 / 64). The
// paper only contrasts US1 and US64; sweeping the block size shows where
// the per-IP rate detectors stop firing. The per-IP probe rate into a
// destination network falls linearly with the block size, so each IDS
// has a critical block size above which the origin stays invisible.
SectionResult abl_source_ips(Runs& runs) {
  core::ExperimentConfig config = runs.config();
  config.trials = 2;
  config.protocols = {proto::Protocol::kSsh};

  sim::World world = sim::build_world(
      config.scenario, sweep_origins(config.scenario.universe_size));
  core::Experiment experiment(config, std::move(world));
  run_with_progress(experiment);

  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kSsh);
  const auto coverage = core::compute_coverage(matrix);

  report::Table table({"source IPs", "SSH coverage (2 probes)",
                       "gain vs 1 IP"});
  const double base = coverage.mean_two_probe(0);
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    table.add_row({matrix.origin_codes()[o],
                   pct(coverage.mean_two_probe(o), 2),
                   report::Table::num(
                       100.0 * (coverage.mean_two_probe(o) - base), 2) +
                       "pp"});
  }
  std::printf("\n%s", table.to_string().c_str());

  report::Comparison comparison("source-IP sweep");
  comparison.add("64-IP vs 1-IP SSH coverage", "US64 > US1 (paper)",
                 report::Table::num(
                     100.0 * (coverage.mean_two_probe(3) - base), 2) +
                     "pp gain",
                 "spreading load evades rate IDSes and Alibaba detection");
  comparison.add("coverage vs block size", "monotone non-decreasing",
                 std::string(coverage.mean_two_probe(3) >=
                                     coverage.mean_two_probe(0)
                                 ? "monotone"
                                 : "NOT monotone"),
                 "each doubling lowers the per-IP rate signature");
  return comparison;
}

// Ablation: repeated trials from one origin vs one trial from multiple
// origins — the paper's Section 7 alternatives for researchers with a
// single vantage point. Repeated trials recover transient loss but not
// origin-specific blocking; multiple origins recover both.
SectionResult abl_trials_vs_origins(Runs& runs) {
  auto& experiment = runs.http();
  const auto matrix =
      core::AccessMatrix::build(experiment, proto::Protocol::kHttp);

  // Union over trials for each single origin.
  std::printf("\nunion coverage of k repeated trials from one origin "
              "(evaluated against each trial's ground truth):\n");
  report::Table table({"origin", "1 trial", "2 trials", "3 trials"});
  double best_three_trial = 0;
  for (std::size_t o = 0; o < matrix.origins(); ++o) {
    if (matrix.origin_codes()[o] == "US64") continue;
    std::vector<std::string> row = {matrix.origin_codes()[o]};
    for (int k = 1; k <= 3; ++k) {
      // A host counts as covered when the origin saw it in any of the
      // first k trials AND it was present in the evaluation trial.
      std::uint64_t covered = 0, present = 0;
      for (core::HostIdx h = 0; h < matrix.host_count(); ++h) {
        for (int eval = 0; eval < matrix.trials(); ++eval) {
          if (!matrix.present(eval, h)) continue;
          ++present;
          for (int t = 0; t < k; ++t) {
            if (matrix.accessible(t, o, h)) {
              ++covered;
              break;
            }
          }
        }
      }
      const double coverage =
          present == 0 ? 0.0
                       : static_cast<double>(covered) /
                             static_cast<double>(present);
      row.push_back(pct(coverage, 2));
      if (k == 3) best_three_trial = std::max(best_three_trial, coverage);
    }
    table.add_row(row);
  }
  std::printf("%s", table.to_string().c_str());

  const std::vector<std::size_t> exclude = {
      static_cast<std::size_t>(experiment.origin_id("US64"))};
  const auto pairs = core::multi_origin_coverage(matrix, 2, exclude);
  const auto triads = core::multi_origin_coverage(matrix, 3, exclude);
  std::printf("\nsingle-trial multi-origin medians: 2 origins %s, "
              "3 origins %s\n",
              pct(pairs.summary_two_probe().median, 2).c_str(),
              pct(triads.summary_two_probe().median, 2).c_str());

  report::Comparison comparison("trials-vs-origins ablation");
  comparison.add("3 repeated trials (best single origin)",
                 "recovers transients only", pct(best_three_trial, 2),
                 "long-term blocks persist across trials");
  comparison.add("3 diverse origins, one trial", "~99%",
                 pct(triads.summary_two_probe().median, 2),
                 "diversity also defeats origin-specific blocking");
  return comparison;
}

struct Section {
  const char* name;  // command-line name
  const char* id;    // paper artifact, printed in the header
  const char* title;
  SectionResult (*run)(Runs&);
};

// Paper order: DESIGN.md §4, then the ablations of §4b.
constexpr Section kSections[] = {
    {"fig01_coverage", "Figure 1", "host coverage by scan origin (2 probes)",
     fig01_coverage},
    {"fig02_missing_breakdown", "Figure 2", "breakdown of missing hosts",
     fig02_missing_breakdown},
    {"fig03_longterm_overlap", "Figure 3",
     "long-term inaccessibility among origins", fig03_longterm_overlap},
    {"tab01_exclusivity", "Table 1",
     "exclusively (in)accessible hosts by origin", tab01_exclusivity},
    {"fig04_as_distribution", "Figure 4",
     "long-term inaccessible HTTP hosts by AS (CDF)", fig04_as_distribution},
    {"fig05_inaccessible_ases", "Figure 5", "fully / mostly inaccessible ASes",
     fig05_inaccessible_ases},
    {"tab02_countries_http", "Table 2",
     "countries with most LT-inaccessible HTTP", tab02_countries_http},
    {"fig06_exclusive_country", "Figure 6",
     "exclusively accessible hosts by country", fig06_exclusive_country},
    {"fig07_exclusive_as", "Figure 7", "AS distribution of exclusive hosts",
     fig07_exclusive_as},
    {"fig08_transient_overlap", "Figure 8",
     "transient inaccessibility among origins", fig08_transient_overlap},
    {"fig09_transient_cdf", "Figure 9",
     "CDF of transient loss-rate differences", fig09_transient_cdf},
    {"tab03_transient_ases", "Table 3",
     "ASes with largest transient-loss range", tab03_transient_ases},
    {"fig10_loss_correlation", "Figure 10",
     "transient host loss vs packet loss", fig10_loss_correlation},
    {"fig11_best_worst", "Figure 11", "consistent best/worst origins per AS",
     fig11_best_worst},
    {"fig12_alibaba_blocking", "Figure 12", "Alibaba temporal SSH blocking",
     fig12_alibaba_blocking},
    {"fig13_ssh_retries", "Figure 13", "SSH handshake retries vs success",
     fig13_ssh_retries},
    {"fig14_ssh_breakdown", "Figure 14", "missing SSH host causes",
     fig14_ssh_breakdown},
    {"fig15_multi_origin", "Figure 15", "multi-origin HTTP coverage",
     fig15_multi_origin},
    {"tab04_ground_truth", "Table 4a", "per-trial ground-truth coverage",
     tab04_ground_truth},
    {"tab04b_colocated", "Table 4b", "colocated follow-up HTTP coverage",
     tab04b_colocated},
    {"tab05_countries_https_ssh", "Table 5",
     "countries with most LT-inaccessible HTTPS/SSH hosts",
     tab05_countries_https_ssh},
    {"fig17_multi_origin_all", "Figure 17",
     "multi-origin coverage, HTTPS and SSH", fig17_multi_origin_all},
    {"fig18_colocated_triads", "Figure 18", "colocated triad coverage",
     fig18_colocated_triads},
    {"sec3_mcnemar", "Section 3", "McNemar significance across origin pairs",
     sec3_mcnemar},
    {"sec52_packet_loss", "Section 5.2", "packet-drop estimates",
     sec52_packet_loss},
    {"sec2_carinet", "Section 2", "the Carinet one-trial origin",
     sec2_carinet},
    {"abl_correlated_loss", "Ablation", "correlated vs uniform random loss",
     abl_correlated_loss},
    {"abl_probe_delay", "Ablation", "delay between probes to the same target",
     abl_probe_delay},
    {"abl_source_ips", "Ablation", "source-IP block size sweep",
     abl_source_ips},
    {"abl_trials_vs_origins", "Ablation",
     "repeated trials (one origin) vs multiple origins",
     abl_trials_vs_origins},
};

void print_header(const Section& section, const Runs& runs) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", section.id, section.title);
  std::printf("universe: %u addresses, seed %llu\n", runs.universe_size(),
              static_cast<unsigned long long>(runs.seed()));
  std::printf("==============================================================\n");
}

// Reads an environment variable as a whole decimal number: unset yields
// `fallback`, and a value that does not parse in full yields nullopt.
template <typename T>
std::optional<T> env_number(const char* name, T fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view text(env);
  T value{};
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc{} || end != text.data() + text.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace
}  // namespace originscan::bench

int main(int argc, char** argv) {
  using namespace originscan::bench;

  const auto scale = env_number<int>("OSN_BENCH_SCALE", 18);
  if (!scale || *scale < 12 || *scale > 24) {
    std::fprintf(stderr,
                 "reproduce: OSN_BENCH_SCALE must be an integer in 12..24, "
                 "got '%s'\n",
                 std::getenv("OSN_BENCH_SCALE"));
    return 2;
  }
  const auto seed = env_number<std::uint64_t>("OSN_BENCH_SEED", 0x05CA9);
  if (!seed) {
    std::fprintf(stderr,
                 "reproduce: OSN_BENCH_SEED must be an unsigned 64-bit "
                 "decimal integer, got '%s'\n",
                 std::getenv("OSN_BENCH_SEED"));
    return 2;
  }

  constexpr std::size_t kCount = std::size(kSections);
  std::vector<bool> selected(kCount, argc == 1);
  for (int i = 1; i < argc; ++i) {
    const auto* found = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&](const Section& section) {
          return std::string_view(section.name) == argv[i];
        });
    if (found == std::end(kSections)) {
      std::fprintf(stderr,
                   "reproduce: unknown section '%s'; valid sections:\n",
                   argv[i]);
      for (const Section& section : kSections) {
        std::fprintf(stderr, "  %s\n", section.name);
      }
      return 2;
    }
    selected[static_cast<std::size_t>(found - kSections)] = true;
  }

  Runs runs(1u << *scale, *seed);
  int status = 0;
  for (std::size_t i = 0; i < kCount; ++i) {
    if (!selected[i]) continue;
    print_header(kSections[i], runs);
    const SectionResult comparison = kSections[i].run(runs);
    if (comparison) {
      std::printf("\n%s", comparison->to_string().c_str());
    } else {
      status = 1;
    }
  }
  return status;
}
