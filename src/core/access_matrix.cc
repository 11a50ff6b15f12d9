#include "core/access_matrix.h"

#include <algorithm>
#include <cassert>

namespace originscan::core {

AccessMatrix AccessMatrix::build(const Experiment& experiment,
                                 proto::Protocol protocol) {
  assert(experiment.has_run());
  AccessMatrix m;
  m.protocol_ = protocol;
  m.trials_ = experiment.config().trials;
  for (const auto& origin : experiment.world().origins) {
    m.origin_codes_.push_back(origin.code);
  }
  const std::size_t origin_count = m.origin_codes_.size();

  m.cell_present_.resize(static_cast<std::size_t>(m.trials_) * origin_count);
  for (int t = 0; t < m.trials_; ++t) {
    for (std::size_t o = 0; o < origin_count; ++o) {
      m.cell_present_[m.cell(t, o)] =
          experiment.has_cell(t, protocol, static_cast<sim::OriginId>(o));
    }
  }

  // Pass 1: the ground-truth host set — every address that completed an
  // L7 handshake with at least one origin in at least one trial. Lost
  // cells contribute nothing (their result slots are empty), which is
  // exactly the partial-grid semantics: ground truth shrinks to what the
  // surviving scans observed.
  for (int t = 0; t < m.trials_; ++t) {
    for (std::size_t o = 0; o < origin_count; ++o) {
      if (!m.cell_present_[m.cell(t, o)]) continue;
      const auto& result =
          experiment.result(t, protocol, static_cast<sim::OriginId>(o));
      for (const auto& record : result.records) {
        if (record.l7_completed()) m.hosts_.push_back(record.addr);
      }
    }
  }
  std::sort(m.hosts_.begin(), m.hosts_.end());
  m.hosts_.erase(std::unique(m.hosts_.begin(), m.hosts_.end()),
                 m.hosts_.end());

  const std::size_t n = m.hosts_.size();
  m.host_as_.resize(n, sim::kNoAs);
  m.host_country_.resize(n);
  const sim::World& world = experiment.world();
  for (std::size_t i = 0; i < n; ++i) {
    if (auto as = world.as_of(m.hosts_[i])) m.host_as_[i] = *as;
    m.host_country_[i] = world.country_of(m.hosts_[i]);
  }

  m.present_.assign(m.trials_, std::vector<bool>(n, false));
  m.probe_hour_.assign(m.trials_, std::vector<std::uint8_t>(n, 0));
  const std::size_t cells = static_cast<std::size_t>(m.trials_) * origin_count;
  m.accessible_.assign(cells, std::vector<bool>(n, false));
  m.synack_mask_.assign(cells, std::vector<std::uint8_t>(n, 0));
  m.outcome_.assign(cells, std::vector<std::uint8_t>(n, 0));
  m.explicit_close_.assign(cells, std::vector<bool>(n, false));

  // Pass 2: fill the per-cell detail by walking each scan's (sorted)
  // records against the (sorted) host list.
  for (int t = 0; t < m.trials_; ++t) {
    for (std::size_t o = 0; o < origin_count; ++o) {
      if (!m.cell_present_[m.cell(t, o)]) continue;
      const auto& result =
          experiment.result(t, protocol, static_cast<sim::OriginId>(o));
      const std::size_t cell_index = m.cell(t, o);
      std::size_t host_cursor = 0;
      for (const auto& record : result.records) {
        while (host_cursor < n && m.hosts_[host_cursor] < record.addr) {
          ++host_cursor;
        }
        if (host_cursor >= n || m.hosts_[host_cursor] != record.addr) {
          continue;  // a responder that never completed L7 anywhere
        }
        const auto h = static_cast<HostIdx>(host_cursor);
        m.synack_mask_[cell_index][h] = record.synack_mask;
        m.outcome_[cell_index][h] = static_cast<std::uint8_t>(record.l7);
        m.explicit_close_[cell_index][h] = record.explicit_close;
        m.probe_hour_[t][h] = static_cast<std::uint8_t>(
            std::min<std::uint32_t>(record.probe_hour(), 255));
        if (record.l7_completed()) {
          m.accessible_[cell_index][h] = true;
          m.present_[t][h] = true;
        }
      }
    }
  }
  return m;
}

std::size_t AccessMatrix::present_count(int trial) const {
  std::size_t count = 0;
  for (bool p : present_[trial]) count += p ? 1 : 0;
  return count;
}

std::vector<std::pair<int, std::string>> AccessMatrix::lost_cells() const {
  std::vector<std::pair<int, std::string>> lost;
  if (cell_present_.empty()) return lost;
  for (int t = 0; t < trials_; ++t) {
    for (std::size_t o = 0; o < origin_codes_.size(); ++o) {
      if (!cell_present_[cell(t, o)]) {
        lost.emplace_back(t, origin_codes_[o]);
      }
    }
  }
  return lost;
}

}  // namespace originscan::core
