#include "sim/internet.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "netbase/rng.h"

#if defined(__x86_64__) && defined(__GNUC__)
#define OSN_FWD_DRAW_AVX512 1
#include <immintrin.h>
#endif

namespace originscan::sim {
namespace {

// Probability that a TCP connect (SYN + kernel retransmits within the
// ZGrab timeout) fails outright, given the instantaneous path loss p.
// Two effective attempts fit in the timeout window.
double connect_failure_probability(double loss) { return loss * loss; }

double hash01(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

#ifdef OSN_FWD_DRAW_AVX512

// Vector replica of net::splitmix64's output mix (the caller advances
// the state by the golden constant itself). Integer ops are exact, so
// the lanes are bit-identical to the scalar kernel.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m256i
splitmix_out4(__m256i z) {
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 30));
  z = _mm256_mullo_epi64(z, _mm256_set1_epi64x(0xBF58476D1CE4E5B9LL));
  z = _mm256_xor_si256(z, _mm256_srli_epi64(z, 27));
  z = _mm256_mullo_epi64(z, _mm256_set1_epi64x(0x94D049BB133111EBLL));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 31));
}

// Four-lane mix_u64(a, b, c, d) with vector b; c and d enter pre-folded
// with their stage constants (cc = c + 0xC2B2…, dd = d + 0x1656…) so
// the per-call work is adds, xors, and the splitmix output mix.
__attribute__((target("avx512f,avx512dq,avx512vl"))) inline __m256i
mix4(__m256i a, __m256i b, __m256i cc, __m256i dd) {
  const __m256i golden = _mm256_set1_epi64x(
      static_cast<long long>(0x9E3779B97F4A7C15ULL));
  __m256i state = _mm256_add_epi64(a, golden);
  __m256i out = splitmix_out4(state);
  state = _mm256_add_epi64(
      _mm256_xor_si256(state, _mm256_add_epi64(b, golden)), golden);
  out = _mm256_xor_si256(out, splitmix_out4(state));
  state = _mm256_add_epi64(_mm256_xor_si256(state, cc), golden);
  out = _mm256_xor_si256(out, splitmix_out4(state));
  state = _mm256_add_epi64(_mm256_xor_si256(state, dd), golden);
  return _mm256_xor_si256(out, splitmix_out4(state));
}

__attribute__((target("avx512f,avx512dq,avx512vl"))) void fwd_draws_avx512(
    const net::Ipv4Addr* addr, const AsId* as,
    const std::uint64_t* seed_by_as, AsId as_count, std::uint64_t origin,
    int n, int probes, double* fwd_draw) {
  // Stage constants of the two chained mixes, pre-folded: the key mix is
  // mix(addr, p, origin, 0xF0D0), the draw mix is mix(seed, key, 0xD60B).
  const __m256i key_cc = _mm256_set1_epi64x(
      static_cast<long long>(origin + 0xC2B2AE3D27D4EB4FULL));
  const __m256i key_dd = _mm256_set1_epi64x(
      static_cast<long long>(0xF0D0ULL + 0x165667B19E3779F9ULL));
  const __m256i draw_cc = _mm256_set1_epi64x(
      static_cast<long long>(0xD60BULL + 0xC2B2AE3D27D4EB4FULL));
  const __m256i draw_dd = _mm256_set1_epi64x(
      static_cast<long long>(0x165667B19E3779F9ULL));
  const __m256d scale = _mm256_set1_pd(0x1.0p-53);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t addr4[4];
    alignas(32) std::uint64_t seed4[4];
    for (int lane = 0; lane < 4; ++lane) {
      addr4[lane] = addr[i + lane].value();
      const AsId lane_as = as[i + lane];
      seed4[lane] = lane_as < as_count ? seed_by_as[lane_as] : 0;
    }
    const __m256i addr_v = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(addr4)));
    const __m256i seed_v =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(seed4));
    for (int p = 0; p < probes; ++p) {
      const __m256i key =
          mix4(addr_v, _mm256_set1_epi64x(p), key_cc, key_dd);
      const __m256i hash = mix4(seed_v, key, draw_cc, draw_dd);
      // hash01, lane-exact: (double)(h >> 11) is exact below 2^53 and
      // the 2^-53 scale is a power of two, so vector FP == scalar FP.
      const __m256d draw =
          _mm256_mul_pd(_mm256_cvtepu64_pd(_mm256_srli_epi64(hash, 11)),
                        scale);
      _mm256_storeu_pd(fwd_draw + p * ProbeBatch::kCapacity + i, draw);
    }
  }
  for (; i < n; ++i) {
    const AsId lane_as = as[i];
    const std::uint64_t seed = lane_as < as_count ? seed_by_as[lane_as] : 0;
    for (int p = 0; p < probes; ++p) {
      const std::uint64_t key =
          net::mix_u64(addr[i].value(), static_cast<std::uint64_t>(p),
                       origin, 0xF0D0u);
      fwd_draw[p * ProbeBatch::kCapacity + i] =
          hash01(net::mix_u64(seed, key, 0xD60Bu));
    }
  }
}

#endif  // OSN_FWD_DRAW_AVX512

}  // namespace

namespace detail {

bool fwd_draws_vectorized(const net::Ipv4Addr* addr, const AsId* as,
                          const std::uint64_t* seed_by_as, AsId as_count,
                          std::uint64_t origin, int n, int probes,
                          double* fwd_draw) {
#ifdef OSN_FWD_DRAW_AVX512
  static const bool supported = __builtin_cpu_supports("avx512f") &&
                                __builtin_cpu_supports("avx512dq") &&
                                __builtin_cpu_supports("avx512vl");
  if (!supported) return false;
  fwd_draws_avx512(addr, as, seed_by_as, as_count, origin, n, probes,
                   fwd_draw);
  return true;
#else
  (void)addr;
  (void)as;
  (void)seed_by_as;
  (void)as_count;
  (void)origin;
  (void)n;
  (void)probes;
  (void)fwd_draw;
  return false;
#endif
}

}  // namespace detail

std::span<const std::uint8_t> Connection::read() {
  const auto unread = std::span(pending_).subspan(read_);
  read_ = pending_.size();
  return unread;
}

void Connection::send(std::span<const std::uint8_t> data) {
  if (peer_closed_ || peer_reset_ || hung_ || !serving_) return;
  if (read_ == pending_.size()) {
    // The client drained everything: the reply starts a fresh buffer.
    pending_.clear();
    read_ = 0;
  }
  if (server_.on_bytes(data, pending_)) peer_closed_ = true;
}

void Connection::reset() {
  serving_ = false;
  pending_.clear();
  read_ = 0;
  peer_closed_ = false;
  peer_reset_ = false;
  hung_ = false;
}

Internet::Internet(const World* world, const TrialContext& context,
                   PersistentState* persistent)
    : world_(world),
      context_(context),
      policy_engine_(&world->policies, &world->origins, persistent,
                     context.trial,
                     net::mix_u64(context.experiment_seed, context.trial,
                                  0x7121A1ULL),
                     context.scan_duration) {
  assert(world_->topology.frozen());
  assert(world_->host_params.size() == world_->topology.as_count());
}

const PathLossModel& Internet::loss_model(OriginId origin, AsId as,
                                          proto::Protocol protocol) {
  const std::uint64_t key =
      (std::uint64_t{origin} << 40) | (std::uint64_t{as} << 8) |
      proto::index_of(protocol);
  {
    cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(cache_mutex_);
    auto it = loss_cache_.find(key);
    if (it != loss_cache_.end()) return *it->second;
  }
  // Build outside the lock: the model is a pure function of the key and
  // the world seed, so a racing builder produces an identical model and
  // try_emplace simply discards the loser.
  PathProfile profile = world_->paths.profile(origin, as);
  if (world_->uniform_random_loss) {
    // Same long-run loss, no burst structure.
    profile.good_loss = profile.stationary_loss();
    profile.bad_fraction = 0;
  }
  // Colocated origins (same first-hop data center) share Good/Bad
  // timelines: seed the renewal process by group, not by origin.
  const int group = world_->origins[origin].colocation_group;
  const std::uint64_t timeline_actor =
      group >= 0 ? 0x9000000ULL + static_cast<std::uint64_t>(group)
                 : std::uint64_t{origin};
  const std::uint64_t timeline_key =
      (timeline_actor << 40) | (std::uint64_t{as} << 8) |
      proto::index_of(protocol);
  const std::uint64_t stream_seed =
      net::mix_u64(world_->seed, timeline_key, context_.trial, 0x105Eu);
  auto model = std::make_unique<PathLossModel>(profile, stream_seed,
                                               context_.scan_duration);
  cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(cache_mutex_);
  auto [it, inserted] = loss_cache_.try_emplace(key, std::move(model));
  return *it->second;
}

const OutageSchedule& Internet::outage_schedule(OriginId origin,
                                                proto::Protocol protocol) {
  const std::uint64_t key =
      (std::uint64_t{origin} << 8) | proto::index_of(protocol);
  {
    cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
    std::shared_lock lock(cache_mutex_);
    auto it = outage_cache_.find(key);
    if (it != outage_cache_.end()) return *it->second;
  }
  const std::uint64_t stream_seed =
      net::mix_u64(world_->seed, key, context_.trial, 0x07A6Eu);
  auto schedule = std::make_unique<OutageSchedule>(
      world_->outages, origin, world_->topology.as_count(), stream_seed,
      context_.scan_duration);
  cache_lock_acquisitions_.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock lock(cache_mutex_);
  auto [it, inserted] = outage_cache_.try_emplace(key, std::move(schedule));
  return *it->second;
}

void Internet::prewarm(OriginId origin, proto::Protocol protocol) {
  outage_schedule(origin, protocol);
  const auto as_count = static_cast<AsId>(world_->topology.as_count());
  for (AsId as = 0; as < as_count; ++as) {
    loss_model(origin, as, protocol);
  }
}

net::VirtualTime Internet::rtt(OriginId origin, AsId as) const {
  const PathProfile profile = world_->paths.profile(origin, as);
  return net::VirtualTime::from_micros(
      static_cast<std::int64_t>(profile.latency_ms * 1000.0));
}

ResolvedTarget Internet::resolve_target(net::Ipv4Addr dst,
                                        OriginId origin) const {
  ResolvedTarget target;
  // World::host_at's step, on the one facts fetch.
  const BlockFacts facts = world_->block_facts(dst.value() >> 8);
  if (facts.as == kNoAs) return target;  // unrouted block
  target.as = facts.as;
  const std::optional<Host> host = generate_host(
      world_->seed, dst.value(), facts.as, world_->host_params[facts.as]);
  if (!host || !listening(*host, origin)) return target;
  target.host = *host;
  target.has_host = true;
  return target;
}

ProbeContext Internet::probe_context(OriginId origin,
                                     proto::Protocol protocol) {
  prewarm(origin, protocol);
  ProbeContext context;
  context.internet_ = this;
  context.origin_ = origin;
  context.protocol_ = protocol;
  context.outage_ = &outage_schedule(origin, protocol);
  const auto as_count = static_cast<AsId>(world_->topology.as_count());
  context.loss_by_as_.resize(as_count);
  context.policies_by_as_.resize(as_count);
  context.loss_seed_by_as_.resize(as_count);
  context.loss_cursor_.assign(as_count, {});  // empty windows: refill on use
  context.outage_possible_by_as_.resize(as_count);
  for (AsId as = 0; as < as_count; ++as) {
    context.loss_by_as_[as] = &loss_model(origin, as, protocol);
    context.policies_by_as_[as] = world_->policies.find(as);
    context.loss_seed_by_as_[as] = context.loss_by_as_[as]->stream_seed();
    context.outage_possible_by_as_[as] =
        context.outage_->ever_in_outage(as) ? 1 : 0;
  }
  return context;
}

void ProbeContext::resolve_batch(ProbeBatch& batch) const {
  const ProceduralWorld& procedural = internet_->world_->procedural;
  std::uint64_t derivations = 0;
  for (int i = 0; i < batch.size; ++i) {
    const net::Ipv4Addr dst = batch.addr[i];
    const ResolvedTarget target = internet_->resolve_target(dst, origin_);
    batch.as[i] = target.as.value_or(kNoAs);
    batch.has_host[i] = target.has_host ? 1 : 0;
    if (target.has_host) batch.host[i] = target.host;
    if (target.as && procedural.covers(dst)) ++derivations;
  }
  if (metrics_ != nullptr) {
    if (derivations != 0) {
      metrics_->add(obsv::Counter::kUniverseProceduralDerivations, derivations);
    }
    // Batch bookkeeping stays zero outside procedural worlds, like the
    // derivation count: universe.batch.batches depends on how the lanes
    // cut their batches (docs/METRICS.md), and materialized worlds keep
    // the full snapshot byte-identical across --jobs.
    if (procedural.enabled()) {
      metrics_->add(obsv::Counter::kUniverseBatchBatches);
      metrics_->add(obsv::Counter::kUniverseBatchTargets,
                    static_cast<std::uint64_t>(batch.size));
    }
  }
}

void Internet::handle_probe_batch(ProbeContext& context, ProbeBatch& batch) {
  const int n = batch.size;
  const int probes = batch.probes;
  assert(probes <= ProbeBatch::kMaxProbes);
  const auto as_count = static_cast<AsId>(context.loss_by_as_.size());

  // Pass 1 (pure): the forward-loss uniform for every probe of a sent,
  // host-bearing target, over the batch's compacted host list in target
  // order; pass 2 settles a probe to an empty address as no_host before
  // any draw could matter. Four lanes at a time, all probes of a lane
  // group together so the addr/seed gather is paid once. The two chained
  // mixes are the path loss draw: key = mix(dst, probe, origin, 0xF0D0),
  // draw = hash01(mix(stream_seed, key, 0xD60B)). A garbage AS mixes a
  // zero seed; its draw is never read.
  net::Ipv4Addr hosted_addr[ProbeBatch::kCapacity];
  AsId hosted_as[ProbeBatch::kCapacity] = {};
  int m = 0;
  for (int i = 0; i < n; ++i) {
    hosted_addr[m] = batch.addr[i];
    hosted_as[m] = batch.as[i];
    m += (batch.sent_mask[i] != 0) & (batch.has_host[i] != 0);
  }
  if (!detail::fwd_draws_vectorized(hosted_addr, hosted_as,
                                    context.loss_seed_by_as_.data(), as_count,
                                    context.origin_, m, probes,
                                    batch.fwd_draw)) {
    int j = 0;
    for (; j + 4 <= m; j += 4) {
      std::uint64_t addr4[4];
      std::uint64_t key4[4];
      std::uint64_t seed4[4];
      std::uint64_t hash4[4];
      for (int lane = 0; lane < 4; ++lane) {
        addr4[lane] = hosted_addr[j + lane].value();
        const AsId as = hosted_as[j + lane];
        seed4[lane] = as < as_count ? context.loss_seed_by_as_[as] : 0;
      }
      for (int p = 0; p < probes; ++p) {
        net::mix_u64_x4(addr4, static_cast<std::uint64_t>(p), context.origin_,
                        0xF0D0u, key4);
        net::mix_u64_x4(seed4, key4, 0xD60Bu, 0, hash4);
        double* draw = batch.fwd_draw + p * ProbeBatch::kCapacity;
        for (int lane = 0; lane < 4; ++lane) {
          draw[j + lane] = hash01(hash4[lane]);
        }
      }
    }
    for (; j < m; ++j) {
      const AsId as = hosted_as[j];
      const std::uint64_t seed =
          as < as_count ? context.loss_seed_by_as_[as] : 0;
      for (int p = 0; p < probes; ++p) {
        const std::uint64_t key =
            net::mix_u64(hosted_addr[j].value(), static_cast<std::uint64_t>(p),
                         context.origin_, 0xF0D0u);
        batch.fwd_draw[p * ProbeBatch::kCapacity + j] =
            hash01(net::mix_u64(seed, key, 0xD60Bu));
      }
    }
  }

  // Pass 2: the decision ladder per sent probe (fault, liveness, outage,
  // forward loss), accumulating drop counts batch-locally. Probes that
  // clear it are marked live; the caller steps each one through
  // ProbeContext::respond for policy admission and the reply.
  std::uint64_t n_unrouted = 0;
  std::uint64_t n_fault_outage = 0;
  std::uint64_t n_fault_drop = 0;
  std::uint64_t n_outage = 0;
  std::uint64_t n_loss = 0;
  std::uint64_t n_nohost = 0;
  std::uint64_t n_routed = 0;
  const auto sent_bits = static_cast<unsigned>((1u << probes) - 1);
  int j = 0;  // the next entry of the compacted host list
  for (int i = 0; i < n; ++i) {
    batch.live_mask[i] = 0;
    if (batch.sent_mask[i] == 0) continue;
    const unsigned sent = batch.sent_mask[i] & sent_bits;
    const bool host = batch.has_host[i] != 0;
    const int draw_at = host ? j++ : -1;
    const AsId as = batch.as[i];
    if (as >= as_count) {  // kNoAs or garbage: unrouted space
      n_unrouted += static_cast<unsigned>(__builtin_popcount(sent));
      continue;
    }
    const auto sent_count = static_cast<unsigned>(__builtin_popcount(sent));
    n_routed += sent_count;
    if (!host && faults_ == nullptr) {  // nothing listens: no draw matters
      n_nohost += sent_count;
      continue;
    }
    std::uint8_t live = 0;
    for (int p = 0; p < probes; ++p) {
      if (!((sent >> p) & 1)) continue;
      const auto t = net::VirtualTime::from_micros(
          batch.time_us[p * ProbeBatch::kCapacity + i]);
      if (faults_ != nullptr) {
        const bool fault_outage =
            faults_->outage_at(t, static_cast<int>(context.origin_));
        if (fault_outage || faults_->drop_at_time(t, batch.addr[i], p)) {
          if (fault_outage) {
            ++n_fault_outage;
          } else {
            ++n_fault_drop;
          }
          continue;
        }
      }
      if (!host) {
        ++n_nohost;
        continue;
      }
      if (context.outage_possible_by_as_[as] &&
          context.outage_->in_outage(as, t)) {
        ++n_outage;
        continue;
      }
      PathLossModel::LossWindow& window = context.loss_cursor_[as];
      if (!window.contains(t)) window = context.loss_by_as_[as]->loss_window(t);
      if (window.p > 0.0 &&
          batch.fwd_draw[p * ProbeBatch::kCapacity + draw_at] < window.p) {
        ++n_loss;
        continue;
      }
      live |= static_cast<std::uint8_t>(1u << p);
    }
    batch.live_mask[i] = live;
  }

  // One flush per non-zero reason. Live probes count as routed here and
  // land in their final bucket (drops.ids, drops.loss_model, or a
  // response) in respond, so every routed probe meets the fate invariant
  // exactly once.
  obsv::MetricBlock* metrics = context.metrics_;
  if (metrics != nullptr) {
    if (n_unrouted != 0) {
      metrics->add(obsv::Counter::kSimDropsUnrouted, n_unrouted);
    }
    if (n_routed != 0) metrics->add(obsv::Counter::kSimProbesRouted, n_routed);
    const std::uint64_t n_fault = n_fault_outage + n_fault_drop;
    if (n_fault != 0) metrics->add(obsv::Counter::kSimDropsFault, n_fault);
    if (n_fault_outage != 0) {
      metrics->add(obsv::Counter::kFaultOutage, n_fault_outage);
    }
    if (n_fault_drop != 0) {
      metrics->add(obsv::Counter::kFaultProbeDrop, n_fault_drop);
    }
    if (n_outage != 0) metrics->add(obsv::Counter::kSimDropsOutage, n_outage);
    if (n_loss != 0) metrics->add(obsv::Counter::kSimDropsLossModel, n_loss);
    if (n_nohost != 0) metrics->add(obsv::Counter::kSimDropsNoHost, n_nohost);
  }
}

ProbeContext::Reply ProbeContext::respond(const ProbeBatch& batch, int i,
                                         int p, net::Ipv4Addr src_ip) {
  const net::Ipv4Addr dst = batch.addr[i];
  const AsId as = batch.as[i];
  const auto t = net::VirtualTime::from_micros(
      batch.time_us[p * ProbeBatch::kCapacity + i]);
  // Only probes that reached a listening host feed the policy layer (IDS
  // counters); every decision before this one is side-effect free.
  const AsPolicies* policies = policies_by_as_[as];
  if (policies != nullptr &&
      internet_->policy_engine_.on_probe(policies, origin_, src_ip, as, dst,
                                         protocol_, t) ==
          PolicyEngine::L4Decision::kDrop) {
    if (metrics_ != nullptr) metrics_->add(obsv::Counter::kSimDropsIds);
    return Reply::kNone;
  }
  // Reverse direction: the same draw as the forward one, keyed 0x0BAC,
  // against the lane's loss window for the AS.
  PathLossModel::LossWindow& window = loss_cursor_[as];
  if (!window.contains(t)) window = loss_by_as_[as]->loss_window(t);
  if (window.p > 0.0 &&
      hash01(net::mix_u64(loss_seed_by_as_[as],
                          net::mix_u64(dst.value(), p, origin_, 0x0BACu),
                          0xD60Bu)) < window.p) {
    if (metrics_ != nullptr) metrics_->add(obsv::Counter::kSimDropsLossModel);
    return Reply::kNone;
  }
  // A live host with the port closed answers RST; a middlebox accepts
  // every port.
  const Host& host = batch.host[i];
  const bool answers = host.middlebox || host.runs(protocol_);
  if (metrics_ != nullptr) {
    metrics_->add(answers ? obsv::Counter::kSimResponsesSynack
                          : obsv::Counter::kSimResponsesRst);
  }
  return answers ? Reply::kSynAck : Reply::kRst;
}

bool Internet::listening(const Host& host, OriginId origin) const {
  if (!live_in_trial(host, context_.trial, context_.experiment_seed)) {
    return false;  // nothing listening this trial: silence
  }
  if (!host.flaky) return true;
  // Marginal host: one coin per (host, origin, trial), so the whole scan
  // — both probes and the follow-up connect — sees the same dark host.
  const std::uint64_t h = net::mix_u64(host.seed, origin,
                                       static_cast<std::uint64_t>(
                                           context_.trial),
                                       0xF1A6ULL);
  return hash01(h) >= world_->flaky_miss_probability;
}

bool Internet::maxstartups_refuses(const Host& host, OriginId origin,
                                   int attempt) const {
  const MaxStartupsConfig& cfg = world_->maxstartups;
  const double decay = std::pow(cfg.retry_load_decay, attempt);

  // Background unauthenticated connections (other scanners, brute-force
  // bots): Poisson, decaying across retries only mildly — background load
  // is not synchronized with us, so it decays with the same factor used
  // for origins to keep the model simple but monotone in `attempt`.
  net::Rng rng(net::mix_u64(host.seed, context_.experiment_seed,
                            static_cast<std::uint64_t>(context_.trial) << 8 |
                                origin,
                            0xA55ULL + static_cast<std::uint64_t>(attempt)));
  const int background =
      static_cast<int>(rng.poisson(cfg.background_load_mean * decay));

  // Synchronized origins: each other origin's handshake is still open
  // with some probability (all scanners hit this host at ~the same time).
  int concurrent = 0;
  const double p_open = cfg.concurrent_origin_probability * decay;
  for (int i = 0; i + 1 < context_.simultaneous_origins; ++i) {
    if (rng.bernoulli(p_open)) ++concurrent;
  }

  const double refuse =
      host.maxstartups.refusal_probability(1 + background + concurrent);
  return rng.bernoulli(refuse);
}

bool Internet::connect(Connection& connection, OriginId origin,
                       net::Ipv4Addr src_ip, net::Ipv4Addr dst,
                       proto::Protocol protocol, net::VirtualTime t,
                       int attempt) {
  connection.reset();
  const ResolvedTarget target = resolve_target(dst, origin);
  if (!target.as) return false;
  const AsId as = *target.as;

  if (faults_ != nullptr && faults_->outage_at(t, static_cast<int>(origin))) {
    return false;
  }

  if (outage_schedule(origin, protocol).in_outage(as, t)) return false;

  const PathLossModel& loss = loss_model(origin, as, protocol);
  const double p_fail = connect_failure_probability(loss.loss_probability(t));
  if (p_fail > 0.0 &&
      hash01(net::mix_u64(world_->seed ^ origin, dst.value(), attempt, 0xC0DEu)) <
          p_fail) {
    return false;
  }

  const Host* host = target.host_or_null();
  if (host == nullptr) return false;

  // L4 policies also gate the connect's SYN.
  if (policy_engine_.on_probe(origin, src_ip, as, dst, protocol, t) ==
      PolicyEngine::L4Decision::kDrop) {
    return false;
  }

  switch (policy_engine_.on_connection(origin, src_ip, as, dst, protocol,
                                       t)) {
    case PolicyEngine::L7Decision::kRstAfterAccept:
      connection.peer_reset_ = true;
      return true;
    case PolicyEngine::L7Decision::kDrop:
      connection.hung_ = true;
      return true;
    case PolicyEngine::L7Decision::kServeBlockPage:
      // The block page replaces the host's own server, greeting and all.
      if (host->runs(protocol)) {
        connection.server_.start(*host, protocol, "Blocked Site");
        connection.serving_ = true;
      } else {
        connection.hung_ = true;
      }
      return true;
    case PolicyEngine::L7Decision::kAllow:
      break;
  }

  if (host->middlebox && !host->runs(protocol)) {
    connection.hung_ = true;  // DDoS frontend: accepts, says nothing
    return true;
  }

  if (protocol == proto::Protocol::kSsh && host->maxstartups_enabled &&
      maxstartups_refuses(*host, origin, attempt)) {
    // sshd drops the connection before the identification string; some
    // hosts RST instead of FIN (stable per host).
    if (net::mix_u64(host->seed, 0xF17u) % 4 == 0) {
      connection.peer_reset_ = true;
    } else {
      connection.peer_closed_ = true;
    }
    return true;
  }

  if (!host->runs(protocol)) {
    connection.hung_ = true;
    return true;
  }
  connection.server_.start(*host, protocol);
  connection.serving_ = true;
  connection.server_.greet(connection.pending_);
  return true;
}

}  // namespace originscan::sim
