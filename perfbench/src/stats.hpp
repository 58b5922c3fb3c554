// Statistics and output checks of the benchmark.
//
// Every throughput or latency figure is computed per pass and summarised as
// the median across passes: host bursts lasting seconds inflate a few passes
// but leave the median alone, where a fixed-work total would absorb them.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "kernels/runner.hpp"

namespace perfbench {

/// Quantile `q` in [0, 1] of `v` by linear interpolation between the two
/// closest ranks (the "type 7" rule).  0 for an empty input.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Number of samples strictly above quantile `q` of `n` samples.
inline std::uint64_t samples_beyond(std::uint64_t n, double q) {
  return static_cast<std::uint64_t>(
      std::floor(static_cast<double>(n) * (1.0 - q) + 1e-9));
}

/// The percentile rule: the highest percentile of a fixed ladder that has at
/// least 10 samples beyond it.  nullopt below 20 samples.
inline std::optional<double> tail_quantile(std::uint64_t n) {
  static constexpr std::array<double, 8> kLadder = {
      0.9999, 0.999, 0.995, 0.99, 0.95, 0.9, 0.75, 0.5};
  for (const double q : kLadder) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return std::nullopt;
}

/// Median, quartiles and rule-chosen tail of per-pass values.
struct Summary {
  std::uint64_t n = 0;
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double tail_q = 0.0;  ///< 0 when too few samples for any tail percentile
  double tail = 0.0;
};

inline Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  s.median = quantile(v, 0.5);
  s.q1 = quantile(v, 0.25);
  s.q3 = quantile(v, 0.75);
  if (const auto q = tail_quantile(v.size())) {
    s.tail_q = *q;
    s.tail = quantile(v, *q);
  }
  return s;
}

/// Operations attempted and failed.  A mismatch, a throw, an Overloaded
/// shed and a timeout all count as one failed operation.
struct OpCount {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;  ///< up to kKeep reasons

  static constexpr std::size_t kKeep = 8;

  void ok() { ++attempted; }
  void fail(std::string why) {
    ++attempted;
    ++failed;
    if (first_failures.size() < kKeep) first_failures.push_back(std::move(why));
  }
  /// Record one operation whose outcome is `good`.
  void check(bool good, const std::string& why) {
    if (good) {
      ok();
    } else {
      fail(why);
    }
  }
  void merge(const OpCount& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (const auto& f : o.first_failures) {
      if (first_failures.size() < kKeep) first_failures.push_back(f);
    }
  }
  double failed_share() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// Per-channel [read, write] byte counters of one MemController.
using ChannelSnapshot = std::vector<std::array<std::uint64_t, 2>>;

struct Traffic {
  std::uint64_t read = 0;
  std::uint64_t write = 0;
  friend bool operator==(const Traffic&, const Traffic&) = default;
};

inline Traffic direct_delta(const ChannelSnapshot& before,
                            const ChannelSnapshot& after) {
  Traffic t;
  for (std::size_t ch = 0; ch < before.size() && ch < after.size(); ++ch) {
    t.read += after[ch][0] - before[ch][0];
    t.write += after[ch][1] - before[ch][1];
  }
  return t;
}

/// The paper's PCP-equals-direct claim for one measurement: the bytes read
/// through PCP (averaged per repetition by KernelRunner, so scaled back by
/// `reps`) equal the MemController delta over the same window.
inline Traffic pcp_total(const papisim::kernels::Measurement& m) {
  return {static_cast<std::uint64_t>(std::llround(m.read_bytes * m.reps)),
          static_cast<std::uint64_t>(std::llround(m.write_bytes * m.reps))};
}

inline bool pcp_matches_direct(const papisim::kernels::Measurement& m,
                               const Traffic& direct) {
  return pcp_total(m) == direct;
}

/// What must repeat exactly when the same measurement is taken again.
///
/// A lone core recovers cast-out lines from its victim store, and a
/// recovery fails (the line is read from memory again) on a pseudo-random
/// sequence that L3Fabric keeps per stripe for the life of the Machine
/// (L3Fabric::retained).  Repeating a lone-core measurement therefore draws
/// different failures, each adding exactly one line of read traffic and
/// nothing else.  The key holds the reads net of those refetches, which
/// must repeat exactly; the refetches are reported as their own count.
struct MeasurementKey {
  std::uint64_t net_read_bytes = 0;
  std::uint64_t write_bytes = 0;
  std::uint32_t reps_replayed = 0;
  std::uint32_t reps_extrapolated = 0;
  std::uint32_t clusters = 0;
  std::uint32_t resample_fallbacks = 0;

  /// `retention_misses` is the L3Fabric::victim_retention_misses() delta
  /// over the measurement; `line_bytes` the Machine's line size.
  static MeasurementKey of(const papisim::kernels::Measurement& m,
                           std::uint64_t retention_misses, std::uint32_t line_bytes) {
    const Traffic t = pcp_total(m);
    return {t.read - retention_misses * line_bytes, t.write,     m.reps_replayed,
            m.reps_extrapolated,                    m.clusters,  m.resample_fallbacks};
  }
  friend bool operator==(const MeasurementKey&, const MeasurementKey&) = default;
};

}  // namespace perfbench
