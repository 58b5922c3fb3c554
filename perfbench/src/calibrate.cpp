// Per-call costs of the simulator's hot calls, timed in batches on the
// workload's own Machine and addresses (a single call is too short for the
// clock read not to dominate).
#include <array>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

using namespace papisim;

namespace {

constexpr std::size_t kCacheBatch = 4096;  ///< CacheLevel::access calls per timing
constexpr std::size_t kL3Batch = 32;       ///< L3Fabric calls per timing

struct LineRange {
  std::uint64_t first = 0, last = 0;  ///< [first, last)
};

LineRange lines_of(std::uint64_t base, std::uint64_t bytes, std::uint32_t line) {
  return {base / line, (base + bytes + line - 1) / line};
}

/// ns per CacheLevel::access over `batches` batches cycling through `r`,
/// keeping the batches whose every access had outcome `want_hit`.
void time_slice(sim::CacheLevel& slice, LineRange r, bool want_hit, int batches,
                std::vector<double>& out) {
  std::uint64_t line = r.first;
  for (int b = 0; b < batches; ++b) {
    std::uint64_t matching = 0;
    const std::uint64_t t0 = host_ns();
    for (std::size_t k = 0; k < kCacheBatch; ++k) {
      matching += slice.access(line, false).hit == want_hit ? 1 : 0;
      line = line + 1 == r.last ? r.first : line + 1;
    }
    const std::uint64_t t1 = host_ns();
    if (matching == kCacheBatch) {
      out.push_back(static_cast<double>(t1 - t0) / static_cast<double>(kCacheBatch));
    }
  }
}

/// ns per L3Fabric::load_line (or store_line) over batches whose every call
/// returned `want`.
void time_l3(sim::L3Fabric& l3, LineRange r, bool store, sim::L3Fabric::Source want,
             std::vector<double>& out) {
  std::array<sim::L3Fabric::Source, kL3Batch> src{};
  for (std::uint64_t b = r.first; b + kL3Batch <= r.last; b += kL3Batch) {
    const std::uint64_t t0 = host_ns();
    for (std::size_t k = 0; k < kL3Batch; ++k) {
      src[k] = store ? l3.store_line(0, b + k) : l3.load_line(0, b + k);
    }
    const std::uint64_t t1 = host_ns();
    bool same = true;
    for (const auto s : src) same = same && s == want;
    if (same) out.push_back(static_cast<double>(t1 - t0) / static_cast<double>(kL3Batch));
  }
}

}  // namespace

void calibrate_sim(sim::Machine& m, const CalibrationPattern& p, RunOutput& out) {
  const std::uint32_t line = m.config().line_bytes;
  const LineRange hit = lines_of(p.hit_base, p.hit_bytes, line);
  const LineRange spill = lines_of(p.spill_base, p.spill_bytes, line);
  const std::uint32_t all_cores = m.cores_per_socket();

  // CacheLevel::access on core 0's slice: a resident region for hits, a
  // stream larger than the slice for misses (each one evicts).
  m.set_active_cores(0, 1);
  m.flush_socket(0);
  sim::CacheLevel& slice = m.l3(0).slice(0);
  std::vector<double> hit_ns, miss_ns;
  for (std::uint64_t l = hit.first; l < hit.last; ++l) slice.access(l, false);
  time_slice(slice, hit, true, 64, hit_ns);
  for (std::uint64_t l = spill.first; l < spill.last; ++l) slice.access(l, false);
  time_slice(slice, spill, false, 64, miss_ns);
  m.flush_socket(0);

  // L3Fabric by Source: slice hits on the resident region; victim hits on
  // the second lone-core sweep of the spill region; memory with the whole
  // socket busy (no victim capacity).  Each phase keeps only the batches of
  // its own Source.
  using Src = sim::L3Fabric::Source;
  sim::L3Fabric& l3 = m.l3(0);
  std::vector<double> slice_ns, victim_ns, memory_ns, discard;
  time_l3(l3, hit, false, Src::L3Hit, discard);
  for (int round = 0; round < 4; ++round) {
    time_l3(l3, hit, false, Src::L3Hit, slice_ns);
    time_l3(l3, hit, true, Src::L3Hit, slice_ns);
  }
  m.flush_socket(0);
  time_l3(l3, spill, false, Src::VictimHit, discard);
  time_l3(l3, spill, false, Src::VictimHit, victim_ns);
  time_l3(l3, spill, true, Src::VictimHit, victim_ns);

  // Machine::flush_socket with the lone core's victim store populated.
  std::vector<double> flush_ms;
  for (int k = 0; k < 3; ++k) {
    time_l3(l3, spill, true, Src::VictimHit, victim_ns);
    const std::uint64_t t0 = host_ns();
    m.flush_socket(0);
    flush_ms.push_back(static_cast<double>(host_ns() - t0) / 1e6);
  }

  m.set_active_cores(0, all_cores);
  for (int round = 0; round < 2; ++round) {
    time_l3(l3, spill, false, Src::Memory, memory_ns);
    time_l3(l3, spill, true, Src::Memory, memory_ns);
  }
  m.flush_socket(0);
  m.set_active_cores(0, 1);

  auto& pl = out.per_layer;
  pl.push_back({"sim.cache_hit_ns", median(hit_ns), "ns"});
  pl.push_back({"sim.cache_miss_ns", median(miss_ns), "ns"});
  pl.push_back({"sim.l3_ns.slice", median(slice_ns), "ns"});
  pl.push_back({"sim.l3_ns.victim", median(victim_ns), "ns"});
  pl.push_back({"sim.l3_ns.memory", median(memory_ns), "ns"});
  pl.push_back({"sim.flush_ms", median(flush_ms), "ms"});
  out.notes.push_back("calibration batches: cache hit " + std::to_string(hit_ns.size()) +
                      ", miss " + std::to_string(miss_ns.size()) + "; l3 slice " +
                      std::to_string(slice_ns.size()) + ", victim " +
                      std::to_string(victim_ns.size()) + ", memory " +
                      std::to_string(memory_ns.size()));
}

}  // namespace perfbench
