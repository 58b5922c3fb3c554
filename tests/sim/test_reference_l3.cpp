// Correctness ratchet: seeded random load/store/prefetch streams through
// sim::L3Fabric and through the naive ReferenceL3 must produce exactly the
// same per-channel memory lines and victim counters, across lone-core,
// partial and full socket occupancy with set_active_cores() changes between
// streams.
#include <gtest/gtest.h>

#include <string>

#include "sim/l3fabric.hpp"
#include "sim/rng.hpp"
#include "testing/reference_l3.hpp"

namespace papisim::sim {
namespace {

using test_support::ReferenceL3;

/// Six cores with 16 KiB, 4-way slices: small enough for the list-based
/// reference to stay cheap, large enough that a lone core's victim
/// partition spans many sets.
MachineConfig ratchet_config(double retention) {
  MachineConfig cfg;
  cfg.cores_per_socket = 6;
  cfg.physical_cores_per_socket = 6;
  cfg.l3_slice_bytes = 16 * 1024;
  cfg.l3_associativity = 4;
  cfg.castout_retention = retention;
  return cfg;
}

struct Pair {
  explicit Pair(const MachineConfig& c)
      : cfg(c),
        mem(cfg.mem_channels, cfg.line_bytes, cfg.channel_interleave_lines),
        fabric(cfg, mem),
        ref(cfg) {}

  void set_active_cores(std::uint32_t n) {
    fabric.set_active_cores(n);
    ref.set_active_cores(n);
  }

  void flush_all() {
    fabric.flush_all();
    ref.flush_all();
  }

  /// `ops` accesses by the first `active` cores over a footprint of three
  /// times their combined slices: runs of sequential lines (which spill and
  /// return) mixed with uniform random lines; 50% loads, 30% stores, 20%
  /// prefetches.
  void stream(SplitMix64& rng, std::uint32_t active, int ops) {
    const std::uint64_t slice_lines = cfg.l3_slice_bytes / cfg.line_bytes;
    const std::uint64_t footprint = 3 * slice_lines * active;
    std::uint64_t cursor = 0;
    for (int i = 0; i < ops; ++i) {
      const auto core = static_cast<std::uint32_t>(rng.next_u64() % active);
      const std::uint64_t line =
          rng.next_double() < 0.7 ? (cursor++ % footprint)
                                  : rng.next_u64() % footprint;
      const double kind = rng.next_double();
      if (kind < 0.5) {
        fabric.load_line(core, line);
        ref.load(core, line);
      } else if (kind < 0.8) {
        fabric.store_line(core, line);
        ref.store(core, line);
      } else {
        fabric.prefetch_line(core, line);
        ref.prefetch(core, line);
      }
    }
  }

  void expect_match(const std::string& where) const {
    for (std::uint32_t ch = 0; ch < cfg.mem_channels; ++ch) {
      EXPECT_EQ(mem.channel_bytes(ch, MemDir::Read) / cfg.line_bytes,
                ref.read_lines(ch))
          << where << " read channel " << ch;
      EXPECT_EQ(mem.channel_bytes(ch, MemDir::Write) / cfg.line_bytes,
                ref.write_lines(ch))
          << where << " write channel " << ch;
    }
    EXPECT_EQ(fabric.victim_recoveries(), ref.victim_recoveries()) << where;
    EXPECT_EQ(fabric.victim_retention_misses(), ref.victim_retention_misses())
        << where;
  }

  MachineConfig cfg;
  MemController mem;
  L3Fabric fabric;
  ReferenceL3 ref;
};

void run_ratchet(double retention, std::uint64_t seed) {
  Pair p(ratchet_config(retention));
  SplitMix64 rng(seed);
  // Lone core, partial occupancy, full socket, and back: each change of the
  // active count resets the victim partitions mid-history.
  for (const std::uint32_t active : {1u, 3u, 6u, 1u, 2u, 1u, 6u, 4u}) {
    const std::string where = "seed " + std::to_string(seed) + " active " +
                              std::to_string(active);
    p.set_active_cores(active);
    p.stream(rng, active, 6000);
    p.expect_match(where + " before flush");
    p.stream(rng, active, 3000);
    p.flush_all();
    p.expect_match(where + " after flush");
  }
  // The streams must actually reach every path the ratchet guards.
  EXPECT_GT(p.ref.victim_recoveries(), 0u);
  if (retention < 1.0) {
    EXPECT_GT(p.ref.victim_retention_misses(), 0u);
  }
}

TEST(ReferenceL3Ratchet, FullRetentionStreamsMatchFabric) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) run_ratchet(1.0, seed);
}

TEST(ReferenceL3Ratchet, PartialRetentionStreamsMatchFabric) {
  for (const std::uint64_t seed : {7ull, 8ull, 9ull}) run_ratchet(0.6, seed);
}

TEST(ReferenceL3Ratchet, NoLateralCastOutStreamsMatchFabric) {
  MachineConfig cfg = ratchet_config(1.0);
  cfg.lateral_castout = false;
  Pair p(cfg);
  SplitMix64 rng(42);
  for (const std::uint32_t active : {1u, 6u, 1u}) {
    p.set_active_cores(active);
    p.stream(rng, active, 6000);
    p.flush_all();
    p.expect_match("active " + std::to_string(active));
  }
  EXPECT_EQ(p.ref.victim_recoveries(), 0u);
}

}  // namespace
}  // namespace papisim::sim
