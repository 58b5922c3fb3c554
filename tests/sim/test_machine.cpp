// Machine-level tests: socket composition, noise accrual, flushing, and the
// interaction of engines across sockets.
#include <gtest/gtest.h>

#include "sim/machine.hpp"

namespace papisim::sim {
namespace {

TEST(Machine, SocketsHaveIndependentCountersAndCaches) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  LoopDesc loop;
  loop.iterations = 4096;
  loop.streams = {{1 << 20, 8, 8, AccessKind::Load}};
  m.engine(0, 0).execute(loop);
  EXPECT_GT(m.memctrl(0).total_bytes(MemDir::Read), 0u);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Read), 0u);
  // Same addresses from socket 1 miss independently (separate L3s).
  m.engine(1, 0).execute(loop);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Read),
            m.memctrl(0).total_bytes(MemDir::Read));
}

TEST(Machine, AdvanceAccruesNoiseOnEverySocket) {
  Machine m(MachineConfig::summit());
  m.advance(1e9);
  EXPECT_GT(m.memctrl(0).total_bytes(MemDir::Read), 0u);
  EXPECT_GT(m.memctrl(1).total_bytes(MemDir::Read), 0u);
  EXPECT_DOUBLE_EQ(m.clock().now_ns(), 1e9);
}

TEST(Machine, NoiseSequencesDifferAcrossSockets) {
  Machine m(MachineConfig::summit());
  m.noise(0).repetition_overhead();
  m.noise(1).repetition_overhead();
  EXPECT_NE(m.memctrl(0).total_bytes(MemDir::Read),
            m.memctrl(1).total_bytes(MemDir::Read));
}

TEST(Machine, NoiseSeedsDifferAcrossSystemPresets) {
  EXPECT_NE(MachineConfig::summit().noise.seed, MachineConfig::tellico().noise.seed);
  EXPECT_NE(MachineConfig::summit().noise.seed,
            MachineConfig::power10_preview().noise.seed);
}

TEST(Machine, FlushAllDrainsEverySocket) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  m.engine(0, 0).store(1 << 20, 8);
  m.engine(0, 0).take_scalar_stats();
  m.engine(1, 3).store(1 << 21, 8);
  m.engine(1, 3).take_scalar_stats();
  m.flush_all();
  EXPECT_EQ(m.memctrl(0).total_bytes(MemDir::Write), 64u);
  EXPECT_EQ(m.memctrl(1).total_bytes(MemDir::Write), 64u);
}

TEST(Machine, EnginesAreStablePerCore) {
  Machine m(MachineConfig::tellico());
  EXPECT_EQ(&m.engine(0, 0), &m.engine(0, 0));
  EXPECT_NE(&m.engine(0, 0), &m.engine(0, 1));
  EXPECT_NE(&m.engine(0, 0), &m.engine(1, 0));
  EXPECT_EQ(m.engine(0, 5).core(), 5u);
}

TEST(Machine, Power10PreviewGeometry) {
  Machine m(MachineConfig::power10_preview());
  EXPECT_EQ(m.config().mem_channels, 16u);
  EXPECT_EQ(m.cores_per_socket(), 15u);
  EXPECT_EQ(m.config().cpus_per_socket(), 128u);  // 16 physical x SMT8
  EXPECT_EQ(m.socket_of_cpu(127), 0u);
  EXPECT_EQ(m.socket_of_cpu(128), 1u);
  EXPECT_FALSE(m.user_credentials().privileged());
}

TEST(Machine, SetActiveCoresChangesVictimCapacityImmediately) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  m.set_active_cores(0, 1);
  EXPECT_GT(m.l3(0).victim_capacity_lines(), 0u);
  m.set_active_cores(0, m.cores_per_socket());
  EXPECT_EQ(m.l3(0).victim_capacity_lines(), 0u);
}

/// Sweep 12 MiB (2.4x the summit slice) through socket 0, core 0: enough
/// capacity misses to cast out into the victim store.
void lone_core_spill(Machine& m) {
  LoopDesc loop;
  loop.iterations = (12ull << 20) / 8;
  loop.streams = {{1ull << 30, 8, 8, AccessKind::Load}};
  m.engine(0, 0).execute(loop);
}

/// Bytes of tag and dirty state behind a cache of `lines` lines.
std::uint64_t state_bytes(std::uint64_t lines) {
  return lines * (sizeof(std::uint64_t) + sizeof(std::uint8_t));
}

std::uint64_t cache_state_bytes(Machine& m) {
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < m.sockets(); ++s) {
    for (std::uint32_t c = 0; c < m.cores_per_socket(); ++c) {
      total += state_bytes(m.l3(s).slice(c).capacity_lines());
      if (const CacheLevel* v = m.l3(s).victim_store(c)) {
        total += state_bytes(v->capacity_lines());
      }
    }
  }
  return total;
}

TEST(Machine, VictimPartitionIsBuiltOnFirstCastOut) {
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  for (std::uint32_t s = 0; s < m.sockets(); ++s) {
    for (std::uint32_t c = 0; c < m.cores_per_socket(); ++c) {
      EXPECT_EQ(m.l3(s).victim_store(c), nullptr) << s << "/" << c;
    }
  }
  // A lone core holds capacity for idle cores' slices...
  m.set_active_cores(0, 1);
  const std::uint64_t want = m.l3(0).victim_capacity_lines(0);
  EXPECT_EQ(want, static_cast<std::uint64_t>(m.cores_per_socket() - 1) *
                      m.config().l3_slice_bytes / m.config().line_bytes);
  EXPECT_EQ(m.l3(0).victim_store(0), nullptr);
  // ...but only its spill builds exactly that one partition.
  lone_core_spill(m);
  ASSERT_NE(m.l3(0).victim_store(0), nullptr);
  EXPECT_EQ(m.l3(0).victim_store(0)->capacity_lines(), want);
  EXPECT_GT(m.l3(0).victim_store(0)->valid_lines(), 0u);
  for (std::uint32_t s = 0; s < m.sockets(); ++s) {
    for (std::uint32_t c = s == 0 ? 1 : 0; c < m.cores_per_socket(); ++c) {
      EXPECT_EQ(m.l3(s).victim_store(c), nullptr) << s << "/" << c;
    }
  }
  // Reconfiguring drops the partition again.
  m.set_active_cores(0, 1);
  EXPECT_EQ(m.l3(0).victim_store(0), nullptr);
}

// Gate for the "no 600 MB per Machine" invariant: the simulated cache state
// of a summit Machine stays under 64 MB, also after a lone-core spill.
TEST(Machine, SummitCacheStateStaysUnder64MB) {
  constexpr std::uint64_t kLimit = 64ull << 20;
  Machine m(MachineConfig::summit());
  m.set_noise_enabled(false);
  EXPECT_LT(cache_state_bytes(m), kLimit);
  m.set_active_cores(0, 1);
  lone_core_spill(m);
  EXPECT_LT(cache_state_bytes(m), kLimit);
}

}  // namespace
}  // namespace papisim::sim
