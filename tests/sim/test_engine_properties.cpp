// Property-style tests of the access engine's policies:
//  * the precomputed in-loop stream detection is bit-exact with the
//    StreamDetector model on affine streams,
//  * the bypass decision matrix over stride/density/prefetch combinations,
//  * conservation invariants (every dirtied line drains exactly once;
//    cold reads cover exactly the distinct touched lines).
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "sim/machine.hpp"
#include "sim/stream_detect.hpp"
#include "testing/machine_builder.hpp"
#include "testing/traffic_matchers.hpp"

namespace papisim::sim {
namespace {

namespace ts = papisim::test_support;

MachineConfig small_config() { return ts::MachineBuilder::small().config(); }

// --------------------------------------------------------------- detection

/// Reference: feed an affine stream's line-touch sequence to StreamDetector
/// and report whether it ends strided.
bool detector_says_strided(std::int64_t stride, std::uint32_t elem,
                           std::uint64_t iters, std::uint32_t threshold) {
  StreamDetector det(threshold);
  det.begin(1);
  const std::uint64_t base = 1 << 20;
  std::uint64_t last_line = ~0ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    const std::uint64_t addr =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(base) +
                                   static_cast<std::int64_t>(i) * stride);
    const std::uint64_t line = addr / 64;
    if (line != last_line) {
      det.observe(0, line);
      last_line = line;
    }
    (void)elem;
  }
  return det.any_strided();
}

/// Engine-side: replay the same stream and infer the detection outcome from
/// whether a dense sequential co-running store stream bypasses.
bool engine_says_strided(std::int64_t stride, std::uint32_t elem,
                         std::uint64_t iters) {
  Machine m(small_config());
  m.set_noise_enabled(false);
  LoopDesc loop;
  loop.iterations = iters;
  loop.streams = {{1 << 20, stride, elem, AccessKind::Load},
                  {1 << 28, 8, 8, AccessKind::Store}};
  const LoopStats st = m.engine(0, 0).execute(loop);
  // If the load stream is detected strided, (almost) no stores bypass.
  const std::uint64_t store_lines = iters * 8 / 64;
  return st.bypassed_store_lines < store_lines / 2;
}

class DetectionEquivalence
    : public ::testing::TestWithParam<std::tuple<std::int64_t, std::uint32_t>> {};

TEST_P(DetectionEquivalence, EngineMatchesStreamDetector) {
  const auto [stride, elem] = GetParam();
  const std::uint64_t iters = 4096;
  const bool reference = detector_says_strided(stride, elem, iters, 4);
  const bool engine = engine_says_strided(stride, elem, iters);
  EXPECT_EQ(engine, reference) << "stride=" << stride << " elem=" << elem;
}

INSTANTIATE_TEST_SUITE_P(
    Strides, DetectionEquivalence,
    ::testing::Values(std::tuple{8, 8},        // sequential
                      std::tuple{16, 16},      // sequential, complex
                      std::tuple{64, 8},       // 1 line per iter: sequential
                      std::tuple{128, 8},      // 2 lines: strided
                      std::tuple{512, 8},      // 8 lines: strided
                      std::tuple{4096, 8},     // page stride: strided
                      std::tuple{96, 8},       // 1.5 lines: alternating delta
                      std::tuple{24, 8}));     // sub-line irregular

// ------------------------------------------------------------ bypass matrix

struct BypassCase {
  const char* name;
  std::int64_t load_stride;
  std::int64_t store_stride;
  bool prefetch;
  bool bypass_enabled;
  bool expect_bypass;
};

class BypassMatrix : public ::testing::TestWithParam<BypassCase> {};

TEST_P(BypassMatrix, StoreStreamBypassesExactlyWhenPolicyAllows) {
  const BypassCase& c = GetParam();
  MachineConfig cfg = small_config();
  cfg.store_bypass = c.bypass_enabled;
  Machine m(cfg);
  m.set_noise_enabled(false);
  LoopDesc loop;
  loop.iterations = 8192;
  loop.sw_prefetch = c.prefetch;
  loop.streams = {{1 << 20, c.load_stride, 8, AccessKind::Load},
                  {1 << 28, c.store_stride, 8, AccessKind::Store}};
  const LoopStats st = m.engine(0, 0).execute(loop);
  if (c.expect_bypass) {
    EXPECT_GT(st.bypassed_store_lines, loop.iterations * 8 / 64 * 9 / 10) << c.name;
  } else {
    EXPECT_LE(st.bypassed_store_lines, 4u) << c.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BypassMatrix,
    ::testing::Values(
        BypassCase{"seq_copy", 8, 8, false, true, true},
        BypassCase{"strided_load_defeats", 256, 8, false, true, false},
        BypassCase{"strided_store_never_streams", 8, 256, false, true, false},
        BypassCase{"prefetch_disables", 8, 8, true, true, false},
        BypassCase{"config_off", 8, 8, false, false, false},
        // A 64 B-stride load is sequential at line granularity: it must NOT
        // defeat the bypass (it is not a Stride-N stream).
        BypassCase{"line_stride_load_is_sequential", 64, 8, false, true, true}),
    [](const ::testing::TestParamInfo<BypassCase>& info) {
      return info.param.name;
    });

// -------------------------------------------------------------- invariants

TEST(EngineInvariants, ColdReadsCoverExactlyTheDistinctTouchedLines) {
  Machine m(small_config());
  m.set_noise_enabled(false);
  // Irregular strides; compute the touched-line set independently.
  const std::uint64_t base = 1 << 20;
  const std::int64_t stride = 40;
  const std::uint64_t iters = 3000;
  std::set<std::uint64_t> lines;
  for (std::uint64_t i = 0; i < iters; ++i) lines.insert((base + i * stride) / 64);
  const LoopStats st = m.engine(0, 0).execute(ts::load_loop(base, stride, iters));
  EXPECT_EQ(st.mem_read_bytes, lines.size() * 64);
  EXPECT_EQ(st.line_touches, lines.size());
}

TEST(EngineInvariants, EveryAllocatedDirtyLineDrainsExactlyOnce) {
  Machine m(small_config());
  m.set_noise_enabled(false);
  // Strided stores (write-allocate) over a known number of distinct lines,
  // touched twice: writeback volume must equal the distinct line count once.
  const std::uint64_t n = 2048;
  LoopDesc loop;
  loop.iterations = n;
  loop.streams = {{1 << 22, 128, 8, AccessKind::Store}};
  ts::TrafficProbe traffic(m);
  m.engine(0, 0).execute(loop);
  m.engine(0, 0).execute(loop);  // re-dirty the same lines
  m.flush_socket(0);
  EXPECT_TRUE(ts::bytes_near(traffic.write_delta(), n * 64, 0));
}

TEST(EngineInvariants, CountersAreMonotonicAcrossMixedWork) {
  Machine m(small_config());
  m.set_noise_enabled(false);
  AccessEngine& eng = m.engine(0, 0);
  CoreCounters prev = eng.counters();
  for (int round = 0; round < 5; ++round) {
    LoopDesc loop;
    loop.iterations = 512 + 100 * round;
    loop.flops_per_iter = 2.0;
    loop.streams = {{(1ull << 22) + round * (1ull << 21),
                     round % 2 == 0 ? 8 : 200, 8, AccessKind::Load}};
    eng.execute(loop);
    eng.store(1 << 30, 8);
    eng.take_scalar_stats();
    const CoreCounters cur = eng.counters();
    EXPECT_GE(cur.flops, prev.flops);
    EXPECT_GT(cur.line_touches, prev.line_touches);
    EXPECT_GE(cur.busy_ns, prev.busy_ns);
    EXPECT_EQ(cur.line_touches, cur.l3_hits + cur.victim_hits + cur.l3_misses());
    prev = cur;
  }
}

TEST(EngineInvariants, LineNeverInSliceAndVictimSimultaneously) {
  MachineConfig cfg = small_config();
  cfg.cores_per_socket = 4;
  cfg.l3_slice_bytes = 64 * 256;  // tiny: lots of cast-out churn
  Machine m(cfg);
  m.set_noise_enabled(false);
  m.set_active_cores(0, 1);
  SplitMix64 rng(2024);
  AccessEngine& eng = m.engine(0, 0);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t addr = (rng.next_u64() % 4096) * 64;
    if (rng.next_double() < 0.3) {
      eng.store(addr, 8);
    } else {
      eng.load(addr, 8);
    }
  }
  eng.take_scalar_stats();
  L3Fabric& l3 = m.l3(0);
  for (std::uint64_t line = 0; line < 4096; ++line) {
    const bool in_slice = l3.slice(0).contains(line);
    const CacheLevel* victim = l3.victim_store();
    const bool in_victim = victim != nullptr && victim->contains(line);
    EXPECT_FALSE(in_slice && in_victim) << "line " << line;
  }
}

TEST(EngineInvariants, ReplayIsDeterministic) {
  auto run = [] {
    Machine m(small_config());
    m.set_noise_enabled(false);
    LoopDesc loop;
    loop.iterations = 50000;
    loop.streams = {{1 << 20, 8, 8, AccessKind::Load},
                    {1 << 26, 72, 8, AccessKind::Load},
                    {1 << 30, 8, 8, AccessKind::Store}};
    const LoopStats st = m.engine(0, 0).execute(loop);
    m.flush_socket(0);
    return std::tuple{st.mem_read_bytes, st.mem_write_bytes, st.line_touches,
                      m.memctrl(0).total_bytes(MemDir::Write)};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace papisim::sim
