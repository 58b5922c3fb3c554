// Tests of the benchmark's own statistics and output checks.
#include <gtest/gtest.h>

#include <memory>

#include "components/pcp_component.hpp"
#include "core/library.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/runner.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, PicksHighestPercentileWithTenSamplesBeyond) {
  EXPECT_FALSE(tail_quantile(0).has_value());
  EXPECT_FALSE(tail_quantile(19).has_value());
  EXPECT_EQ(tail_quantile(20), 0.5);
  EXPECT_EQ(tail_quantile(39), 0.5);
  EXPECT_EQ(tail_quantile(40), 0.75);
  EXPECT_EQ(tail_quantile(100), 0.9);
  EXPECT_EQ(tail_quantile(999), 0.95);
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(2000), 0.995);
  EXPECT_EQ(tail_quantile(100000), 0.9999);
}

TEST(PercentileRule, SamplesBeyondIsExactAtRoundFractions) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
}

TEST(AcrossPasses, MedianAndQuartilesInterpolateBetweenRanks) {
  const std::vector<double> v = {4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(median(v), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.75), 3.25);
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
}

TEST(AcrossPasses, OneSlowPassDoesNotMoveTheMedian) {
  std::vector<double> passes(21, 0.5);
  const Summary calm = summarize(passes);
  passes[3] = 5.0;  // a host burst
  const Summary burst = summarize(passes);
  EXPECT_DOUBLE_EQ(calm.median, burst.median);
  EXPECT_EQ(burst.n, 21u);
  EXPECT_EQ(burst.tail_q, 0.5);
}

TEST(FailureAccounting, CountsEveryFailureAgainstAttempts) {
  OpCount ops;
  ops.ok();
  ops.check(true, "unused");
  ops.check(false, "mismatch");
  ops.fail("threw");
  EXPECT_EQ(ops.attempted, 4u);
  EXPECT_EQ(ops.failed, 2u);
  EXPECT_DOUBLE_EQ(ops.failed_share(), 0.5);
  ASSERT_EQ(ops.first_failures.size(), 2u);
  EXPECT_EQ(ops.first_failures[0], "mismatch");

  OpCount other;
  for (int i = 0; i < 20; ++i) other.fail("shed");
  ops.merge(other);
  EXPECT_EQ(ops.attempted, 24u);
  EXPECT_EQ(ops.failed, 22u);
  EXPECT_EQ(ops.first_failures.size(), OpCount::kKeep);
  EXPECT_DOUBLE_EQ(OpCount{}.failed_share(), 0.0);
}

TEST(RepeatCheck, NetsOutVictimRetentionRefetchesOnly) {
  papisim::kernels::Measurement a;
  a.reps = 2;
  a.read_bytes = 1000;  // 2000 bytes over the window
  a.write_bytes = 64;
  papisim::kernels::Measurement b = a;
  b.read_bytes = 1000 + 64 * 3 / 2.0;  // three more refetched lines
  EXPECT_EQ(MeasurementKey::of(a, 0, 64), MeasurementKey::of(b, 3, 64));
  EXPECT_FALSE(MeasurementKey::of(a, 0, 64) == MeasurementKey::of(b, 0, 64));
  b.write_bytes = 96;
  EXPECT_FALSE(MeasurementKey::of(a, 0, 64) == MeasurementKey::of(b, 3, 64));
}

/// One Summit stack measuring DOT through PCP.
class PcpVsDirect : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    machine_ = new papisim::sim::Machine(papisim::sim::MachineConfig::summit());
    machine_->set_noise_enabled(false);
    daemon_ = new papisim::pcp::Pmcd(*machine_);
    client_ = new papisim::pcp::PcpClient(*daemon_, *machine_,
                                          machine_->user_credentials());
    lib_ = new papisim::Library();
    lib_->register_component(
        std::make_unique<papisim::components::PcpComponent>(*client_));
  }
  static void TearDownTestSuite() {
    delete lib_;
    delete client_;
    delete daemon_;
    delete machine_;
  }

  /// Measures DOT; `after` runs once the measurement window has closed and
  /// before the direct snapshot is taken.
  template <typename After>
  bool measure_and_check(After&& after) {
    papisim::kernels::KernelRunner runner(*machine_, *lib_, "pcp",
                                          machine_->config().cpus_per_socket() - 1);
    const std::uint64_t n = 1 << 16;
    const std::uint64_t x = machine_->address_space().allocate(n * 8);
    const std::uint64_t y = machine_->address_space().allocate(n * 8);
    const ChannelSnapshot before = machine_->memctrl(0).snapshot();
    papisim::kernels::RunnerOptions opt;
    opt.reps = 3;
    const papisim::kernels::Measurement m = runner.measure(
        [&](std::uint32_t core) { papisim::kernels::run_dot(*machine_, 0, core, n, x, y); },
        opt);
    after();
    return pcp_matches_direct(m, direct_delta(before, machine_->memctrl(0).snapshot()));
  }

  static papisim::sim::Machine* machine_;
  static papisim::pcp::Pmcd* daemon_;
  static papisim::pcp::PcpClient* client_;
  static papisim::Library* lib_;
};

papisim::sim::Machine* PcpVsDirect::machine_ = nullptr;
papisim::pcp::Pmcd* PcpVsDirect::daemon_ = nullptr;
papisim::pcp::PcpClient* PcpVsDirect::client_ = nullptr;
papisim::Library* PcpVsDirect::lib_ = nullptr;

TEST_F(PcpVsDirect, HoldsForAnUndisturbedWindow) {
  EXPECT_TRUE(measure_and_check([] {}));
}

TEST_F(PcpVsDirect, FiresWhenBytesLandAfterTheWindow) {
  EXPECT_FALSE(measure_and_check([&] {
    machine_->memctrl(0).add_channel_bytes(3, papisim::sim::MemDir::Read, 64);
  }));
  EXPECT_FALSE(measure_and_check([&] {
    machine_->memctrl(0).add_channel_bytes(0, papisim::sim::MemDir::Write, 64);
  }));
}

}  // namespace
}  // namespace perfbench
