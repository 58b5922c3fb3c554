// Integration tests for the measured-kernel runner: the full paper pipeline
// (kernel -> simulated nest counters -> PCP or perf_nest component ->
// averaged measurement), including the PCP-vs-direct accuracy comparison.
#include <gtest/gtest.h>

#include <memory>

#include "components/pcp_component.hpp"
#include "components/perf_nest_component.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/expected.hpp"
#include "kernels/runner.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "testing/machine_builder.hpp"

namespace papisim::kernels {
namespace {

/// Summit-style stack: unprivileged user, PCP route.
struct SummitStack {
  SummitStack()
      : machine(sim::MachineConfig::summit()),
        daemon(machine),
        client(daemon, machine, machine.user_credentials()) {
    lib.register_component(std::make_unique<components::PcpComponent>(client));
    lib.register_component(std::make_unique<components::PerfNestComponent>(
        machine, machine.user_credentials()));
  }
  sim::Machine machine;
  pcp::Pmcd daemon;
  pcp::PcpClient client;
  Library lib;
};

/// Tellico-style stack: privileged user, direct perf_nest route.
struct TellicoStack {
  TellicoStack() : machine(sim::MachineConfig::tellico()) {
    lib.register_component(std::make_unique<components::PerfNestComponent>(
        machine, machine.user_credentials()));
  }
  sim::Machine machine;
  Library lib;
};

TEST(KernelRunner, RejectsUnknownRoute) {
  TellicoStack s;
  EXPECT_THROW(KernelRunner(s.machine, s.lib, "bogus", 0), Error);
}

TEST(KernelRunner, EventNamesMatchTableI) {
  SummitStack s;
  KernelRunner runner(s.machine, s.lib, "pcp", 87);
  const auto names = runner.event_names();
  ASSERT_EQ(names.size(), 16u);
  EXPECT_EQ(names[0],
            "pcp:::perfevent.hwcounters.nest_mba0_imc.PM_MBA0_READ_BYTES.value:cpu87");
  EXPECT_EQ(names[15],
            "pcp:::perfevent.hwcounters.nest_mba7_imc.PM_MBA7_WRITE_BYTES.value:cpu87");

  TellicoStack t;
  KernelRunner direct(t.machine, t.lib, "perf_nest", 0);
  EXPECT_EQ(direct.event_names()[0], "perf_nest:::power9_nest_mba0::PM_MBA0_READ_BYTES:cpu=0");
}

TEST(KernelRunner, NoiselessGemvMeasurementMatchesExpectation) {
  SummitStack s;
  s.machine.set_noise_enabled(false);
  KernelRunner runner(s.machine, s.lib, "pcp", 87);
  // Paper regime: batched, capped matrix larger than the 5 MB L3 share.
  const std::uint64_t m = 8192, n = 1280, p = 1280;
  const GemvBuffers buf = GemvBuffers::allocate(s.machine.address_space(), m, n, p);
  RunnerOptions opt;
  opt.reps = 3;
  opt.batched = true;
  const Measurement meas = runner.measure(
      [&](std::uint32_t core) { run_capped_gemv(s.machine, 0, core, m, n, p, buf); },
      opt);
  const ExpectedTraffic exp = scaled(gemv_capped_expected(m, n), meas.threads);
  EXPECT_EQ(meas.threads, 21u);
  EXPECT_NEAR(meas.read_bytes, exp.read_bytes, 0.03 * exp.read_bytes);
  EXPECT_NEAR(meas.write_bytes, exp.write_bytes, 0.03 * exp.write_bytes);
  EXPECT_EQ(meas.reps, 3u);
  EXPECT_GT(meas.elapsed_sec, 0.0);
}

TEST(KernelRunner, PcpAndPerfNestAgreeWithoutNoise) {
  // The paper's core claim: measurements via PCP are as accurate as those
  // taken directly from the hardware counters.
  const std::uint64_t n = 192;
  auto run = [&](auto& stack, const std::string& route, std::uint32_t cpu) {
    stack.machine.set_noise_enabled(false);
    KernelRunner runner(stack.machine, stack.lib, route, cpu);
    const GemmBuffers buf = GemmBuffers::allocate(stack.machine.address_space(), n);
    RunnerOptions opt;
    opt.reps = 2;
    return runner.measure(
        [&](std::uint32_t core) { run_gemm(stack.machine, 0, core, n, buf); }, opt);
  };
  SummitStack summit;
  TellicoStack tellico;
  const Measurement via_pcp = run(summit, "pcp", 87);
  const Measurement direct = run(tellico, "perf_nest", 0);
  EXPECT_NEAR(via_pcp.read_bytes, direct.read_bytes, 1e-6);
  EXPECT_NEAR(via_pcp.write_bytes, direct.write_bytes, 1e-6);
}

TEST(KernelRunner, SymmetricBatchMatchesLiteralMultiCoreRun) {
  // Validation of the symmetric-batch optimization (DESIGN.md §5): scaling
  // one representative core must equal literally running a kernel per core.
  const std::uint64_t n = 96;
  sim::MachineConfig cfg = sim::MachineConfig::tellico();
  cfg.cores_per_socket = 4;
  cfg.physical_cores_per_socket = 4;

  // Literal run: one GEMM per core, disjoint buffers.
  sim::Machine literal(cfg);
  literal.set_noise_enabled(false);
  literal.set_active_cores(0, 4);
  for (std::uint32_t core = 0; core < 4; ++core) {
    const GemmBuffers buf = GemmBuffers::allocate(literal.address_space(), n);
    run_gemm(literal, 0, core, n, buf);
  }
  literal.flush_socket(0);
  const double lit_reads =
      static_cast<double>(literal.memctrl(0).total_bytes(sim::MemDir::Read));
  const double lit_writes =
      static_cast<double>(literal.memctrl(0).total_bytes(sim::MemDir::Write));

  // Runner's batched mode on an identical machine.
  sim::Machine scaled_m(cfg);
  scaled_m.set_noise_enabled(false);
  Library lib;
  lib.register_component(std::make_unique<components::PerfNestComponent>(
      scaled_m, scaled_m.user_credentials()));
  KernelRunner runner(scaled_m, lib, "perf_nest", 0);
  const GemmBuffers buf = GemmBuffers::allocate(scaled_m.address_space(), n);
  RunnerOptions opt;
  opt.batched = true;
  const Measurement meas = runner.measure(
      [&](std::uint32_t core) { run_gemm(scaled_m, 0, core, n, buf); }, opt);

  EXPECT_EQ(meas.threads, 4u);
  EXPECT_NEAR(meas.read_bytes, lit_reads, 0.01 * lit_reads);
  EXPECT_NEAR(meas.write_bytes, lit_writes, 0.01 * lit_writes);
}

TEST(KernelRunner, RepetitionAveragingAmortizesNoise) {
  // With noise enabled, a small kernel measured once is far off the
  // expectation; averaged over many repetitions it converges (Fig. 2 vs 3a).
  const std::uint64_t n = 128;
  auto measure_with_reps = [&](std::uint32_t reps) {
    SummitStack s;  // noise ON
    KernelRunner runner(s.machine, s.lib, "pcp", 87);
    const GemmBuffers buf = GemmBuffers::allocate(s.machine.address_space(), n);
    RunnerOptions opt;
    opt.reps = reps;
    const Measurement m = runner.measure(
        [&](std::uint32_t core) { run_gemm(s.machine, 0, core, n, buf); }, opt);
    const ExpectedTraffic exp = gemm_expected(n);
    return std::abs(m.read_bytes - exp.read_bytes) / exp.read_bytes;
  };
  const double err1 = measure_with_reps(1);
  const double err500 = measure_with_reps(repetitions_for(n));
  EXPECT_LT(err500, err1);
  EXPECT_LT(err500, 0.25);
  EXPECT_GT(err1, 0.5);  // a 128^2 GEMM measured once is noise-dominated
}

TEST(KernelRunner, FastPathRepetitionsMatchLiteralResimulation) {
  // The runner replays the recorded first-repetition traffic for reps 2..R;
  // that must be byte-identical to literally re-simulating every repetition
  // (noise off => both are deterministic).
  const std::uint64_t n = 96;
  auto run = [&](bool literal) {
    TellicoStack t;
    t.machine.set_noise_enabled(false);
    KernelRunner runner(t.machine, t.lib, "perf_nest", 0);
    const GemmBuffers buf = GemmBuffers::allocate(t.machine.address_space(), n);
    RunnerOptions opt;
    opt.reps = 7;
    opt.literal_reps = literal;
    return runner.measure(
        [&](std::uint32_t core) { run_gemm(t.machine, 0, core, n, buf); }, opt);
  };
  const Measurement fast = run(false);
  const Measurement lit = run(true);
  EXPECT_DOUBLE_EQ(fast.read_bytes, lit.read_bytes);
  EXPECT_DOUBLE_EQ(fast.write_bytes, lit.write_bytes);
  EXPECT_NEAR(fast.elapsed_sec, lit.elapsed_sec, 1e-12);
}

TEST(KernelRunner, BatchedRejectsMoreThreadsThanCores) {
  TellicoStack t;
  KernelRunner runner(t.machine, t.lib, "perf_nest", 0);
  RunnerOptions opt;
  opt.batched = true;
  opt.threads = 99;
  EXPECT_THROW(runner.measure([](std::uint32_t) {}, opt), Error);
}

TEST(KernelRunner, RepeatedLoneCoreSpillMeasureIsIdentical) {
  // A lone-core measurement that spills into the victim store must not
  // depend on what ran before it on the same Machine: every measure resets
  // the partitions and their retention sequence.
  const auto machine = test_support::MachineBuilder::knee()
                           .store_bypass(false)
                           .castout_retention(0.5)
                           .quiet();
  Library lib;
  lib.register_component(std::make_unique<components::PerfNestComponent>(
      *machine, machine->user_credentials()));
  KernelRunner runner(*machine, lib, "perf_nest", 0);
  // 2.5x the 64 KiB slice, swept twice: the second sweep recovers from
  // the victim store, partly lost to retention misses.
  const std::uint64_t elems = 10 * 1024;
  const sim::LoopDesc copy = test_support::copy_loop(
      elems, machine->address_space().allocate(elems * 8),
      machine->address_space().allocate(elems * 8));
  const auto measure = [&] {
    return runner.measure(
        [&](std::uint32_t core) {
          machine->engine(0, core).execute(copy);
          machine->engine(0, core).execute(copy);
        },
        RunnerOptions{});
  };
  const std::uint64_t misses0 = machine->l3(0).victim_retention_misses();
  const Measurement first = measure();
  EXPECT_GT(machine->l3(0).victim_retention_misses(), misses0);
  const Measurement second = measure();
  EXPECT_EQ(first.read_bytes, second.read_bytes);
  EXPECT_EQ(first.write_bytes, second.write_bytes);
}

}  // namespace
}  // namespace papisim::kernels
