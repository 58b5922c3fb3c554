// replay_hit and replay_spill: lists of KernelRunner::measure calls on the
// "pcp" route, the path a PAPI user's measurement takes.
#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <random>

#include "bench.hpp"
#include "host.hpp"
#include "kernels/blas_sim.hpp"
#include "kernels/expected.hpp"

namespace perfbench {

using namespace papisim;

namespace {

/// Single-client PcpClient::fetch calls after each replay pass: the control
/// for the fan-in workload (50 samples beyond p99 in every pass).  Issued in
/// chunks with the program's span rings (8192 spans per thread) emptied
/// between them.
constexpr int kControlFetches = 5000;
constexpr int kControlChunk = 1000;

/// One measurement of a pass.
struct Leg {
  std::string name;
  std::function<void(std::uint32_t core)> kernel;
  kernels::RunnerOptions opt;
  bool spe = false;  ///< SPE attached at its default period, drained after
};

/// Activity totals of every core of socket 0.
sim::CoreCounters socket_counters(sim::Machine& m) {
  sim::CoreCounters t;
  for (std::uint32_t c = 0; c < m.cores_per_socket(); ++c) {
    const sim::CoreCounters& cc = m.engine(0, c).counters();
    t.line_touches += cc.line_touches;
    t.l3_hits += cc.l3_hits;
    t.victim_hits += cc.victim_hits;
  }
  return t;
}

struct Shape {
  std::uint64_t touches = 0, slice = 0, victim = 0;
  void add(const sim::CoreCounters& a, const sim::CoreCounters& b) {
    touches += b.line_touches - a.line_touches;
    slice += b.l3_hits - a.l3_hits;
    victim += b.victim_hits - a.victim_hits;
  }
  std::uint64_t memory() const { return touches - slice - victim; }
  static double share(std::uint64_t part, std::uint64_t base) {
    return base == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(base);
  }
};

/// Pads the address space by a seed-drawn number of pages, so each seed
/// places the arrays differently across the hashed cache sets.
std::uint64_t allocate_padded(sim::AddressSpace& as, std::uint64_t bytes,
                              std::mt19937_64& rng) {
  as.allocate(4096 * (rng() % 64) + 64);
  return as.allocate(bytes);
}

/// Everything one replay run keeps across its passes.
class ReplayRun {
 public:
  ReplayRun(const Options& opt, Stack& st, SpanLog& log, RunOutput& out)
      : opt_(opt), st_(st), log_(log), out_(out) {}

  std::vector<Leg> legs;
  /// Second sweep of the lone-core and socket-busy spill legs, traced passes.
  Shape lone_second, busy_second;

  void pass(PassResult& r);
  void finish(const SetupStats& setup, const CalibrationPattern& pattern);

 private:
  void measure_leg(std::size_t i, bool traced);
  void traced_pass_layers(PassFrame& frame);

  const Options& opt_;
  Stack& st_;
  SpanLog& log_;
  RunOutput& out_;
  std::vector<std::optional<MeasurementKey>> reference_;  ///< per leg, warm-up pass
  FetchClientState fetch_state_;
  Series layers_;
  Shape shape_;
  double kernel_s_ = 0;
  std::uint64_t spe_samples_ = 0, spe_drops_ = 0;
  // Per pass, reset at its start.
  double spe_drain_ms_ = 0;
  std::uint64_t reps_replayed_ = 0, reps_extrapolated_ = 0, fallbacks_ = 0;
  std::uint64_t retention_misses_ = 0;
};

void ReplayRun::measure_leg(std::size_t i, bool traced) {
  const Leg& leg = legs[i];
  const ChannelSnapshot before = st_.channels();
  const std::uint64_t misses0 = st_.machine->l3(0).victim_retention_misses();
  const sim::CoreCounters c0 = traced ? socket_counters(*st_.machine)
                                      : sim::CoreCounters{};
  kernels::Measurement m;
  try {
    if (leg.spe) st_.attach_spe(true);
    {
      const Scope span(log_, Op::Measure);
      m = st_.runner->measure(leg.kernel, leg.opt);
    }
    if (leg.spe) {
      st_.attach_spe(false);
      const std::uint64_t t0 = host_ns();
      const Scope span(log_, Op::SpeDrain);
      const auto samples = st_.spe->drain();
      spe_drain_ms_ += static_cast<double>(host_ns() - t0) / 1e6;
    }
  } catch (const std::exception& e) {
    if (leg.spe) st_.attach_spe(false);
    out_.ops.fail(leg.name + " threw: " + e.what());
    return;
  }
  const Traffic direct = direct_delta(before, st_.channels());
  const std::uint64_t misses = st_.machine->l3(0).victim_retention_misses() - misses0;
  retention_misses_ += misses;
  if (traced) {
    const sim::CoreCounters c1 = socket_counters(*st_.machine);
    shape_.add(c0, c1);
  }
  reps_replayed_ += m.reps_replayed;
  reps_extrapolated_ += m.reps_extrapolated;
  fallbacks_ += m.resample_fallbacks;

  const MeasurementKey key =
      MeasurementKey::of(m, misses, st_.machine->config().line_bytes);
  if (reference_.size() <= i) reference_.resize(i + 1);
  if (!reference_[i]) reference_[i] = key;
  if (!pcp_matches_direct(m, direct)) {
    out_.ops.fail(leg.name + ": PCP bytes differ from MemController delta");
  } else if (!(key == *reference_[i])) {
    out_.ops.fail(leg.name + ": measurement differs from the first pass");
  } else {
    out_.ops.ok();
  }
}

void ReplayRun::pass(PassResult& r) {
  PassFrame frame(st_, log_, r.traced);
  spe_drain_ms_ = 0;
  reps_replayed_ = reps_extrapolated_ = fallbacks_ = retention_misses_ = 0;
  const auto spe0 = st_.spe ? st_.spe->totals() : spe::SpeCollector::Totals{};

  const std::uint64_t t0 = host_ns();
  {
    const Scope pass_span(log_, Op::Pass);
    frame.open();
    for (std::size_t i = 0; i < legs.size(); ++i) measure_leg(i, r.traced);
    frame.close();
  }
  r.seconds = static_cast<double>(host_ns() - t0) / 1e9;
  out_.ops.check(frame.pcp_traffic() == frame.direct_traffic(),
                 "pass traffic event set differs from MemController delta");

  // Separate steps, outside pass_s: the single-client fetch control and the
  // PMNS traversal.
  frame.drain();
  {
    const Scope loop(log_, Op::ClientLoop);
    for (int done = 0; done < kControlFetches; done += kControlChunk) {
      fetch_loop(*st_.client, st_.pmids, st_.measure_cpu, kControlChunk,
                 fetch_state_, log_, r, out_.ops);
      frame.drain();
    }
  }
  pmns_traversal(*st_.client, log_, r, out_.ops);

  if (!r.traced) return;
  const auto spe1 = st_.spe ? st_.spe->totals() : spe::SpeCollector::Totals{};
  spe_samples_ += spe1.samples - spe0.samples;
  spe_drops_ += spe1.drops - spe0.drops;
  traced_pass_layers(frame);
}

void ReplayRun::traced_pass_layers(PassFrame& frame) {
  const SelfTimes st = frame.finish_traced(layers_, out_);
  const auto ms = [&](Op op) {
    return static_cast<double>(st.total_ns[static_cast<std::size_t>(op)]) / 1e6;
  };
  kernel_s_ += ms(Op::Kernel) / 1e3;
  layers_.add("kernels.measure_ms", "ms", ms(Op::Measure));
  layers_.add("kernels.kernel_ms", "ms", ms(Op::Kernel));
  layers_.add("kernels.overhead_ms", "ms", ms(Op::Measure) - ms(Op::Kernel));
  layers_.add("kernels.reps_replayed", "count", static_cast<double>(reps_replayed_));
  layers_.add("kernels.reps_extrapolated", "count",
              static_cast<double>(reps_extrapolated_));
  layers_.add("kernels.resample_fallbacks", "count", static_cast<double>(fallbacks_));
  layers_.add("sim.retention_misses", "count", static_cast<double>(retention_misses_));
  layers_.add("spe.drain_ms", "ms", spe_drain_ms_);
  layers_.add("selfmon.l3_stripe_acquisitions", "count",
              static_cast<double>(frame.harness().at(0)));
  const Traffic direct = frame.direct_traffic();
  layers_.add("sim.mem_read_bytes", "bytes", static_cast<double>(direct.read));
  layers_.add("sim.mem_write_bytes", "bytes", static_cast<double>(direct.write));
}

void ReplayRun::finish(const SetupStats& setup, const CalibrationPattern& pattern) {
  add_end_to_end(setup, out_);
  if (!opt_.trace) return;
  add_common_per_layer(setup, *st_.daemon, out_);
  layers_.emit_medians(out_.per_layer);
  auto& pl = out_.per_layer;
  pl.push_back({"sim.touches_per_s", kernel_s_ > 0
                                         ? static_cast<double>(shape_.touches) / kernel_s_
                                         : 0.0,
                "1/s"});
  pl.push_back({"sim.slice_hit_share", Shape::share(shape_.slice, shape_.touches), "ratio"});
  pl.push_back({"sim.victim_hit_share", Shape::share(shape_.victim, shape_.touches), "ratio"});
  pl.push_back({"sim.memory_share", Shape::share(shape_.memory(), shape_.touches), "ratio"});
  pl.push_back({"sim.lone_victim_share",
                Shape::share(lone_second.victim, lone_second.touches - lone_second.slice),
                "ratio"});
  pl.push_back({"sim.busy_memory_share",
                Shape::share(busy_second.memory(), busy_second.touches - busy_second.slice),
                "ratio"});
  pl.push_back({"spe.samples", static_cast<double>(spe_samples_), "count"});
  pl.push_back({"spe.drops", static_cast<double>(spe_drops_), "count"});
  out_.notes.push_back(
      "shape: " + std::to_string(shape_.touches) + " line touches in traced passes; slice " +
      std::to_string(shape_.slice) + ", victim " + std::to_string(shape_.victim) +
      ", memory " + std::to_string(shape_.memory()));
  calibrate_sim(*st_.machine, pattern, out_);
}

// ---------------------------------------------------------------- replay_hit

/// Line touches of one run_gemm(n): per (i, j), n B-column touches, the
/// A-row lines, and the C store.
double gemm_touches(std::uint64_t n) {
  const double d = static_cast<double>(n);
  return d * d * (d + std::ceil(d / 8.0) + 1.0);
}

/// Repetitions a measurement of `reps` simulates under `mode`.
double simulated_reps(std::uint32_t reps, kernels::ReplayMode mode) {
  if (mode == kernels::ReplayMode::Full) return 1.0;
  const std::uint32_t period = kernels::sampled_replay_period(reps);
  return std::ceil(static_cast<double>(reps) / static_cast<double>(period));
}

/// Simulated GEMM touches of the single-core legs (Full + Sampled) at n.
double single_work(std::uint64_t n) {
  const std::uint32_t reps = kernels::repetitions_for(n);
  return gemm_touches(n) * (simulated_reps(reps, kernels::ReplayMode::Full) +
                            simulated_reps(reps, kernels::ReplayMode::Sampled));
}

/// Simulated GEMM touches of the batched legs (Full, Sampled, Full + SPE).
double batched_work(std::uint64_t n) {
  const std::uint32_t reps = kernels::repetitions_for(n);
  return gemm_touches(n) * (2 * simulated_reps(reps, kernels::ReplayMode::Full) +
                            simulated_reps(reps, kernels::ReplayMode::Sampled));
}

}  // namespace

RunOutput run_replay_hit(const Options& opt, std::uint64_t process_start_ns) {
  RunOutput out;
  SpanLog log(opt.trace);
  SetupStats setup;
  auto st = setup_stack(process_start_ns, log, setup,
                        [](Stack& s) {
                          s.spe = std::make_unique<spe::SpeCollector>(*s.machine);
                          s.attach_spe(false);
                        });
  log.clear();

  // Seed-drawn sizes whose simulated work is the same for every seed: the
  // single-core legs run GEMM at n_single, the batched legs at the n_batch
  // that brings the pass to the work of n = 80 on every leg.
  std::mt19937_64 rng(opt.seed);
  const std::uint64_t n_single = 48 + rng() % 49;
  const double target = single_work(80) + batched_work(80);
  std::uint64_t n_batch = 16;
  for (std::uint64_t n = 16; n <= 128; ++n) {
    if (std::abs(single_work(n_single) + batched_work(n) - target) <
        std::abs(single_work(n_single) + batched_work(n_batch) - target)) {
      n_batch = n;
    }
  }
  sim::Machine& m = *st->machine;
  kernels::GemmBuffers bs, bb;
  for (auto* b : {&bs, &bb}) {
    const std::uint64_t n = b == &bs ? n_single : n_batch;
    b->a = allocate_padded(m.address_space(), n * n * 8, rng);
    b->b = allocate_padded(m.address_space(), n * n * 8, rng);
    b->c = allocate_padded(m.address_space(), n * n * 8, rng);
  }
  out.notes.push_back("inputs: GEMM n_single=" + std::to_string(n_single) +
                      " n_batch=" + std::to_string(n_batch));

  ReplayRun run(opt, *st, log, out);
  const auto gemm = [&](std::uint64_t n, const kernels::GemmBuffers& buf) {
    return [&m, &log, n, buf](std::uint32_t core) {
      const Scope span(log, Op::Kernel);
      kernels::run_gemm(m, 0, core, n, buf);
    };
  };
  for (const bool batched : {false, true}) {
    const std::uint64_t n = batched ? n_batch : n_single;
    const kernels::GemmBuffers& buf = batched ? bb : bs;
    for (const auto mode : {kernels::ReplayMode::Full, kernels::ReplayMode::Sampled}) {
      Leg leg;
      leg.name = std::string("gemm_") + (batched ? "batched" : "single") +
                 (mode == kernels::ReplayMode::Full ? "_full" : "_sampled");
      leg.kernel = gemm(n, buf);
      leg.opt.reps = kernels::repetitions_for(n);
      leg.opt.batched = batched;
      leg.opt.strategy = mode;
      run.legs.push_back(leg);
    }
  }
  Leg spe_leg = run.legs[2];  // batched, Full
  spe_leg.name = "gemm_batched_full_spe";
  spe_leg.spe = true;
  run.legs.push_back(spe_leg);

  out.host_ref_start_s = host_reference_seconds();
  run_passes(opt, out, [&](PassResult& r) { run.pass(r); });
  CalibrationPattern pattern;
  pattern.hit_base = bb.a;
  pattern.hit_bytes = bb.c + n_batch * n_batch * 8 - bb.a;
  pattern.spill_bytes = 4 * m.config().l3_slice_bytes;
  pattern.spill_base = m.address_space().allocate(pattern.spill_bytes);
  run.finish(setup, pattern);
  out.host_ref_end_s = host_reference_seconds();
  return out;
}

// -------------------------------------------------------------- replay_spill

RunOutput run_replay_spill(const Options& opt, std::uint64_t process_start_ns) {
  RunOutput out;
  SpanLog log(opt.trace);
  SetupStats setup;
  auto st = setup_stack(process_start_ns, log, setup, nullptr);
  log.clear();
  sim::Machine& m = *st->machine;

  // Every kernel's footprint is 12 MiB (2.4x the 5 MB slice).  The seed
  // draws array placement and the shape of the two strided traversals; the
  // number of line touches is the same for every seed.
  std::mt19937_64 rng(opt.seed);
  constexpr std::uint64_t kMiB = 1ull << 20;
  const std::uint64_t n6 = 6 * kMiB / 8;    // DOT / copy arrays: 6 MiB each
  const std::uint64_t n4 = 4 * kMiB / 8;    // strided copy arrays: 4 MiB each
  const std::uint64_t n12 = 12 * kMiB / 8;  // Stride-N matrix: 12 MiB
  const std::uint64_t rows4 = std::uint64_t{512} << (rng() % 3);       // 512..2048
  const std::uint64_t rows12 = std::uint64_t{768} << (rng() % 2);      // 768/1536
  auto& as = m.address_space();
  const std::uint64_t x = allocate_padded(as, n6 * 8, rng);
  const std::uint64_t y = allocate_padded(as, n6 * 8, rng);
  const std::uint64_t cx = allocate_padded(as, n4 * 8, rng);
  const std::uint64_t cy = allocate_padded(as, n4 * 8, rng);
  const std::uint64_t cz = allocate_padded(as, n4 * 8, rng);
  const std::uint64_t mat = allocate_padded(as, n12 * 8, rng);
  out.notes.push_back("inputs: strided-copy rows=" + std::to_string(rows4) +
                      " stride-N rows=" + std::to_string(rows12));

  ReplayRun run(opt, *st, log, out);
  // Each measurement sweeps its arrays twice: on a lone core the second
  // sweep finds the first one's cast-outs in the victim store.
  using Body = std::function<void(std::uint32_t core, sim::AccessEngine&)>;
  const auto twice = [&m, &log](Body body, Shape* second) {
    return [&m, &log, body, second](std::uint32_t core) {
      const Scope span(log, Op::Kernel);
      sim::AccessEngine& eng = m.engine(0, core);
      body(core, eng);
      const sim::CoreCounters c0 = eng.counters();
      body(core, eng);
      if (log.enabled()) second->add(c0, eng.counters());
    };
  };
  using sim::AccessKind;
  std::vector<std::pair<std::string, Body>> kernels_list = {
      {"dot", [&m, x, y](std::uint32_t core, sim::AccessEngine&) {
         kernels::run_dot(m, 0, core, n6, x, y);
       }},
      {"copy",
       [=](std::uint32_t, sim::AccessEngine& eng) {
         sim::LoopDesc l;
         l.iterations = n6;
         l.streams = {{x, 8, 8, AccessKind::Load}, {y, 8, 8, AccessKind::Store}};
         eng.execute(l);
       }},
      {"strided_copy",
       // z[j][i] = x[j][i] + y[i][j]: the strided y load forces the store
       // stream to write-allocate, so the flush writes dirty lines back.
       [=](std::uint32_t, sim::AccessEngine& eng) {
         const std::uint64_t cols = n4 / rows4;
         sim::LoopDesc l;
         l.iterations = rows4;
         l.flops_per_iter = 1.0;
         for (std::uint64_t j = 0; j < cols; ++j) {
           l.streams = {{cx + j * rows4 * 8, 8, 8, AccessKind::Load},
                        {cy + j * 8, static_cast<std::int64_t>(cols * 8), 8,
                         AccessKind::Load},
                        {cz + j * rows4 * 8, 8, 8, AccessKind::Store}};
           eng.execute(l);
         }
       }},
      {"stride_n",
       [=](std::uint32_t, sim::AccessEngine& eng) {
         const std::uint64_t cols = n12 / rows12;
         sim::LoopDesc l;
         l.iterations = rows12;
         for (std::uint64_t j = 0; j < cols; ++j) {
           l.streams = {{mat + j * 8, static_cast<std::int64_t>(cols * 8), 8,
                         AccessKind::Load}};
           eng.execute(l);
         }
       }},
  };

  for (const bool busy : {false, true}) {
    for (const auto& [name, body] : kernels_list) {
      Leg leg;
      leg.name = name + (busy ? "_socket" : "_lone");
      leg.kernel = twice(body, busy ? &run.busy_second : &run.lone_second);
      leg.opt.reps = 1;
      leg.opt.occupy_socket = busy;
      run.legs.push_back(leg);
    }
  }

  out.host_ref_start_s = host_reference_seconds();
  run_passes(opt, out, [&](PassResult& r) { run.pass(r); });
  CalibrationPattern pattern;
  pattern.hit_base = x;
  pattern.hit_bytes = 2 * kMiB;
  pattern.spill_base = x;
  pattern.spill_bytes = y + n6 * 8 - x;
  run.finish(setup, pattern);
  out.host_ref_end_s = host_reference_seconds();
  return out;
}

}  // namespace perfbench
