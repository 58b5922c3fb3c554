// Metric reduction and output: the human-readable summary, the per-run
// record (host stamp, drift probe, pass quartiles, checks), the span dump,
// and the final one-line JSON result.
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench.hpp"
#include "core/json_util.hpp"
#include "host.hpp"

namespace perfbench {

using papisim::JsonWriter;

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by untraced runs (every workload prints
/// every one; see README.md for what each means on each workload).  The
/// fetch p99 is recorded in the notes instead: on the replay workloads'
/// single-client control it spread 19-28% across runs on a 4-vCPU KVM guest,
/// beyond any bound the gate allows.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MB"},  {"pass_s", "s"},
    {"fetch_p50_us", "us"}, {"fetches_per_s", "1/s"},
};

/// Per-layer metrics, printed by traced runs.  A layer a workload does not
/// exercise reads 0 there (e.g. kernels.* on pcp_fanin).
constexpr MetricSpec kPerLayer[] = {
    {"sim.machine_ctor_s", "s"},
    {"sim.machine_rss_mb", "MB"},
    {"sim.touches_per_s", "1/s"},
    {"sim.slice_hit_share", "ratio"},
    {"sim.victim_hit_share", "ratio"},
    {"sim.memory_share", "ratio"},
    {"sim.lone_victim_share", "ratio"},
    {"sim.busy_memory_share", "ratio"},
    {"sim.retention_misses", "count"},
    {"sim.cache_hit_ns", "ns"},
    {"sim.cache_miss_ns", "ns"},
    {"sim.l3_ns.slice", "ns"},
    {"sim.l3_ns.victim", "ns"},
    {"sim.l3_ns.memory", "ns"},
    {"sim.flush_ms", "ms"},
    {"sim.mem_read_bytes", "bytes"},
    {"sim.mem_write_bytes", "bytes"},
    {"kernels.measure_ms", "ms"},
    {"kernels.kernel_ms", "ms"},
    {"kernels.overhead_ms", "ms"},
    {"kernels.reps_replayed", "count"},
    {"kernels.reps_extrapolated", "count"},
    {"kernels.resample_fallbacks", "count"},
    {"core.eventset_start_us", "us"},
    {"core.eventset_read_us", "us"},
    {"core.eventset_stop_us", "us"},
    {"pcp.fetch_us.p50", "us"},
    {"pcp.fetch_us.p99", "us"},
    {"pcp.lookup_us", "us"},
    {"pcp.requests", "count"},
    {"pcp.coalesced_share", "ratio"},
    {"pcp.cache_lookups", "count"},
    {"pcp.cache_hit_share", "ratio"},
    {"pcp.shed", "count"},
    {"pcp.restarts", "count"},
    {"pcp.self_ms.admission", "ms"},
    {"pcp.self_ms.queue_wait", "ms"},
    {"pcp.self_ms.service", "ms"},
    {"pcp.self_ms.counter_read", "ms"},
    {"selfmon.l3_stripe_acquisitions", "count"},
    {"spe.samples", "count"},
    {"spe.drops", "count"},
    {"spe.drain_ms", "ms"},
    {"trace.spans_dropped", "count"},
    {"trace.replay_roots", "count"},
    {"bench.self_ms.sim", "ms"},
    {"bench.self_ms.kernels", "ms"},
    {"bench.self_ms.core", "ms"},
    {"bench.self_ms.pcp", "ms"},
    {"bench.self_ms.spe", "ms"},
    {"bench.self_ms.bench", "ms"},
    {"bench.unattributed_share", "ratio"},
    {"bench.trace_overhead_pct", "%"},
};

/// Median across passes of a per-pass figure, over the passes that have it.
double median_of(const std::vector<const PassResult*>& passes,
                 std::optional<double> PassResult::*field) {
  std::vector<double> v;
  for (const PassResult* p : passes) {
    if (p->*field) v.push_back(*(p->*field));
  }
  return median(v);
}

std::vector<const PassResult*> select(const RunOutput& out, bool traced) {
  std::vector<const PassResult*> v;
  for (const PassResult& p : out.passes) {
    if (p.traced == traced) v.push_back(&p);
  }
  return v;
}

std::vector<double> pass_seconds(const std::vector<const PassResult*>& passes) {
  std::vector<double> v;
  for (const PassResult* p : passes) v.push_back(p->seconds);
  return v;
}

const Metric* find(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void write_summary(JsonWriter& w, const Summary& s) {
  w.begin_object()
      .kv("n", s.n)
      .kv("median", s.median)
      .kv("q1", s.q1)
      .kv("q3", s.q3)
      .kv("tail_q", s.tail_q)
      .kv("tail", s.tail)
      .end_object();
}

}  // namespace

void add_end_to_end(const SetupStats& setup, RunOutput& out) {
  const auto passes = select(out, false);
  std::vector<double> rate;
  for (const PassResult* p : passes) {
    if (p->fetch_window_s > 0) {
      rate.push_back(static_cast<double>(p->fetches_ok) / p->fetch_window_s);
    }
  }
  auto& e = out.end_to_end;
  e.push_back({"setup_s", median(setup.setup_s), "s"});
  std::ostringstream note;
  note << "set-up: " << setup.setup_s.size() << " set-ups, s:";
  for (const double v : setup.setup_s) note << " " << v;
  note << "; process start to end of the first: "
       << setup.first_from_process_start_s << " s";
  out.notes.push_back(note.str());
  e.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  e.push_back({"pass_s", median(pass_seconds(passes)), "s"});
  e.push_back({"fetch_p50_us", median_of(passes, &PassResult::fetch_p50_us), "us"});
  e.push_back({"fetches_per_s", median(rate), "1/s"});
  out.notes.push_back("fetch p99 (median across passes, not an end-to-end metric): " +
                      std::to_string(median_of(passes, &PassResult::fetch_p99_us)) +
                      " us");
}

void add_common_per_layer(const SetupStats& setup, const papisim::pcp::Pmcd& daemon,
                          RunOutput& out) {
  const auto traced = select(out, true);
  const auto untraced = select(out, false);
  const double plain = median(pass_seconds(untraced));
  auto& pl = out.per_layer;
  pl.push_back({"sim.machine_ctor_s", median(setup.ctor_s), "s"});
  // The first constructor's resident set: later ones may reuse pages the
  // allocator kept from the previous Machine.
  pl.push_back({"sim.machine_rss_mb", setup.ctor_rss_mb.front(), "MB"});
  pl.push_back({"pcp.fetch_us.p50", median_of(traced, &PassResult::fetch_p50_us), "us"});
  pl.push_back({"pcp.fetch_us.p99", median_of(traced, &PassResult::fetch_p99_us), "us"});
  pl.push_back({"pcp.lookup_us", median_of(traced, &PassResult::lookup_median_us), "us"});
  pl.push_back({"pcp.shed", static_cast<double>(daemon.shed()), "count"});
  pl.push_back({"pcp.restarts", static_cast<double>(daemon.restarts()), "count"});
  pl.push_back({"trace.spans_dropped", static_cast<double>(out.trace_dropped), "count"});
  pl.push_back({"trace.replay_roots", static_cast<double>(out.replay_roots), "count"});
  pl.push_back({"bench.trace_overhead_pct",
                plain > 0 ? 100.0 * (median(pass_seconds(traced)) / plain - 1.0) : 0.0,
                "%"});
}

int report(const Options& opt, const RunOutput& out) {
  const HostStamp host = host_stamp(opt.git_sha);
  const Summary pass = summarize(pass_seconds(select(out, false)));

  // The metrics this run prints, in canonical order.
  std::vector<Metric> metrics;
  const std::vector<Metric>& source = opt.trace ? out.per_layer : out.end_to_end;
  const auto emit = [&](const MetricSpec& spec) {
    const Metric* m = find(source, spec.name);
    metrics.push_back({spec.name, m != nullptr ? m->value : 0.0, spec.unit});
  };
  if (opt.trace) {
    for (const MetricSpec& s : kPerLayer) emit(s);
  } else {
    for (const MetricSpec& s : kEndToEnd) emit(s);
  }
  const bool correct = out.ops.failed == 0 && out.ops.attempted > 0;

  // Human-readable summary.
  std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
            << " trace=" << (opt.trace ? 1 : 0) << "\n"
            << "host: nproc=" << host.nproc << " cpu=\"" << host.cpu_model
            << "\" compiler=\"" << host.compiler << "\" build=" << host.build_type
            << " sha=" << host.git_sha << "\n"
            << std::setprecision(6) << "host reference loop: start "
            << out.host_ref_start_s << " s, end " << out.host_ref_end_s << " s\n"
            << "passes: " << out.passes.size() << " timed (" << pass.n
            << " untraced); pass_s median " << pass.median << " q1 " << pass.q1 << " q3 "
            << pass.q3 << " tail p" << pass.tail_q * 100 << " " << pass.tail
            << " (tail: highest percentile with 10 passes beyond it)\n";
  for (const std::string& note : out.notes) std::cout << note << "\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(34) << m.name << std::right
              << std::setw(16) << m.value << " " << m.unit << "\n";
  }
  std::cout << "operations: " << out.ops.attempted << " attempted, " << out.ops.failed
            << " failed (share " << out.ops.failed_share() << ")\n";
  for (const std::string& f : out.ops.first_failures) std::cout << "  FAILED: " << f << "\n";

  if (!opt.record_path.empty()) {
    std::ofstream f(opt.record_path);
    JsonWriter w(f);
    w.begin_object()
        .kv("workload", opt.workload)
        .kv("seed", opt.seed)
        .kv("trace", opt.trace)
        .key("host")
        .begin_object()
        .kv("nproc", host.nproc)
        .kv("cpu_model", host.cpu_model)
        .kv("compiler", host.compiler)
        .kv("build_type", host.build_type)
        .kv("git_sha", host.git_sha)
        .end_object()
        .key("host_reference_s")
        .begin_object()
        .kv("start", out.host_ref_start_s)
        .kv("end", out.host_ref_end_s)
        .end_object();
    w.key("pass_s");
    write_summary(w, pass);
    w.key("passes").begin_array();
    for (const PassResult& p : out.passes) {
      w.begin_object().kv("seconds", p.seconds).kv("traced", p.traced).end_object();
    }
    w.end_array();
    w.key("metrics").begin_object();
    for (const auto* list : {&out.end_to_end, &out.per_layer}) {
      for (const Metric& m : *list) {
        w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
      }
    }
    w.end_object();
    w.key("notes").begin_array();
    for (const std::string& n : out.notes) w.value(n);
    w.end_array();
    w.kv("attempted", out.ops.attempted).kv("failed", out.ops.failed);
    w.key("failures").begin_array();
    for (const std::string& n : out.ops.first_failures) w.value(n);
    w.end_array().end_object();
    f << "\n";
  }

  if (opt.trace && !opt.spans_path.empty()) {
    std::ofstream f(opt.spans_path);
    JsonWriter w(f);
    w.begin_object().kv("rejected", out.spans_rejected).key("spans").begin_array();
    for (const BenchSpan& s : out.spans) {
      w.begin_object()
          .kv("id", s.id)
          .kv("parent", s.parent)
          .kv("op", kOpNames[static_cast<std::size_t>(s.op)])
          .kv("layer", layer_of(s.op))
          .kv("t0_ns", s.t0)
          .kv("t1_ns", s.t1)
          .end_object();
    }
    w.end_array().end_object();
    f << "\n";
  }

  std::ostringstream line;
  JsonWriter w(line);
  w.begin_object()
      .kv("correct", correct)
      .kv("attempted", out.ops.attempted)
      .kv("failed", out.ops.failed)
      .key("metrics")
      .begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
  }
  w.end_object().end_object();
  std::cout << line.str() << std::endl;
  return 0;
}

}  // namespace perfbench
