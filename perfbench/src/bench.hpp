// perfbench: the repository benchmark.  Drives the public API of sim,
// kernels, core/components, pcp, spe, selfmon and trace from outside, the way
// a PAPI user's program would, and reports end-to-end and per-layer metrics.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/library.hpp"
#include "kernels/runner.hpp"
#include "pcp/client.hpp"
#include "pcp/pmcd.hpp"
#include "sim/machine.hpp"
#include "spans.hpp"
#include "spe/collector.hpp"
#include "stats.hpp"
#include "trace/span.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string git_sha;
  std::string record_path;  ///< per-run record (host stamp, passes, checks)
  std::string spans_path;   ///< span dump of a traced run
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The software stack a Summit user builds: machine, PMCD, one PCP client,
/// the library with the pcp and selfmon components, a KernelRunner on the
/// "pcp" route, and the benchmark's own two named event sets (one question
/// each, as in SimpleMOC's papi.c): "traffic" holds the 16 MBA read/write
/// events, "harness" the selfmon count of L3 stripe-lock acquisitions.
struct Stack {
  /// Builds everything and resolves every event name.  The Machine
  /// constructor is timed into `ctor_s` and recorded in `log`.
  explicit Stack(SpanLog& log);

  /// Socket-0 hardware thread named in the event qualifiers (cpu87).
  std::uint32_t measure_cpu = 0;
  double ctor_s = 0;       ///< sim::Machine constructor, host seconds
  double ctor_rss_mb = 0;  ///< resident set added by the constructor

  std::unique_ptr<papisim::sim::Machine> machine;
  std::unique_ptr<papisim::spe::SpeCollector> spe;  ///< replay_hit only
  std::unique_ptr<papisim::pcp::Pmcd> daemon;
  std::unique_ptr<papisim::pcp::PcpClient> client;
  /// Extra tenants of the fan-in workload, one per client thread.
  std::vector<std::unique_ptr<papisim::pcp::PcpClient>> tenants;
  std::unique_ptr<papisim::Library> lib;
  std::unique_ptr<papisim::kernels::KernelRunner> runner;
  std::unique_ptr<papisim::EventSet> traffic;
  std::unique_ptr<papisim::EventSet> harness;
  std::vector<std::string> metric_names;  ///< the 16 MBA PMNS names
  std::vector<papisim::pcp::PmId> pmids;  ///< resolved by `client`

  ChannelSnapshot channels() const;
  /// Attach (true) or detach the SPE samplers on every core.
  void attach_spe(bool on);
};

/// Set-up statistics across the repeated set-ups of one run.
struct SetupStats {
  std::vector<double> setup_s;
  std::vector<double> ctor_s;
  std::vector<double> ctor_rss_mb;
  /// Process start to the end of the first set-up: recorded beside the
  /// median, not in it, since it also pays for loading the program.
  double first_from_process_start_s = 0;
};

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 9;

/// Build the stack kSetups times and keep the last; the others are built in
/// forked children, each like a fresh process.  Each set-up is timed from its
/// own start.  `extra` adds the workload's own set-up to each stack.
std::unique_ptr<Stack> setup_stack(std::uint64_t process_start_ns, SpanLog& log,
                                   SetupStats& stats, void (*extra)(Stack&));

/// One pass's figures; which fields are filled depends on the workload.
struct PassResult {
  double seconds = 0;
  bool traced = false;
  std::vector<double> fetch_us;  ///< client-visible PcpClient::fetch latency
  std::vector<double> lookup_us;
  std::uint64_t fetches_ok = 0;
  double fetch_window_s = 0;     ///< wall time the fetches were issued over
  /// Set by reduce(): fetch p50/p99 (when at least 10 samples lie beyond)
  /// and the median lookup latency.
  std::optional<double> fetch_p50_us, fetch_p99_us, lookup_median_us;

  /// Reduces the samples to the figures above and drops them, so a run's
  /// memory does not grow with its pass count.
  void reduce() {
    const auto pct = [&](double q) -> std::optional<double> {
      if (samples_beyond(fetch_us.size(), q) < 10) return std::nullopt;
      return quantile(fetch_us, q);
    };
    fetch_p50_us = pct(0.5);
    fetch_p99_us = pct(0.99);
    if (!lookup_us.empty()) lookup_median_us = median(lookup_us);
    std::vector<double>().swap(fetch_us);
    std::vector<double>().swap(lookup_us);
  }
};

/// One PCP client's view across passes: the reply checks need the last
/// values seen in the current daemon generation.
struct FetchClientState {
  std::uint64_t generation = 0;
  std::vector<std::uint64_t> last;
};

/// Issues `fetches` PcpClient::fetch calls of `pmids` for instance `cpu`.
/// Each reply must be ok with values non-decreasing within one generation;
/// a bad reply or a throw (Overloaded, Timeout, ...) counts as a failed
/// operation.  Latencies go to `r`, spans to `log`.
void fetch_loop(papisim::pcp::PcpClient& client,
                const std::vector<papisim::pcp::PmId>& pmids, std::uint32_t cpu,
                int fetches, FetchClientState& state, SpanLog& log, PassResult& r,
                OpCount& ops);

/// The lookups one PcpComponent set-up makes: names_under("") and a lookup
/// of every name it returns.  Each lookup must resolve; its latency goes to
/// `r`.  A separate step, outside the timed pass.
void pmns_traversal(papisim::pcp::PcpClient& client, SpanLog& log, PassResult& r,
                    OpCount& ops);

/// Everything a run reports.
struct RunOutput {
  OpCount ops;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<PassResult> passes;  ///< timed passes (warm-up excluded)
  std::vector<std::string> notes;  ///< workload shape, one line each
  double host_ref_start_s = 0;
  double host_ref_end_s = 0;
  std::vector<BenchSpan> spans;    ///< traced passes, main thread
  std::uint64_t spans_rejected = 0;
  std::uint64_t trace_dropped = 0;  ///< program spans its rings rejected, traced passes
  std::uint64_t replay_roots = 0;   ///< program replay traces, traced passes
};

/// Per-pass values of named metrics, reduced to their median across passes.
class Series {
 public:
  void add(const std::string& name, const std::string& unit, double v);
  /// Appends the median of every series, in first-added order.
  void emit_medians(std::vector<Metric>& out) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    std::vector<double> values;
  };
  std::vector<Entry> entries_;
};

/// PMCD accessor counts at one instant; the difference of two is one pass.
struct PmcdCounters {
  std::uint64_t served = 0, coalesced = 0, cache_hits = 0, cache_misses = 0;
  static PmcdCounters of(const papisim::pcp::Pmcd& d);
};

/// The skeleton every pass shares.  Construction is the untimed prologue:
/// it empties the program's span rings, so traced and untraced passes record
/// spans under the same ring state, resets the benchmark's span log and
/// snapshots the PMCD and ring-drop counters.  open() and close() bracket the
/// timed body: the two named event sets start before it and are read and
/// stopped after it, with MemController snapshots beside them.
class PassFrame {
 public:
  PassFrame(Stack& st, SpanLog& log, bool traced);

  void open();
  void close();
  /// Empties the program's per-thread span rings (8192 spans each), keeping
  /// the spans in a traced pass.  Both pass kinds call it at the same points.
  void drain();

  /// Bytes read through the traffic event set (8 read channels, then 8
  /// write channels) and straight from the MemController, open to close.
  Traffic pcp_traffic() const;
  Traffic direct_traffic() const { return direct_delta(ch0_, ch1_); }
  const std::vector<long long>& harness() const { return harness_; }

  /// A traced pass's per-layer figures every workload shares, added to
  /// `layers`: pcp.requests (base), pcp.coalesced_share, pcp.cache_lookups
  /// (base) and pcp.cache_hit_share from the PMCD counters;
  /// pcp.self_ms.{admission,queue_wait,service,counter_read} from the spans
  /// the program records itself, through the analysis span-report API;
  /// core.eventset_*_us, bench.self_ms.<layer> and bench.unattributed_share
  /// from the benchmark's spans (this thread's log plus `client_logs`).
  /// Adds the drop and replay-root counts and the spans to `out`; returns
  /// the self times for the workload's own figures.
  SelfTimes finish_traced(Series& layers, RunOutput& out,
                          const std::vector<SpanLog>& client_logs = {});

 private:
  Stack& st_;
  SpanLog& log_;
  bool traced_;
  PmcdCounters pmcd0_;
  std::uint64_t dropped0_;
  std::vector<papisim::trace::Span> program_spans_;
  ChannelSnapshot ch0_, ch1_;
  std::vector<long long> traffic_, harness_;
};

/// Runs `pass` until `seconds` of timed passes have elapsed (at least
/// kMinPasses), after one untimed warm-up pass.  The pass times itself
/// (PassResult::seconds) so its untimed bookkeeping stays out of pass_s.  In
/// a traced run, passes alternate traced / untraced so the tracing overhead
/// is measured inside one process.
inline constexpr int kMinPasses = 6;
template <typename PassFn>
void run_passes(const Options& opt, RunOutput& out, PassFn&& pass) {
  PassResult warm;
  pass(warm);
  const std::uint64_t t_start = host_ns();
  for (int k = 0;; ++k) {
    const double elapsed = static_cast<double>(host_ns() - t_start) / 1e9;
    if (k >= kMinPasses && elapsed >= opt.seconds) break;
    PassResult r;
    r.traced = opt.trace && (k % 2 == 0);
    pass(r);
    r.reduce();
    out.passes.push_back(std::move(r));
  }
}

/// End-to-end metrics every workload reports: set-up, memory, pass time and
/// client-visible fetch latency and rate.
void add_end_to_end(const SetupStats& setup, RunOutput& out);

/// Per-layer metrics shared by every workload: set-up layers, fetch and
/// lookup latency of the traced passes, tracing overhead, the PMCD's shed
/// and restart counts over the run, and the program's span drops and
/// replay roots.
void add_common_per_layer(const SetupStats& setup, const papisim::pcp::Pmcd& daemon,
                          RunOutput& out);

/// Per-call simulator costs on the workload's own Machine and address
/// pattern (traced runs only): CacheLevel::access hit/miss,
/// L3Fabric::load_line/store_line by Source, Machine::flush_socket.
struct CalibrationPattern {
  std::uint64_t hit_base = 0;    ///< a region that fits the 5 MB slice
  std::uint64_t hit_bytes = 0;
  std::uint64_t spill_base = 0;  ///< a region 2x or more the slice
  std::uint64_t spill_bytes = 0;
};
void calibrate_sim(papisim::sim::Machine& machine, const CalibrationPattern& p,
                   RunOutput& out);

RunOutput run_replay_hit(const Options& opt, std::uint64_t process_start_ns);
RunOutput run_replay_spill(const Options& opt, std::uint64_t process_start_ns);
RunOutput run_pcp_fanin(const Options& opt, std::uint64_t process_start_ns);

/// Prints the human-readable summary, writes the record and span dump, and
/// prints the final one-line JSON result.  Returns the process exit code.
int report(const Options& opt, const RunOutput& out);

}  // namespace perfbench
