// The benchmark's own spans: one around each public call it makes into a
// layer, kept in memory and written out when the run ends.  Spans nest per
// thread (a scope stack), so a span's self time is its duration minus the
// durations of its direct children on the same thread.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string_view>
#include <vector>

namespace perfbench {

/// What a span times.  The comment names the layer the call belongs to.
enum class Op : std::uint8_t {
  Pass,           ///< bench: one pass of a replay workload
  FaninPass,      ///< bench: main thread waiting for one fan-in pass
  ClientLoop,     ///< bench: one client's fetch loop (fan-in thread, replay control)
  Traversal,      ///< bench: the PMNS traversal step after a pass
  MachineCtor,    ///< sim: sim::Machine constructor
  Measure,        ///< kernels: KernelRunner::measure
  Kernel,         ///< sim: the benchmark's kernel callable (AccessEngine work)
  EventSetStart,  ///< core: EventSet::start
  EventSetRead,   ///< core: EventSet::read
  EventSetStop,   ///< core: EventSet::stop
  Fetch,          ///< pcp: PcpClient::fetch
  Lookup,         ///< pcp: PcpClient::lookup
  NamesUnder,     ///< pcp: PcpClient::names_under
  SpeDrain,       ///< spe: SpeCollector::drain
  kCount,
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

inline constexpr std::array<std::string_view, kNumOps> kOpNames = {
    "pass",          "fanin_pass",    "client_loop", "traversal",
    "machine_ctor",  "measure",       "kernel",      "eventset_start",
    "eventset_read", "eventset_stop", "fetch",       "lookup",
    "names_under",   "spe_drain"};

/// Layer a span's self time is charged to.
inline std::string_view layer_of(Op op) {
  switch (op) {
    case Op::Pass:
    case Op::FaninPass:
    case Op::ClientLoop:
    case Op::Traversal:
      return "bench";
    case Op::MachineCtor:
    case Op::Kernel:
      return "sim";
    case Op::Measure:
      return "kernels";
    case Op::EventSetStart:
    case Op::EventSetRead:
    case Op::EventSetStop:
      return "core";
    case Op::Fetch:
    case Op::Lookup:
    case Op::NamesUnder:
      return "pcp";
    case Op::SpeDrain:
      return "spe";
    case Op::kCount:
      break;
  }
  return "?";
}

inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct BenchSpan {
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t id = 0;      ///< index in its log + 1
  std::uint32_t parent = 0;  ///< same-thread parent id; 0 for a thread root
  Op op = Op::Pass;
  std::uint64_t dur() const { return t1 >= t0 ? t1 - t0 : 0; }
};

/// One thread's span log.  Not thread safe: each thread owns its own.
/// Disabled logs record nothing; a full log counts what it rejects.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 1u << 22;  ///< spans, 128 MiB

  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  const std::vector<BenchSpan>& spans() const { return spans_; }
  std::uint64_t rejected() const { return rejected_; }
  void clear() {
    spans_.clear();
    open_ = 0;
  }

  /// Opens a span; returns its id (0 when not recorded).
  std::uint32_t open(Op op) {
    if (!enabled_) return 0;
    if (spans_.size() >= kCapacity) {
      ++rejected_;
      return 0;
    }
    BenchSpan s;
    s.id = static_cast<std::uint32_t>(spans_.size() + 1);
    s.parent = open_;
    s.op = op;
    s.t0 = host_ns();
    spans_.push_back(s);
    open_ = s.id;
    return s.id;
  }
  void close(std::uint32_t id) {
    if (id == 0) return;
    BenchSpan& s = spans_[id - 1];
    s.t1 = host_ns();
    open_ = s.parent;
  }

 private:
  bool enabled_;
  std::vector<BenchSpan> spans_;
  std::uint32_t open_ = 0;
  std::uint64_t rejected_ = 0;
};

/// RAII span around one call.
class Scope {
 public:
  Scope(SpanLog& log, Op op) : log_(log), id_(log.open(op)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  std::uint32_t id_;
};

/// Self time per op, plus the share of traced wall time no layer span
/// covers (the self time of the pass / client-loop roots).
struct SelfTimes {
  std::array<std::uint64_t, kNumOps> self_ns{};
  std::array<std::uint64_t, kNumOps> total_ns{};
  std::array<std::uint64_t, kNumOps> count{};
  std::uint64_t root_ns = 0;          ///< wall time covered by thread roots
  std::uint64_t unattributed_ns = 0;  ///< root self time

  void add(const std::vector<BenchSpan>& spans) {
    std::vector<std::uint64_t> child_ns(spans.size() + 1, 0);
    for (const BenchSpan& s : spans) {
      if (s.parent != 0) child_ns[s.parent] += s.dur();
    }
    for (const BenchSpan& s : spans) {
      const auto i = static_cast<std::size_t>(s.op);
      const std::uint64_t c = child_ns[s.id];
      const std::uint64_t self = s.dur() > c ? s.dur() - c : 0;
      self_ns[i] += self;
      total_ns[i] += s.dur();
      ++count[i];
      // The fan-in main thread only waits for its clients; their loops are
      // the roots whose wall time the layers must explain.
      if (s.parent == 0 && s.op != Op::FaninPass) {
        root_ns += s.dur();
        unattributed_ns += self;
      }
    }
  }

  double layer_self_ms(std::string_view layer) const {
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < kNumOps; ++i) {
      if (static_cast<Op>(i) == Op::FaninPass) continue;
      if (layer_of(static_cast<Op>(i)) == layer) ns += self_ns[i];
    }
    return static_cast<double>(ns) / 1e6;
  }
  double unattributed_share() const {
    return root_ns == 0 ? 0.0
                        : static_cast<double>(unattributed_ns) /
                              static_cast<double>(root_ns);
  }
};

}  // namespace perfbench
