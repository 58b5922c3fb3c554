#include <sys/wait.h>
#include <unistd.h>

#include <optional>
#include <stdexcept>

#include "analysis/span_report.hpp"
#include "bench.hpp"
#include "components/pcp_component.hpp"
#include "components/selfmon_component.hpp"
#include "host.hpp"
#include "pcp/pmns.hpp"
#include "trace/recorder.hpp"

namespace perfbench {

using namespace papisim;

namespace {

/// The harness question: how much locking did the simulator itself do.
constexpr const char* kHarnessEvents[] = {"selfmon:::l3.stripe_acquisitions"};

}  // namespace

Stack::Stack(SpanLog& log) {
  {
    const double rss0 = current_rss_mb();
    const Scope span(log, Op::MachineCtor);
    const std::uint64_t t0 = host_ns();
    machine = std::make_unique<sim::Machine>(sim::MachineConfig::summit());
    ctor_s = static_cast<double>(host_ns() - t0) / 1e9;
    ctor_rss_mb = current_rss_mb() - rss0;
  }
  machine->set_noise_enabled(false);
  measure_cpu = machine->config().cpus_per_socket() - 1;
  daemon = std::make_unique<pcp::Pmcd>(*machine);
  client = std::make_unique<pcp::PcpClient>(*daemon, *machine,
                                            machine->user_credentials());
  lib = std::make_unique<Library>();
  lib->register_component(std::make_unique<components::PcpComponent>(*client));
  lib->register_component(std::make_unique<components::SelfmonComponent>());
  runner = std::make_unique<kernels::KernelRunner>(*machine, *lib, "pcp",
                                                   measure_cpu);

  traffic = lib->create_eventset();
  for (const std::string& name : runner->event_names()) traffic->add_event(name);
  harness = lib->create_eventset();
  for (const char* name : kHarnessEvents) harness->add_event(name);

  for (const nest::NestEventKind kind :
       {nest::NestEventKind::ReadBytes, nest::NestEventKind::WriteBytes}) {
    for (std::uint32_t ch = 0; ch < machine->config().mem_channels; ++ch) {
      metric_names.push_back(pcp::Pmns::metric_name(ch, kind));
    }
  }
  for (const std::string& name : metric_names) {
    const auto pmid = client->lookup(name);
    if (!pmid) throw std::runtime_error("perfbench: unknown PCP metric " + name);
    pmids.push_back(*pmid);
  }
}

ChannelSnapshot Stack::channels() const {
  return machine->memctrl(0).snapshot();
}

void Stack::attach_spe(bool on) {
  const std::uint32_t cps = machine->cores_per_socket();
  for (std::uint32_t s = 0; s < machine->sockets(); ++s) {
    for (std::uint32_t c = 0; c < cps; ++c) {
      machine->engine(s, c).set_spe(on && spe ? &spe->core_sampler(s * cps + c)
                                               : nullptr);
    }
  }
}

void fetch_loop(pcp::PcpClient& client, const std::vector<pcp::PmId>& pmids,
                std::uint32_t cpu, int fetches, FetchClientState& state,
                SpanLog& log, PassResult& r, OpCount& ops) {
  r.fetch_us.reserve(r.fetch_us.size() + static_cast<std::size_t>(fetches));
  const std::uint64_t window0 = host_ns();
  for (int i = 0; i < fetches; ++i) {
    try {
      const std::uint64_t t0 = host_ns();
      pcp::FetchReply reply;
      {
        const Scope span(log, Op::Fetch);
        reply = client.fetch(pmids, cpu);
      }
      r.fetch_us.push_back(static_cast<double>(host_ns() - t0) / 1e3);
      bool good = reply.ok && reply.values.size() == pmids.size();
      if (good && reply.generation == state.generation) {
        for (std::size_t k = 0; k < pmids.size(); ++k) {
          good = good && reply.values[k] >= state.last[k];
        }
      }
      if (good) {
        state.generation = reply.generation;
        state.last = reply.values;
        ++r.fetches_ok;
        ops.ok();
      } else {
        ops.fail(reply.ok ? "fetch values went backwards" : "fetch: " + reply.error);
      }
    } catch (const std::exception& e) {
      ops.fail(std::string("fetch threw: ") + e.what());
    }
  }
  r.fetch_window_s += static_cast<double>(host_ns() - window0) / 1e9;
}

void pmns_traversal(pcp::PcpClient& client, SpanLog& log, PassResult& r,
                    OpCount& ops) {
  const Scope root(log, Op::Traversal);
  try {
    std::vector<std::string> names;
    {
      const Scope span(log, Op::NamesUnder);
      names = client.names_under("");
    }
    ops.check(!names.empty(), "names_under returned no names");
    for (const std::string& name : names) {
      const std::uint64_t t0 = host_ns();
      std::optional<pcp::PmId> pmid;
      {
        const Scope span(log, Op::Lookup);
        pmid = client.lookup(name);
      }
      r.lookup_us.push_back(static_cast<double>(host_ns() - t0) / 1e3);
      ops.check(pmid.has_value(), "lookup failed: " + name);
    }
  } catch (const std::exception& e) {
    ops.fail(std::string("PMNS traversal threw: ") + e.what());
  }
}

void Series::add(const std::string& name, const std::string& unit, double v) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.values.push_back(v);
      return;
    }
  }
  entries_.push_back({name, unit, {v}});
}

void Series::emit_medians(std::vector<Metric>& out) const {
  for (const Entry& e : entries_) out.push_back({e.name, median(e.values), e.unit});
}

PmcdCounters PmcdCounters::of(const pcp::Pmcd& d) {
  return {d.requests_served(), d.coalesced(), d.cache_hits(), d.cache_misses()};
}

PassFrame::PassFrame(Stack& st, SpanLog& log, bool traced)
    : st_(st),
      log_(log),
      traced_(traced),
      pmcd0_(PmcdCounters::of(*st.daemon)),
      dropped0_(trace::dropped()) {
  trace::drain();
  log_.set_enabled(traced);
  log_.clear();
}

void PassFrame::open() {
  {
    const Scope s(log_, Op::EventSetStart);
    st_.traffic->start();
    st_.harness->start();
  }
  ch0_ = st_.channels();
}

void PassFrame::close() {
  ch1_ = st_.channels();
  {
    const Scope s(log_, Op::EventSetRead);
    traffic_ = st_.traffic->read();
    harness_ = st_.harness->read();
  }
  const Scope s(log_, Op::EventSetStop);
  st_.traffic->stop();
  st_.harness->stop();
}

void PassFrame::drain() {
  std::vector<trace::Span> s = trace::drain();
  if (traced_) program_spans_.insert(program_spans_.end(), s.begin(), s.end());
}

Traffic PassFrame::pcp_traffic() const {
  Traffic t;
  const std::size_t half = traffic_.size() / 2;
  for (std::size_t k = 0; k < traffic_.size(); ++k) {
    (k < half ? t.read : t.write) += static_cast<std::uint64_t>(traffic_[k]);
  }
  return t;
}

namespace {

double ratio(std::uint64_t part, std::uint64_t base) {
  return base == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(base);
}

}  // namespace

SelfTimes PassFrame::finish_traced(Series& layers, RunOutput& out,
                                   const std::vector<SpanLog>& client_logs) {
  out.trace_dropped += trace::dropped() - dropped0_;
  drain();

  const PmcdCounters pmcd1 = PmcdCounters::of(*st_.daemon);
  const std::uint64_t served = pmcd1.served - pmcd0_.served;
  const std::uint64_t hits = pmcd1.cache_hits - pmcd0_.cache_hits;
  const std::uint64_t lookups = hits + pmcd1.cache_misses - pmcd0_.cache_misses;
  layers.add("pcp.requests", "count", static_cast<double>(served));
  layers.add("pcp.coalesced_share", "ratio",
             ratio(pmcd1.coalesced - pmcd0_.coalesced, served));
  layers.add("pcp.cache_lookups", "count", static_cast<double>(lookups));
  layers.add("pcp.cache_hit_share", "ratio", ratio(hits, lookups));

  analysis::SpanDump dump;
  dump.reason = "drain";
  dump.spans = std::move(program_spans_);
  const analysis::CriticalPath cp = analysis::critical_path(dump);
  const auto stage_ms = [&](trace::Stage stage) {
    for (const auto& row : cp.rpc_stages) {
      if (row.stage == stage) return static_cast<double>(row.self_ns) / 1e6;
    }
    return 0.0;
  };
  layers.add("pcp.self_ms.admission", "ms", stage_ms(trace::Stage::Admission));
  layers.add("pcp.self_ms.queue_wait", "ms", stage_ms(trace::Stage::QueueWait));
  layers.add("pcp.self_ms.service", "ms", stage_ms(trace::Stage::Service));
  layers.add("pcp.self_ms.counter_read", "ms", stage_ms(trace::Stage::CounterRead));
  out.replay_roots += cp.replay_roots;

  SelfTimes st;
  st.add(log_.spans());
  for (const SpanLog& l : client_logs) st.add(l.spans());
  const auto per_call_us = [&](Op op) {
    const auto i = static_cast<std::size_t>(op);
    return st.count[i] == 0 ? 0.0
                            : static_cast<double>(st.total_ns[i]) / 1e3 /
                                  static_cast<double>(st.count[i]);
  };
  layers.add("core.eventset_start_us", "us", per_call_us(Op::EventSetStart));
  layers.add("core.eventset_read_us", "us", per_call_us(Op::EventSetRead));
  layers.add("core.eventset_stop_us", "us", per_call_us(Op::EventSetStop));
  for (const char* layer : {"sim", "kernels", "core", "pcp", "spe", "bench"}) {
    layers.add(std::string("bench.self_ms.") + layer, "ms", st.layer_self_ms(layer));
  }
  layers.add("bench.unattributed_share", "ratio", st.unattributed_share());

  for (const BenchSpan& s : log_.spans()) {
    if (out.spans.size() < (1u << 20)) out.spans.push_back(s);
  }
  out.spans_rejected += log_.rejected();
  for (const SpanLog& l : client_logs) out.spans_rejected += l.rejected();
  return st;
}

std::unique_ptr<Stack> setup_stack(std::uint64_t process_start_ns, SpanLog& log,
                                   SetupStats& stats, void (*extra)(Stack&)) {
  struct Times {
    double setup_s, ctor_s, ctor_rss_mb;
  };
  const auto build = [&](std::unique_ptr<Stack>& stack) {
    const std::uint64_t t0 = host_ns();
    stack = std::make_unique<Stack>(log);
    if (extra != nullptr) extra(*stack);
    return Times{static_cast<double>(host_ns() - t0) / 1e9, stack->ctor_s,
                 stack->ctor_rss_mb};
  };
  const auto keep = [&](const Times& t) {
    stats.setup_s.push_back(t.setup_s);
    stats.ctor_s.push_back(t.ctor_s);
    stats.ctor_rss_mb.push_back(t.ctor_rss_mb);
  };
  // All but the last set-up run in a child forked before any Machine or
  // thread exists, so each one pays what a fresh process pays (first-touch
  // page faults included) rather than reusing the previous Machine's heap.
  for (int i = 0; i + 1 < kSetups; ++i) {
    int fd[2];
    if (pipe(fd) != 0) throw std::runtime_error("perfbench: pipe failed");
    const pid_t pid = fork();
    if (pid < 0) throw std::runtime_error("perfbench: fork failed");
    if (pid == 0) {
      close(fd[0]);
      std::unique_ptr<Stack> stack;
      Times t{};
      try {
        t = build(stack);
      } catch (...) {
        _exit(1);
      }
      const bool sent = write(fd[1], &t, sizeof t) == static_cast<ssize_t>(sizeof t);
      _exit(sent ? 0 : 1);
    }
    close(fd[1]);
    Times t{};
    const bool got = read(fd[0], &t, sizeof t) == static_cast<ssize_t>(sizeof t);
    close(fd[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      throw std::runtime_error("perfbench: set-up failed in a child process");
    }
    if (i == 0) {
      stats.first_from_process_start_s =
          static_cast<double>(host_ns() - process_start_ns) / 1e9;
    }
    keep(t);
  }
  std::unique_ptr<Stack> stack;
  keep(build(stack));
  return stack;
}

}  // namespace perfbench
