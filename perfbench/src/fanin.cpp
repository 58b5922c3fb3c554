// pcp_fanin: a closed loop of PAPI processes against one PMCD.  pmFetch is
// synchronous, so each client issues its next fetch only when the previous
// reply arrived; load rises with the client count, not with a schedule.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <random>
#include <thread>

#include "bench.hpp"
#include "host.hpp"

namespace perfbench {

using namespace papisim;

namespace {

/// Fetches per pass, split across the clients: at least 1000 samples beyond
/// p99 in every pass.
constexpr int kFaninFetches = 120000;

std::uint32_t client_count() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

}  // namespace

RunOutput run_pcp_fanin(const Options& opt, std::uint64_t process_start_ns) {
  RunOutput out;
  SpanLog log(opt.trace);
  SetupStats setup;
  auto st = setup_stack(process_start_ns, log, setup,
                        [](Stack& s) {
                          for (std::uint32_t i = 0; i < client_count(); ++i) {
                            s.tenants.push_back(std::make_unique<pcp::PcpClient>(
                                *s.daemon, *s.machine, s.machine->user_credentials()));
                          }
                        });
  log.clear();

  // The seed draws the instance (a socket-0 hardware thread) every client
  // fetches: one fetch key, as when every process on a node asks for the
  // same socket's traffic.
  std::mt19937_64 rng(opt.seed);
  const std::uint32_t cpu =
      static_cast<std::uint32_t>(rng() % st->machine->config().cpus_per_socket());
  const std::uint32_t n = client_count();
  std::vector<FetchClientState> states(n);
  std::vector<SpanLog> client_logs(n, SpanLog(opt.trace));
  const int quota = kFaninFetches / static_cast<int>(n);
  out.notes.push_back("inputs: " + std::to_string(n) + " clients x " +
                      std::to_string(quota) + " fetches per pass of cpu" +
                      std::to_string(cpu));

  Series layers;
  const auto pass = [&](PassResult& r) {
    PassFrame frame(*st, log, r.traced);
    for (auto& l : client_logs) {
      l.set_enabled(r.traced);
      l.clear();
    }
    std::vector<PassResult> per_client(n);
    std::vector<OpCount> ops(n);

    const std::uint64_t t0 = host_ns();
    {
      const Scope pass_span(log, Op::FaninPass);
      frame.open();
      std::atomic<std::uint32_t> running{n};
      std::vector<std::thread> threads;
      threads.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        threads.emplace_back([&, i] {
          {
            const Scope loop(client_logs[i], Op::ClientLoop);
            fetch_loop(*st->tenants[i], st->pmids, cpu, quota, states[i],
                       client_logs[i], per_client[i], ops[i]);
          }
          running.fetch_sub(1, std::memory_order_release);
        });
      }
      // Every pass empties the program's span rings while the clients run:
      // each holds 8192 spans, a few milliseconds of fan-in.
      while (running.load(std::memory_order_acquire) != 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        frame.drain();
      }
      for (auto& t : threads) t.join();
      frame.close();
    }
    r.seconds = static_cast<double>(host_ns() - t0) / 1e9;

    for (std::uint32_t i = 0; i < n; ++i) {
      PassResult& c = per_client[i];
      r.fetch_us.insert(r.fetch_us.end(), c.fetch_us.begin(), c.fetch_us.end());
      r.fetches_ok += c.fetches_ok;
      out.ops.merge(ops[i]);
    }
    r.fetch_window_s = r.seconds;
    // No replay runs here: the traffic event set must read exactly zero.
    out.ops.check(frame.pcp_traffic() == Traffic{} && frame.direct_traffic() == Traffic{},
                  "fan-in pass moved memory traffic");
    pmns_traversal(*st->client, log, r, out.ops);

    if (r.traced) frame.finish_traced(layers, out, client_logs);
  };

  out.host_ref_start_s = host_reference_seconds();
  run_passes(opt, out, pass);
  add_end_to_end(setup, out);
  if (opt.trace) {
    add_common_per_layer(setup, *st->daemon, out);
    layers.emit_medians(out.per_layer);
  }
  out.host_ref_end_s = host_reference_seconds();
  return out;
}

}  // namespace perfbench
