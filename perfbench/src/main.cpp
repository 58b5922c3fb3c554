// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--git-sha SHA] [--record PATH] [--spans PATH]
//
// Runs one workload for S seconds of timed passes and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.
#include <exception>
#include <iostream>
#include <string>

#include "bench.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload replay_hit|replay_spill|pcp_fanin"
               " --seed N --seconds S --trace 0|1 [--git-sha SHA]"
               " [--record PATH] [--spans PATH]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t process_start_ns = perfbench::host_ns();

  perfbench::Options opt;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--git-sha") {
        opt.git_sha = v;
      } else if (a == "--record") {
        opt.record_path = v;
      } else if (a == "--spans") {
        opt.spans_path = v;
      } else {
        return usage(("unknown argument " + a).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + a).c_str());
    }
  }
  if (!have_trace || opt.workload.empty() || !(opt.seconds > 0)) {
    return usage("--workload, --seconds and --trace are required");
  }

  try {
    perfbench::RunOutput out;
    if (opt.workload == "replay_hit") {
      out = perfbench::run_replay_hit(opt, process_start_ns);
    } else if (opt.workload == "replay_spill") {
      out = perfbench::run_replay_spill(opt, process_start_ns);
    } else if (opt.workload == "pcp_fanin") {
      out = perfbench::run_pcp_fanin(opt, process_start_ns);
    } else {
      return usage(("unknown workload " + opt.workload).c_str());
    }
    return perfbench::report(opt, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run aborted: " << e.what() << "\n";
    return 1;
  }
}
