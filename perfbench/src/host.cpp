#include "host.hpp"

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

namespace perfbench {

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

/// A /proc/self/status field in kB, converted to MB.
double status_mb(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stod(line.substr(field.size() + 1)) / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

HostStamp host_stamp(std::string git_sha) {
  HostStamp h;
  h.nproc = std::thread::hardware_concurrency();
  h.cpu_model = cpu_model();
#if defined(__clang__)
  h.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  h.compiler = std::string("gcc ") + __VERSION__;
#else
  h.compiler = "unknown";
#endif
  h.build_type = PERFBENCH_BUILD_TYPE;
  h.git_sha = git_sha.empty() ? "unknown" : std::move(git_sha);
  return h;
}

double host_reference_seconds() {
  // 2^25 dependent multiply-xorshift steps: pure core work, no memory.
  const auto t0 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint32_t i = 0; i < (1u << 25); ++i) {
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= i;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double peak_rss_mb() { return status_mb("VmHWM"); }
double current_rss_mb() { return status_mb("VmRSS"); }

}  // namespace perfbench
