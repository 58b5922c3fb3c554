// Host stamp and host drift record.  Neither is used to rescale a metric:
// they sit beside the metrics so that a shift of every timing in the same
// direction can be told apart from a change in the program.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct HostStamp {
  unsigned nproc = 0;
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string git_sha;
};

/// `git_sha` comes from the caller (the build tree is not always a git
/// checkout).
HostStamp host_stamp(std::string git_sha);

/// Seconds to run a fixed integer loop: the host-reference probe, taken at
/// the start and the end of every run.
double host_reference_seconds();

/// Peak resident set (VmHWM) and current resident set (VmRSS), in MB.
double peak_rss_mb();
double current_rss_mb();

}  // namespace perfbench
