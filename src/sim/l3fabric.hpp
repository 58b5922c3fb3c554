// Sliced L3 with lateral cast-out (POWER9 behaviour).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/cache.hpp"
#include "sim/config.hpp"
#include "sim/memctrl.hpp"

namespace papisim::sim {

/// One socket's L3: a 5 MB slice per core, plus a "victim store" that models
/// lateral cast-out into *idle* cores' slices.
///
/// Mechanism (DESIGN.md §3):
///  * A core's accesses allocate only in its own slice.
///  * Capacity victims of the slice are cast out laterally into the victim
///    store, whose capacity is (idle cores) x slice size, fair-shared across
///    the active cores.  A later miss may recover the line from there
///    (probabilistically, deterministic per-line) without any memory traffic.
///  * When every core is active the victim store has zero capacity, so each
///    core is limited to its hard 5 MB share.
///
/// This is what makes the single-threaded GEMM degrade *gradually* past the
/// 5 MB footprint while the fully-batched GEMM jumps sharply (paper Figs 2-4).
///
/// Threading model (DESIGN.md "Threading model"): all per-core mutable state
/// (the slice, the core's victim-store partition, the retention-event
/// sequence) lives in one *stripe* guarded by one mutex, so concurrent replay
/// workers driving different cores never contend and workers hammering the
/// same core serialize correctly.  An access takes exactly one stripe lock
/// and then hits only MemController atomics -- no function ever holds two
/// stripe locks, so the locking order "stripe mutex -> memctrl atomics" is
/// trivially deadlock-free.  Aggregate victim counters are relaxed atomics.
/// set_active_cores()/flush_*() take the stripe locks one at a time and may
/// run concurrently with accesses, but reconfiguring while a replay is in
/// flight is a modelling error (the capacity change would apply mid-kernel).
/// Every stripe acquisition is accounted by selfmon (l3.stripe_acquisitions,
/// plus l3.stripe_contention estimated from sampled try_lock probes), so
/// replay-pool contention on shared cores is observable through the selfmon
/// component without burdening the per-access fast path (see lock_stripe).
class L3Fabric {
 public:
  L3Fabric(const MachineConfig& cfg, MemController& mem);

  /// Declare how many cores on this socket are running workloads.  Resets
  /// every core's victim-store partition: any lines it holds are dropped
  /// (not written back), its retention sequence restarts, and its capacity
  /// becomes (idle cores / active cores) slices.  Nothing is allocated
  /// here; a partition is built on its core's first cast-out, so capacity
  /// no core casts into costs no memory.
  void set_active_cores(std::uint32_t n);
  std::uint32_t active_cores() const { return active_cores_; }

  enum class Source : std::uint8_t { L3Hit, VictimHit, Memory };

  /// Memory transactions one access caused, in whole lines.  Callers that
  /// need per-core traffic totals pass one of these instead of diffing the
  /// MemController's global counters: the global diff would absorb other
  /// cores' concurrent traffic, while this count is exact per access.
  struct Traffic {
    std::uint64_t read_lines = 0;
    std::uint64_t write_lines = 0;
  };

  /// Demand load of `line` by `core`.  Memory reads and any eviction
  /// writebacks are accounted to the MemController (and to `t` if given).
  Source load_line(std::uint32_t core, std::uint64_t line, Traffic* t = nullptr);

  /// Store with write-allocate: a miss reads the line from memory first
  /// (the paper's "read incurred by the hardware when writing").
  Source store_line(std::uint32_t core, std::uint64_t line, Traffic* t = nullptr);

  /// dcbtst-style software prefetch: fetch into the slice (clean), reading
  /// from memory on a miss.  Returns where the line came from.
  Source prefetch_line(std::uint32_t core, std::uint64_t line, Traffic* t = nullptr);

  /// Write back and drop every line held in `core`'s slice (its victim
  /// partition is drained by flush_all()).  An empty slice is not scanned.
  void flush_core(std::uint32_t core);

  /// Write back and drop everything including the victim partitions.  The
  /// work follows the resident lines: empty slices and cores that never cast
  /// out are skipped, and a drained partition keeps its allocation (and its
  /// capacity) until the next set_active_cores().
  void flush_all();

  /// Direct slice access for tests/inspection (unsynchronized: do not call
  /// while replay workers are driving this core).
  CacheLevel& slice(std::uint32_t core) { return *stripes_[core]->slice; }
  /// `core`'s victim partition, or nullptr while none has been built (no
  /// cast-out since the last set_active_cores(), or zero capacity).  Same
  /// synchronization caveat as slice().
  const CacheLevel* victim_store(std::uint32_t core = 0) const {
    return stripes_[core]->victim.get();
  }
  /// Lines `core`'s victim partition holds once built: the configured
  /// capacity, whether or not it has been allocated yet.  Same
  /// synchronization caveat as slice().
  std::uint64_t victim_capacity_lines(std::uint32_t core = 0) const;

  std::uint64_t victim_recoveries() const {
    return victim_recoveries_.load(std::memory_order_relaxed);
  }
  std::uint64_t victim_retention_misses() const {
    return victim_retention_misses_.load(std::memory_order_relaxed);
  }

  /// Total slice-level lookups (hits + misses) across all cores, for the
  /// concurrency-stress conservation check.  Unsynchronized snapshot.
  std::uint64_t total_slice_lookups() const;

 private:
  /// Per-core stripe: everything one core's accesses mutate, under one lock.
  struct Stripe {
    std::mutex mu;
    std::unique_ptr<CacheLevel> slice;
    /// This core's lateral-cast-out share: built on the first cast-out
    /// after set_active_cores(), null until then.
    std::unique_ptr<CacheLevel> victim;
    std::uint64_t victim_lines = 0;  ///< configured capacity of `victim`
    std::uint64_t retention_events = 0;  ///< per-core: order-independent across cores
    // Selfmon staging, guarded by mu: acquisitions/contention accumulate in
    // plain fields (the stripe line is already exclusive while locked) and
    // flush to the selfmon registry in batches, keeping the per-access
    // instrumentation cost off the hot path.
    std::uint64_t selfmon_acquisitions = 0;
    std::uint64_t selfmon_contention = 0;
  };

  /// Lock a stripe with selfmon accounting: batched acquisition counts,
  /// plus a try_lock contention probe when `probe` is set (sampled by the
  /// caller); a plain lock when the instrumentation is compiled out.
  static std::unique_lock<std::mutex> lock_stripe(Stripe& stripe,
                                                  bool probe = false);

  /// Cold path of lock_stripe: push the staged counts into the selfmon
  /// registry.  Deliberately out of line so the registry's TLS access never
  /// burdens the per-access fast path.
  static void flush_stripe_selfmon(Stripe& stripe);

  Source access_line(std::uint32_t core, std::uint64_t line, bool make_dirty,
                     Traffic* t);
  void cast_out(Stripe& stripe, std::uint64_t line, bool dirty, Traffic* t);
  bool retained(Stripe& stripe, std::uint64_t line);

  const MachineConfig& cfg_;
  MemController& mem_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::uint32_t active_cores_ = 1;
  std::uint64_t retention_threshold_;  ///< hash cutoff for deterministic retention
  std::atomic<std::uint64_t> victim_recoveries_{0};
  std::atomic<std::uint64_t> victim_retention_misses_{0};
};

}  // namespace papisim::sim
