// A deliberately naive model of one socket's L3Fabric, used as a
// correctness ratchet for the fast path in src/sim.
//
// It states the traffic model in the plainest form available: one
// std::list per cache set in recency order (front = MRU), one eagerly
// built victim partition per core, no stripes, no locks, no lazily built
// state, no early returns.  Feeding the same access stream through this
// model and through sim::L3Fabric must give the same per-channel memory
// lines and the same victim counters -- any optimisation of the fabric or of
// CacheLevel that changes a single transaction shows up as a mismatch.
#pragma once

#include <cstdint>
#include <list>
#include <vector>

#include "sim/config.hpp"

namespace papisim::test_support {

class ReferenceL3 {
 public:
  explicit ReferenceL3(const sim::MachineConfig& cfg);

  /// Same contract as L3Fabric::set_active_cores: every core's victim
  /// partition is rebuilt empty with (idle / active) slices of capacity and
  /// its retention sequence restarts.
  void set_active_cores(std::uint32_t n);

  void load(std::uint32_t core, std::uint64_t line) { access(core, line, false); }
  void store(std::uint32_t core, std::uint64_t line) { access(core, line, true); }
  void prefetch(std::uint32_t core, std::uint64_t line) { access(core, line, false); }

  /// Write back every dirty line of every slice and victim partition.
  void flush_all();

  std::uint64_t read_lines(std::uint32_t channel) const { return reads_[channel]; }
  std::uint64_t write_lines(std::uint32_t channel) const { return writes_[channel]; }
  std::uint64_t victim_recoveries() const { return recoveries_; }
  std::uint64_t victim_retention_misses() const { return retention_misses_; }

 private:
  struct Entry {
    std::uint64_t line;
    bool dirty;
  };

  /// Set-associative LRU cache: `capacity_lines / ways` sets, each a list.
  class Cache {
   public:
    Cache(std::uint64_t capacity_lines, std::uint32_t ways);

    /// Lookup with fill on miss.  Returns true on a hit; on a miss that
    /// displaces a line, stores it in `*evicted` and sets `*did_evict`.
    bool access(std::uint64_t line, bool dirty, Entry* evicted, bool* did_evict);
    /// Remove `line`; returns whether it was present and its dirty bit.
    bool remove(std::uint64_t line, bool* dirty);
    /// Empty the cache, returning every line it held.
    std::vector<Entry> drain();
    bool empty_geometry() const { return sets_.empty(); }

   private:
    std::list<Entry>& set_of(std::uint64_t line);

    std::uint32_t ways_;
    std::vector<std::list<Entry>> sets_;
  };

  struct Core {
    Cache slice;
    Cache victim;
    std::uint64_t retention_events = 0;
  };

  void access(std::uint32_t core, std::uint64_t line, bool make_dirty);
  void cast_out(Core& c, const Entry& e);
  bool retained(Core& c, std::uint64_t line);
  std::uint32_t channel_of(std::uint64_t line) const;
  void read(std::uint64_t line) { ++reads_[channel_of(line)]; }
  void write(std::uint64_t line) { ++writes_[channel_of(line)]; }

  sim::MachineConfig cfg_;
  std::vector<Core> cores_;
  std::vector<std::uint64_t> reads_;
  std::vector<std::uint64_t> writes_;
  std::uint64_t recoveries_ = 0;
  std::uint64_t retention_misses_ = 0;
};

}  // namespace papisim::test_support
