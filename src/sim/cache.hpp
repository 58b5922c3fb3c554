// Set-associative, write-back LRU cache model operating on line numbers.
#pragma once

#include <cstdint>
#include <vector>

namespace papisim::sim {

/// One cache level.  Addresses are pre-divided by the line size: the cache
/// works on *line numbers* only and stores no data (the simulator is
/// trace-driven; numeric kernels live elsewhere).
///
/// Replacement is true LRU within each set, maintained as a recency-ordered
/// array (way 0 = MRU).  Associativities used in papisim are <= 20, so the
/// per-access shuffle is a short memmove.
class CacheLevel {
 public:
  /// Constructs a cache of `size_bytes` capacity with `associativity` ways
  /// of `line_bytes` lines.  A zero-capacity cache is valid and misses
  /// everything (used for an empty victim store).
  ///
  /// `hashed_sets` applies a hash to the set index (as large L3s do) so that
  /// power-of-two strides -- ubiquitous in the replayed kernels -- do not
  /// collapse onto a handful of sets.  Leave false for textbook modulo
  /// indexing (unit tests of LRU mechanics rely on it).
  CacheLevel(std::uint64_t size_bytes, std::uint32_t associativity,
             std::uint32_t line_bytes, bool hashed_sets = false);

  struct Result {
    bool hit = false;
    bool evicted = false;          ///< a valid line was displaced
    std::uint64_t victim_line = 0; ///< displaced line number (if evicted)
    bool victim_dirty = false;     ///< displaced line was dirty
  };

  /// Lookup with fill-on-miss; `make_dirty` marks the (resulting) line dirty.
  Result access(std::uint64_t line, bool make_dirty);

  /// Lookup without fill or replacement-state change.
  bool contains(std::uint64_t line) const;

  /// Fill a line without lookup semantics (used for cast-out insertion).
  /// Equivalent to access() for eviction behaviour.
  Result insert(std::uint64_t line, bool dirty) { return access_impl(line, dirty, true); }

  /// Set the dirty bit of `line` if it is resident, without touching the
  /// replacement order or the hit/miss statistics.
  void mark_dirty(std::uint64_t line);

  /// Remove a line if present; returns {was_present, was_dirty}.
  struct Invalidated { bool present = false; bool dirty = false; };
  Invalidated invalidate(std::uint64_t line);

  /// Drain every valid line through `sink(line, dirty)` and empty the cache.
  /// An empty cache returns at once, so the cost follows the resident lines
  /// rather than the capacity.
  template <class Sink>
  void flush(Sink&& sink) {
    if (valid_count_ == 0) return;
    for (std::size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != kInvalid) {
        sink(tags_[i], dirty_[i] != 0);
        tags_[i] = kInvalid;
        dirty_[i] = 0;
      }
    }
    valid_count_ = 0;
  }

  std::uint64_t size_bytes() const { return size_bytes_; }
  std::uint32_t associativity() const { return assoc_; }
  std::uint32_t sets() const { return sets_; }
  std::uint64_t capacity_lines() const { return static_cast<std::uint64_t>(sets_) * assoc_; }
  std::uint64_t valid_lines() const { return valid_count_; }

  // Access statistics (monotonic since construction or reset_stats()).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  void reset_stats() { hits_ = misses_ = 0; }

 private:
  Result access_impl(std::uint64_t line, bool make_dirty, bool is_insert);

  std::uint64_t set_index(std::uint64_t line) const {
    if (hashed_sets_) {
      // Stafford mix (hash64 inlined); deterministic per line.
      line ^= line >> 33;
      line *= 0xff51afd7ed558ccdULL;
      line ^= line >> 33;
    }
    if (pow2_sets_) return line & set_mask_;
    // Lemire fastmod: exact line % sets_ without a hardware divide.
    const std::uint64_t lowbits = fastmod_m_ * line;
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(lowbits) * sets_) >> 64);
  }

  static constexpr std::uint64_t kInvalid = ~0ull;

  std::uint64_t size_bytes_;
  std::uint32_t assoc_;
  std::uint32_t line_bytes_;
  std::uint32_t sets_ = 0;
  bool pow2_sets_ = true;
  bool hashed_sets_ = false;
  std::uint64_t set_mask_ = 0;
  std::uint64_t fastmod_m_ = 0;
  std::vector<std::uint64_t> tags_;  ///< sets_ * assoc_
  std::vector<std::uint8_t> dirty_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t valid_count_ = 0;
};

}  // namespace papisim::sim
