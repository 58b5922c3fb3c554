#include "sim/cache.hpp"

#include <stdexcept>

namespace papisim::sim {

CacheLevel::CacheLevel(std::uint64_t size_bytes, std::uint32_t associativity,
                       std::uint32_t line_bytes, bool hashed_sets)
    : size_bytes_(size_bytes),
      assoc_(associativity),
      line_bytes_(line_bytes),
      hashed_sets_(hashed_sets) {
  if (line_bytes == 0 || associativity == 0) {
    throw std::invalid_argument("CacheLevel: line size and associativity must be > 0");
  }
  const std::uint64_t lines = size_bytes / line_bytes;
  sets_ = static_cast<std::uint32_t>(lines / associativity);
  if (sets_ == 0) {
    // Zero-capacity cache: misses everything, never evicts.
    assoc_ = 0;
    return;
  }
  pow2_sets_ = (sets_ & (sets_ - 1)) == 0;
  set_mask_ = sets_ - 1;
  if (!pow2_sets_) fastmod_m_ = ~0ull / sets_ + 1;
  tags_.assign(static_cast<std::size_t>(sets_) * assoc_, kInvalid);
  dirty_.assign(tags_.size(), 0);
}

// LRU is kept as a physical recency order within each set (way 0 = MRU):
// hot lines hit at shallow scan depth, which dominates the simulator's
// hottest path; the shuffle on a hit moves at most `depth` ways.

CacheLevel::Result CacheLevel::access(std::uint64_t line, bool make_dirty) {
  return access_impl(line, make_dirty, false);
}

CacheLevel::Result CacheLevel::access_impl(std::uint64_t line, bool make_dirty,
                                           bool /*is_insert*/) {
  Result res;
  if (sets_ == 0) {
    ++misses_;
    return res;  // zero capacity: nothing is retained
  }
  const std::size_t base = static_cast<std::size_t>(set_index(line)) * assoc_;
  std::uint64_t* tags = tags_.data() + base;
  std::uint8_t* dirty = dirty_.data() + base;

  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[w] == line) {
      // Hit: move to MRU position, merging dirty state.
      const std::uint8_t d = static_cast<std::uint8_t>(dirty[w] | (make_dirty ? 1 : 0));
      for (std::uint32_t j = w; j > 0; --j) {
        tags[j] = tags[j - 1];
        dirty[j] = dirty[j - 1];
      }
      tags[0] = line;
      dirty[0] = d;
      ++hits_;
      res.hit = true;
      return res;
    }
  }

  // Miss: evict the LRU way, insert at MRU.
  ++misses_;
  const std::uint32_t lru = assoc_ - 1;
  if (tags[lru] != kInvalid) {
    res.evicted = true;
    res.victim_line = tags[lru];
    res.victim_dirty = dirty[lru] != 0;
  } else {
    ++valid_count_;
  }
  for (std::uint32_t j = lru; j > 0; --j) {
    tags[j] = tags[j - 1];
    dirty[j] = dirty[j - 1];
  }
  tags[0] = line;
  dirty[0] = make_dirty ? 1 : 0;
  return res;
}

bool CacheLevel::contains(std::uint64_t line) const {
  if (sets_ == 0) return false;
  const std::size_t base = static_cast<std::size_t>(set_index(line)) * assoc_;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags_[base + w] == line) return true;
  }
  return false;
}

void CacheLevel::mark_dirty(std::uint64_t line) {
  if (sets_ == 0) return;
  const std::size_t base = static_cast<std::size_t>(set_index(line)) * assoc_;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags_[base + w] == line) {
      dirty_[base + w] = 1;
      return;
    }
  }
}

CacheLevel::Invalidated CacheLevel::invalidate(std::uint64_t line) {
  Invalidated out;
  if (sets_ == 0) return out;
  const std::size_t base = static_cast<std::size_t>(set_index(line)) * assoc_;
  std::uint64_t* tags = tags_.data() + base;
  std::uint8_t* dirty = dirty_.data() + base;
  for (std::uint32_t w = 0; w < assoc_; ++w) {
    if (tags[w] == line) {
      out.present = true;
      out.dirty = dirty[w] != 0;
      // Compact the recency order: shift older entries up one way.
      for (std::uint32_t j = w; j + 1 < assoc_; ++j) {
        tags[j] = tags[j + 1];
        dirty[j] = dirty[j + 1];
      }
      tags[assoc_ - 1] = kInvalid;
      dirty[assoc_ - 1] = 0;
      --valid_count_;
      return out;
    }
  }
  return out;
}

}  // namespace papisim::sim
