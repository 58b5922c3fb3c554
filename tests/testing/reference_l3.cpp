#include "testing/reference_l3.hpp"

#include <stdexcept>

#include "sim/rng.hpp"

namespace papisim::test_support {

namespace {

constexpr std::uint32_t kVictimWays = 8;

/// The set index of a hashed CacheLevel, so lines land in the same sets as
/// in the fast path: the first half of Stafford's finalizer, then a
/// power-of-two mask or, for other set counts, Lemire's multiply-shift
/// reduction.  The latter equals `mixed % sets` only for 32-bit values;
/// for 64-bit mixed lines it is a different (but fixed) mapping, and the
/// reference has to follow it to place lines identically.
std::uint64_t set_index(std::uint64_t line, std::uint64_t sets) {
  line ^= line >> 33;
  line *= 0xff51afd7ed558ccdULL;
  line ^= line >> 33;
  if ((sets & (sets - 1)) == 0) return line % sets;
  const std::uint64_t lowbits = (~0ull / sets + 1) * line;
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(lowbits) * sets) >> 64);
}

}  // namespace

ReferenceL3::Cache::Cache(std::uint64_t capacity_lines, std::uint32_t ways)
    : ways_(ways), sets_(capacity_lines / ways) {}

std::list<ReferenceL3::Entry>& ReferenceL3::Cache::set_of(std::uint64_t line) {
  return sets_[set_index(line, sets_.size())];
}

bool ReferenceL3::Cache::access(std::uint64_t line, bool dirty, Entry* evicted,
                                bool* did_evict) {
  *did_evict = false;
  if (sets_.empty()) return false;
  std::list<Entry>& set = set_of(line);
  for (auto it = set.begin(); it != set.end(); ++it) {
    if (it->line == line) {
      const Entry hit{line, it->dirty || dirty};
      set.erase(it);
      set.push_front(hit);
      return true;
    }
  }
  if (set.size() == ways_) {
    *evicted = set.back();
    *did_evict = true;
    set.pop_back();
  }
  set.push_front({line, dirty});
  return false;
}

bool ReferenceL3::Cache::remove(std::uint64_t line, bool* dirty) {
  if (sets_.empty()) return false;
  std::list<Entry>& set = set_of(line);
  for (auto it = set.begin(); it != set.end(); ++it) {
    if (it->line == line) {
      *dirty = it->dirty;
      set.erase(it);
      return true;
    }
  }
  return false;
}

std::vector<ReferenceL3::Entry> ReferenceL3::Cache::drain() {
  std::vector<Entry> out;
  for (std::list<Entry>& set : sets_) {
    out.insert(out.end(), set.begin(), set.end());
    set.clear();
  }
  return out;
}

ReferenceL3::ReferenceL3(const sim::MachineConfig& cfg)
    : cfg_(cfg), reads_(cfg.mem_channels, 0), writes_(cfg.mem_channels, 0) {
  for (std::uint32_t c = 0; c < cfg_.cores_per_socket; ++c) {
    cores_.push_back(Core{
        Cache(cfg_.l3_slice_bytes / cfg_.line_bytes, cfg_.l3_associativity),
        Cache(0, kVictimWays)});
  }
  set_active_cores(1);
}

void ReferenceL3::set_active_cores(std::uint32_t n) {
  if (n == 0 || n > cfg_.cores_per_socket) {
    throw std::invalid_argument("ReferenceL3: active cores out of range");
  }
  const std::uint64_t idle = cfg_.cores_per_socket - n;
  const std::uint64_t bytes =
      cfg_.lateral_castout ? idle * cfg_.l3_slice_bytes / n : 0;
  for (Core& c : cores_) {
    c.victim = Cache(bytes / cfg_.line_bytes, kVictimWays);
    c.retention_events = 0;
  }
}

bool ReferenceL3::retained(Core& c, std::uint64_t line) {
  const std::uint64_t threshold =
      cfg_.castout_retention >= 1.0
          ? ~0ull
          : static_cast<std::uint64_t>(cfg_.castout_retention * 0x1p64);
  ++c.retention_events;
  return sim::hash64(line ^ (c.retention_events * 0x9e3779b97f4a7c15ULL)) <=
         threshold;
}

void ReferenceL3::cast_out(Core& c, const Entry& e) {
  if (c.victim.empty_geometry()) {
    if (e.dirty) write(e.line);
    return;
  }
  Entry displaced{};
  bool did_evict = false;
  c.victim.access(e.line, e.dirty, &displaced, &did_evict);
  if (did_evict && displaced.dirty) write(displaced.line);
}

void ReferenceL3::access(std::uint32_t core, std::uint64_t line,
                         bool make_dirty) {
  Core& c = cores_[core];
  Entry evicted{};
  bool did_evict = false;
  if (c.slice.access(line, make_dirty, &evicted, &did_evict)) return;
  if (did_evict) cast_out(c, evicted);
  bool victim_dirty = false;
  if (c.victim.remove(line, &victim_dirty)) {
    if (retained(c, line)) {
      ++recoveries_;
      // Re-access the just-filled line to carry the victim copy's dirty bit.
      if (victim_dirty) c.slice.access(line, true, &evicted, &did_evict);
      return;
    }
    ++retention_misses_;
    if (victim_dirty) write(line);
  }
  read(line);
}

void ReferenceL3::flush_all() {
  for (Core& c : cores_) {
    for (Cache* cache : {&c.slice, &c.victim}) {
      for (const Entry& e : cache->drain()) {
        if (e.dirty) write(e.line);
      }
    }
  }
}

std::uint32_t ReferenceL3::channel_of(std::uint64_t line) const {
  const std::uint32_t granule =
      cfg_.channel_interleave_lines == 0 ? 1 : cfg_.channel_interleave_lines;
  return static_cast<std::uint32_t>((line / granule) % cfg_.mem_channels);
}

}  // namespace papisim::test_support
