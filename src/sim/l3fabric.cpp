#include "sim/l3fabric.hpp"

#include <algorithm>
#include <stdexcept>

#include "selfmon/metrics.hpp"
#include "sim/rng.hpp"

namespace papisim::sim {

namespace {

/// Flush the stripe-local selfmon staging counters every this many
/// acquisitions.  Large enough to amortize the (comparatively costly)
/// registry TLS write out of the per-access path, small enough that any
/// profiled region of consequence sees its counts.
constexpr std::uint64_t kSelfmonFlushEvery = 64;

/// One access in this many probes for contention with a try_lock.
/// pthread_mutex_trylock is markedly slower than the uncontended lock fast
/// path on some hosts (measured ~18% of GEMM replay throughput when probing
/// every access), so contention is sampled: each contended probe stands for
/// kSelfmonProbeEvery acquisitions, making l3.stripe_contention an estimate
/// directly comparable to l3.stripe_acquisitions.  The sample is selected
/// by line-address bits (the cheapest signal already in a register on the
/// access path -- even a per-thread counter tick was measurable there);
/// streaming kernels sample uniformly, and the bias for tiny re-walked
/// footprints only affects the contention estimate, never the exact
/// acquisition count.  Power of two: must stay a valid address mask.
constexpr std::uint64_t kSelfmonProbeEvery = 64;

/// The victim store aggregates many remote slices; model it with a lower
/// associativity (it is a recovery approximation, not a real cache -- the
/// retention probability already dominates its behaviour) to keep the
/// simulator's hottest miss path cheap.
constexpr std::uint32_t kVictimWays = 8;

/// CacheLevel::flush() sink: dirty lines are written back to memory.
auto write_back_to(MemController& mem) {
  return [&mem](std::uint64_t line, bool dirty) {
    if (dirty) mem.add_line(line, MemDir::Write);
  };
}

}  // namespace

/// Stripe lock with batched selfmon accounting.  The counts stage in plain
/// fields of the stripe -- its cache line is exclusive while the mutex is
/// held, so the increments are effectively free -- and flush to the selfmon
/// registry every kSelfmonFlushEvery acquisitions.  Contention is detected
/// by sampled try_lock probes (see kSelfmonProbeEvery).  Compiles down to a
/// plain lock when the instrumentation is off.
[[gnu::cold, gnu::noinline]] void L3Fabric::flush_stripe_selfmon(
    Stripe& stripe) {
  selfmon::counter_add(selfmon::CounterId::L3StripeAcquisitions,
                       stripe.selfmon_acquisitions);
  if (stripe.selfmon_contention != 0) {
    selfmon::counter_add(selfmon::CounterId::L3StripeContention,
                         stripe.selfmon_contention);
  }
  stripe.selfmon_acquisitions = 0;
  stripe.selfmon_contention = 0;
}

// Force-inlined into every call site: the per-access replay path runs at a
// few tens of ns per line, where an out-of-line call returning a unique_lock
// by value is itself a measurable fraction of the budget.
__attribute__((always_inline)) inline std::unique_lock<std::mutex>
L3Fabric::lock_stripe(Stripe& stripe, bool probe) {
  if constexpr (selfmon::kEnabled) {
    if (probe) [[unlikely]] {
      std::unique_lock<std::mutex> lock(stripe.mu, std::try_to_lock);
      if (!lock.owns_lock()) {
        lock.lock();
        stripe.selfmon_contention += kSelfmonProbeEvery;
      }
      if (++stripe.selfmon_acquisitions >= kSelfmonFlushEvery) {
        flush_stripe_selfmon(stripe);
      }
      return lock;
    }
    std::unique_lock<std::mutex> lock(stripe.mu);
    if (++stripe.selfmon_acquisitions >= kSelfmonFlushEvery) {
      flush_stripe_selfmon(stripe);
    }
    return lock;
  } else {
    (void)probe;
    return std::unique_lock<std::mutex>(stripe.mu);
  }
}

L3Fabric::L3Fabric(const MachineConfig& cfg, MemController& mem)
    : cfg_(cfg), mem_(mem) {
  stripes_.reserve(cfg.cores_per_socket);
  for (std::uint32_t c = 0; c < cfg.cores_per_socket; ++c) {
    auto stripe = std::make_unique<Stripe>();
    stripe->slice = std::make_unique<CacheLevel>(
        cfg.l3_slice_bytes, cfg.l3_associativity, cfg.line_bytes,
        /*hashed_sets=*/true);
    stripes_.push_back(std::move(stripe));
  }
  // Clamp: retention >= 1.0 must map to "always retained" (the cast of
  // 1.0 * 2^64 to uint64 would otherwise overflow).
  retention_threshold_ =
      cfg.castout_retention >= 1.0
          ? ~0ull
          : static_cast<std::uint64_t>(cfg.castout_retention * 0x1p64);
  set_active_cores(1);
}

void L3Fabric::set_active_cores(std::uint32_t n) {
  if (n == 0 || n > cfg_.cores_per_socket) {
    throw std::invalid_argument("L3Fabric: active cores out of range");
  }
  active_cores_ = n;
  const std::uint32_t idle = cfg_.cores_per_socket - n;
  // The idle cores' aggregate capacity is fair-shared: each active core gets
  // its own victim partition so cores never contend for (or observe) each
  // other's cast-outs.  Partitioning is what keeps a per-core replay
  // deterministic regardless of how worker threads interleave.
  const std::uint64_t capacity_bytes =
      cfg_.lateral_castout
          ? static_cast<std::uint64_t>(idle) * cfg_.l3_slice_bytes / n
          : 0;
  // CacheLevel's geometry: whole sets of kVictimWays lines.
  const std::uint64_t lines =
      capacity_bytes / cfg_.line_bytes / kVictimWays * kVictimWays;
  for (auto& stripe : stripes_) {
    const auto lock = lock_stripe(*stripe);
    stripe->victim.reset();  // cast_out() builds it on first use
    stripe->victim_lines = lines;
    // A fresh partition starts a fresh retention sequence, so what a core
    // recovers depends only on its accesses since this call, not on what
    // ran before on this Machine.
    stripe->retention_events = 0;
  }
}

std::uint64_t L3Fabric::victim_capacity_lines(std::uint32_t core) const {
  return stripes_[core]->victim_lines;
}

bool L3Fabric::retained(Stripe& stripe, std::uint64_t line) {
  // Per-recovery-event probability (deterministic sequence): a fraction of
  // lateral-cast-out recoveries fail and must re-fetch from memory.  This is
  // what makes the lone-core traffic exceed the expectation *gradually* as
  // the footprint spills past the local slice (paper Figs. 2-4 (a) panels).
  // The event counter is per stripe so each core sees the same sequence it
  // would in a serial replay, independent of the other cores' progress.
  ++stripe.retention_events;
  return hash64(line ^ (stripe.retention_events * 0x9e3779b97f4a7c15ULL)) <=
         retention_threshold_;
}

void L3Fabric::cast_out(Stripe& stripe, std::uint64_t line, bool dirty,
                        Traffic* t) {
  if (stripe.victim_lines == 0) {
    if (dirty) {
      mem_.add_line(line, MemDir::Write);
      if (t) ++t->write_lines;
    }
    return;
  }
  if (!stripe.victim) {
    stripe.victim = std::make_unique<CacheLevel>(
        stripe.victim_lines * cfg_.line_bytes, kVictimWays, cfg_.line_bytes,
        /*hashed_sets=*/true);
  }
  const CacheLevel::Result r = stripe.victim->insert(line, dirty);
  if (r.evicted && r.victim_dirty) {
    mem_.add_line(r.victim_line, MemDir::Write);
    if (t) ++t->write_lines;
  }
}

L3Fabric::Source L3Fabric::access_line(std::uint32_t core, std::uint64_t line,
                                       bool make_dirty, Traffic* t) {
  Stripe& stripe = *stripes_[core];
  const auto lock =
      lock_stripe(stripe, (line & (kSelfmonProbeEvery - 1)) == 0);
  const CacheLevel::Result r = stripe.slice->access(line, make_dirty);
  if (r.hit) return Source::L3Hit;

  // Miss: access() already filled the line (with the right dirty bit) and
  // reported the displaced victim; cast that victim out laterally.
  if (r.evicted) cast_out(stripe, r.victim_line, r.victim_dirty, t);

  // Did the line come from a lateral cast-out (victim store) or from memory?
  // A core that has not cast out since set_active_cores() has no partition
  // to probe.
  const CacheLevel::Invalidated inv =
      stripe.victim ? stripe.victim->invalidate(line) : CacheLevel::Invalidated{};
  if (inv.present) {
    if (retained(stripe, line)) {
      // The cast-out copy was the only up-to-date one: a dirty line stays
      // dirty in the slice and is written back when it leaves it.
      if (inv.dirty && !make_dirty) stripe.slice->mark_dirty(line);
      victim_recoveries_.fetch_add(1, std::memory_order_relaxed);
      return Source::VictimHit;
    }
    victim_retention_misses_.fetch_add(1, std::memory_order_relaxed);
    // The remote slice dropped the line; a dirty one was written back first.
    if (inv.dirty) {
      mem_.add_line(line, MemDir::Write);
      if (t) ++t->write_lines;
    }
  }
  mem_.add_line(line, MemDir::Read);
  if (t) ++t->read_lines;
  return Source::Memory;
}

L3Fabric::Source L3Fabric::load_line(std::uint32_t core, std::uint64_t line,
                                     Traffic* t) {
  return access_line(core, line, /*make_dirty=*/false, t);
}

L3Fabric::Source L3Fabric::store_line(std::uint32_t core, std::uint64_t line,
                                      Traffic* t) {
  // Write-allocate: a miss reads the line from memory before the partial
  // write (the paper's "read incurred by the hardware when writing").
  return access_line(core, line, /*make_dirty=*/true, t);
}

L3Fabric::Source L3Fabric::prefetch_line(std::uint32_t core, std::uint64_t line,
                                         Traffic* t) {
  return load_line(core, line, t);
}

void L3Fabric::flush_core(std::uint32_t core) {
  Stripe& stripe = *stripes_[core];
  const auto lock = lock_stripe(stripe);
  stripe.slice->flush(write_back_to(mem_));
}

void L3Fabric::flush_all() {
  for (auto& stripe : stripes_) {
    const auto lock = lock_stripe(*stripe);
    stripe->slice->flush(write_back_to(mem_));
    if (stripe->victim) stripe->victim->flush(write_back_to(mem_));
  }
}

std::uint64_t L3Fabric::total_slice_lookups() const {
  std::uint64_t total = 0;
  for (const auto& stripe : stripes_) {
    total += stripe->slice->hits() + stripe->slice->misses();
  }
  return total;
}

}  // namespace papisim::sim
