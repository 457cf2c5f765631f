// Shared energy memo: a per-problem cache of E(cycles) evaluations.
//
// Every solver in core/ spends most of its time in
// RejectionProblem::energy_of_cycles — each call optimizes a speed schedule
// over the curve's hull — and a sweep grid evaluates the *same* curve at the
// same cycle counts thousands of times: the DP objective sweep, the FPTAS
// guess rounds, the marginal greedy's flip loop, the exhaustive mask loop
// and the harness's reference solve all revisit overlapping loads. The memo
// turns those repeats into lookups while keeping two hard guarantees:
//
//  * Bit-identity. E(W) is a pure function of (curve, work_per_cycle,
//    cycles); the memo only ever returns a value the cold path computed, so
//    cached and uncached runs produce the same bits in every consumer.
//  * Lock-free sharding. One memo may be shared across the worker pool (a
//    whole sweep's cells attach the same memo when their curves are
//    identical — see exp/harness.hpp). Each thread owns a private shard
//    selected by a stable per-thread slot, so recording never takes a lock
//    and never races: a thread only reads and writes its own shard, and
//    hit/miss accounting is per shard, so it does not depend on how threads
//    interleave.
//
// Cross-thread reuse lives one layer up, in an optional EnergyRow
// (cache/energy_row.hpp, attach_row): a shard miss inside the row's width
// is filled from the row instead of the energy kernel, and the row computes
// each E(w) at most once across all threads through a write-once claim /
// publish protocol. The miss still counts as a miss in the shard and the
// value is copied into the shard's private storage, so accounting and the
// chunk() pointer contract are exactly those of a memo without a row;
// threads see each other's work only as values the row already holds.
//
// Sharing contract: attach one memo (and one row) only to problems with
// identical (EnergyCurve, work_per_cycle). Neither can verify this; the
// attach sites in exp/harness, exp/mp_scale_sweep and the benches are the
// audited callers.
#ifndef RETASK_CACHE_ENERGY_MEMO_HPP
#define RETASK_CACHE_ENERGY_MEMO_HPP

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "retask/cache/energy_row.hpp"
#include "retask/task/task.hpp"

namespace retask {

/// Per-thread-sharded memo of cycles -> energy. Copyable problems share it
/// through a shared_ptr (see RejectionProblem::attach_energy_memo).
class EnergyMemo {
 public:
  EnergyMemo() = default;
  ~EnergyMemo();
  EnergyMemo(const EnergyMemo&) = delete;
  EnergyMemo& operator=(const EnergyMemo&) = delete;

  /// Switches lookups for cycles in [0, max_cycles] to a dense per-shard
  /// array (indexed load + validity bit) instead of the hash map. The exact
  /// select sweeps evaluate E over nearly every load in that range, often
  /// millions of times per solve, and at that density the hash probe IS the
  /// cost. Pure speedup: the stored values are the same bits either way.
  /// Call before heavy use (entries already in the hash map are not
  /// migrated — a later dense lookup recomputes them, bit-identically).
  /// Requests beyond kDenseLimit entries are ignored and the memo stays on
  /// the hash path; the bound may grow monotonically across calls.
  void reserve_dense(Cycles max_cycles);

  /// Fills shard misses for cycles below `row`'s width through `row`, and
  /// reserves the dense range up to that width (a row is only attached
  /// where it is dense enough to pay). Call before the memo is used; a null
  /// row detaches. Counters and returned bits are unchanged by the row —
  /// only who computes a missing value is.
  void attach_row(std::shared_ptr<EnergyRow> row);

  /// A row for cycles [0, max_cycles] to attach_row, or null where the
  /// dense range would not be taken (max_cycles < 0 or past kDenseLimit).
  static std::shared_ptr<EnergyRow> make_row(Cycles max_cycles);

  /// The attached row, or null.
  const std::shared_ptr<EnergyRow>& row() const { return row_; }

  /// Returns the memoized energy for `cycles`, calling `compute(cycles)` on
  /// a miss and recording the result in the calling thread's shard. Safe to
  /// call concurrently from any number of threads; obs counters
  /// cache.energy_hits / cache.energy_misses track the reuse.
  template <typename Fn>
  double get_or_compute(Cycles cycles, const Fn& compute) {
    Shard* shard = local_shard();
    if (shard == nullptr) return compute(cycles);  // shard slots exhausted
    const std::size_t width = dense_width_.load(std::memory_order_relaxed);
    double energy = 0.0;
    if (find(*shard, width, cycles, energy)) {
      count(1, 0);
      return energy;
    }
    count(0, 1);
    energy = row_ != nullptr && in_dense(row_->width(), cycles) ? from_row(cycles, compute)
                                                                : compute(cycles);
    store(*shard, width, cycles, energy);
    return energy;
  }

  /// Energies of the rows w0 + b for every set bit b of `mask`, read as one
  /// 64-row chunk: the returned pointer p satisfies p[b] == E(w0 + b) for
  /// each set bit (other slots hold unspecified finite values) and always
  /// addresses 64 readable doubles. `w0` must be a multiple of 64.
  ///
  ///  * Dense path (the chunk's masked rows lie below the reserve_dense
  ///    width): the chunk's validity is exactly one word of the shard's
  ///    bitmap, so only the missing rows run through ONE
  ///    `batch(cycles, out, n)` call and are recorded; the pointer aims
  ///    straight into the shard's dense row.
  ///  * Otherwise (hash path, a chunk straddling the dense width, or shard
  ///    slots exhausted): hits and computed misses are gathered into the
  ///    caller's 64-slot `scratch`, which is returned.
  ///
  /// Missing rows inside an attached row's width (both paths) are copied
  /// from the row, which computes the ones no thread has yet; the pointer
  /// never aims into the shared row itself.
  ///
  /// `batch` must be bit-identical to one-at-a-time evaluation (the
  /// curve's fused energy_cycles_batch kernel is). Hits and misses are
  /// counted once per chunk by popcount, so cache.energy_hits /
  /// cache.energy_misses carry the same per-row totals as row-by-row
  /// lookups.
  ///
  /// Pointer lifetime: valid until the calling thread's next call on this
  /// memo — a later call may grow the dense row (reserve_dense raised the
  /// width) and reallocate it, so callers re-acquire the pointer per chunk.
  template <typename BatchFn>
  const double* chunk(std::size_t w0, std::uint64_t mask, double* scratch, const BatchFn& batch) {
    if (mask == 0) return scratch;
    Shard* shard = local_shard();
    if (shard == nullptr) {  // shard slots exhausted: cold, uncounted
      fill_chunk(w0, mask, scratch, batch);
      return scratch;
    }
    const std::size_t width = dense_width_.load(std::memory_order_relaxed);
    const std::size_t top = w0 + 63 - static_cast<std::size_t>(__builtin_clzll(mask));
    if (top < width) {
      ensure_dense(*shard, width);
      std::uint64_t& valid = shard->dense_set[w0 >> 6];
      const std::uint64_t missing = mask & ~valid;
      count(popcount(mask & valid), popcount(missing));
      double* row = shard->dense.data() + w0;
      if (missing != 0) {
        fill_missing(w0, missing, row, batch);
        valid |= missing;
      }
      return row;
    }
    std::uint64_t missing = 0;
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      const int bit = __builtin_ctzll(bits);
      if (!find(*shard, width, static_cast<Cycles>(w0) + bit, scratch[bit])) {
        missing |= std::uint64_t{1} << bit;
      }
    }
    count(popcount(mask & ~missing), popcount(missing));
    if (missing != 0) {
      fill_missing(w0, missing, scratch, batch);
      for (std::uint64_t bits = missing; bits != 0; bits &= bits - 1) {
        const int bit = __builtin_ctzll(bits);
        store(*shard, width, static_cast<Cycles>(w0) + bit, scratch[bit]);
      }
    }
    return scratch;
  }

  /// Evaluates rows w0 + b for every set bit b of `bits` with one
  /// `batch` call, writing row b's energy to dst[b] (other slots are left
  /// untouched). The memo-free path of chunk(), shared with callers that
  /// have no memo attached.
  template <typename BatchFn>
  static void fill_chunk(std::size_t w0, std::uint64_t bits, double* dst, const BatchFn& batch) {
    Cycles cycles[64] = {};
    double out[64];
    std::size_t n = 0;
    for (std::uint64_t b = bits; b != 0; b &= b - 1) {
      cycles[n++] = static_cast<Cycles>(w0) + __builtin_ctzll(b);
    }
    batch(cycles, out, n);
    n = 0;
    for (std::uint64_t b = bits; b != 0; b &= b - 1) dst[__builtin_ctzll(b)] = out[n++];
  }

  /// Non-computing lookup in the calling thread's shard for the batched
  /// paths: on a hit stores the memoized value in `energy` and returns true
  /// (counting a hit); on a miss returns false (counting a miss). When the
  /// shard slots are exhausted, returns false without counting — matching
  /// get_or_compute's cold fallback.
  bool lookup(Cycles cycles, double& energy);

  /// Records a cold-path result in the calling thread's shard (no-op when
  /// slots are exhausted or the entry already exists — E is pure, so a
  /// duplicate is bit-identical by construction).
  void record(Cycles cycles, double energy);

  /// Entries in the calling thread's shard (tests; other shards are not
  /// safely readable from here).
  std::size_t local_size();

  /// Shards allocated so far (grows monotonically; tests).
  std::size_t shard_count() const;

  /// Densest range reserve_dense accepts: 2^22 entries = 32 MiB of doubles
  /// per shard. Larger requests keep the hash path.
  static constexpr std::size_t kDenseLimit = std::size_t{1} << 22;

 private:
  struct Shard {
    std::unordered_map<Cycles, double> values;
    std::vector<double> dense;              ///< energies for cycles < dense_width_
    std::vector<std::uint64_t> dense_set;   ///< validity bitmap for `dense`
  };

  /// Threads ever touching one memo beyond this count fall back to the cold
  /// path; far above the worker-pool sizes the harness uses.
  static constexpr std::size_t kMaxShards = 256;

  Shard* local_shard();
  /// get_or_compute's miss through the attached row; out of line so the
  /// hit path stays small enough to inline into the solvers' loops.
  template <typename Fn>
  [[gnu::noinline]] double from_row(Cycles cycles, const Fn& compute) {
    const auto w = static_cast<std::size_t>(cycles);
    double slots[64];
    row_->fill(w & ~std::size_t{63}, std::uint64_t{1} << (w & 63), slots,
               [&](const Cycles* c, double* out, std::size_t n) {
                 for (std::size_t i = 0; i < n; ++i) out[i] = compute(c[i]);
               });
    return slots[w & 63];
  }
  /// Evaluates the missing rows `bits` of chunk w0 into dst: through the
  /// attached row where it covers them, the energy kernel beyond. Out of
  /// line (a miss costs an energy evaluation anyway) so chunk()'s inlined
  /// hit path stays as small as the select loops need.
  template <typename BatchFn>
  [[gnu::noinline]] void fill_missing(std::size_t w0, std::uint64_t bits, double* dst,
                                      const BatchFn& batch) {
    if (row_ != nullptr) {
      const std::uint64_t shared = row_->inside(w0, bits);
      if (shared != 0) row_->fill(w0, shared, dst, batch);
      bits &= ~shared;
    }
    if (bits != 0) fill_chunk(w0, bits, dst, batch);
  }
  /// Grows the calling thread's shard-local dense arrays to `width`, the
  /// value row rounded up to whole 64-row chunks so chunk() can hand out
  /// 64 readable slots at any chunk below the width (the shard is
  /// thread-private, so the resize cannot race; existing entries and bits
  /// are preserved).
  static void ensure_dense(Shard& shard, std::size_t width);
  static bool in_dense(std::size_t width, Cycles cycles) {
    return cycles >= 0 && static_cast<std::size_t>(cycles) < width;
  }
  /// Uncounted probe of one row in `shard` under dense width `width`: the
  /// dense row below it, the hash map at and above it.
  static bool find(Shard& shard, std::size_t width, Cycles cycles, double& energy) {
    if (in_dense(width, cycles)) {
      ensure_dense(shard, width);
      const auto w = static_cast<std::size_t>(cycles);
      if (((shard.dense_set[w >> 6] >> (w & 63)) & 1u) == 0) return false;
      energy = shard.dense[w];
      return true;
    }
    const auto it = shard.values.find(cycles);
    if (it == shard.values.end()) return false;
    energy = it->second;
    return true;
  }
  /// Uncounted insert matching find().
  static void store(Shard& shard, std::size_t width, Cycles cycles, double energy) {
    if (in_dense(width, cycles)) {
      ensure_dense(shard, width);
      const auto w = static_cast<std::size_t>(cycles);
      shard.dense[w] = energy;
      shard.dense_set[w >> 6] |= std::uint64_t{1} << (w & 63);
      return;
    }
    shard.values.emplace(cycles, energy);
  }
  static std::uint64_t popcount(std::uint64_t bits) {
    return static_cast<std::uint64_t>(__builtin_popcountll(bits));
  }
  /// Adds to cache.energy_hits / cache.energy_misses (a zero count leaves
  /// its counter untouched, as a row-by-row walk would).
  static void count(std::uint64_t hits, std::uint64_t misses);

  std::array<std::atomic<Shard*>, kMaxShards> shards_{};
  /// Dense-range width (max_cycles + 1); 0 = hash-only. Monotonic.
  std::atomic<std::size_t> dense_width_{0};
  /// Upstream cross-thread row (attach_row); null = none.
  std::shared_ptr<EnergyRow> row_;
};

}  // namespace retask

#endif  // RETASK_CACHE_ENERGY_MEMO_HPP
