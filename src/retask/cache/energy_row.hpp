// Grid-wide energy row: one E(w) value per cycle count, computed at most
// once across every thread that reads it.
//
// A sweep point fixes the platform (EnergyCurve, work_per_cycle), so every
// instance of the point reads the same E(w) row. The harness's energy memos
// are per parallel block and their shards per thread (cache/energy_memo.hpp),
// so without a shared layer each block recomputes the whole row — on a
// continuous model two golden-section searches per row. An EnergyRow sits
// upstream of those memos (EnergyMemo::attach_row): a shard miss inside the
// row's width is filled from here, and only a row nobody has computed yet
// reaches the energy kernel.
//
// Protocol, per 64-row chunk (two atomic words):
//
//  * `claimed` bits are taken by CAS, in batches of at most kClaimBatch
//    rows. The claiming thread alone computes those rows, writes their
//    slots (plain stores), then sets their `published` bits with a release
//    fetch_or. A slot is therefore written once, before its publish bit.
//  * Readers copy a slot only after seeing its publish bit through an
//    acquire load, so every read happens-after the one write (TSan-clean).
//  * A row claimed by another thread and not yet published is waited for
//    with std::this_thread::yield().
//  * If the batch function throws, the claim is released (fetch_and) before
//    the exception propagates, so a waiting thread claims and computes the
//    row itself instead of spinning forever.
//
// fill() copies values into the caller's buffer and never hands out a
// pointer into the row: SIMD select scans load all 64 slots of a chunk, and
// slots other threads are still publishing must not be among them.
//
// Sharing contract: exactly that of EnergyMemo — one row serves only
// problems with identical (EnergyCurve, work_per_cycle), and every batch
// function passed to fill() must produce the same bits for the same row.
#ifndef RETASK_CACHE_ENERGY_ROW_HPP
#define RETASK_CACHE_ENERGY_ROW_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "retask/task/task.hpp"

namespace retask {

class EnergyRow {
 public:
  /// Row of `width` entries, for cycle counts [0, width). The value storage
  /// is left uninitialized, so pages a sweep never reads are never touched.
  explicit EnergyRow(std::size_t width)
      : width_(width), values_(new double[chunks(width) * 64]), published_(chunks(width)),
        claimed_(chunks(width)) {}
  EnergyRow(const EnergyRow&) = delete;
  EnergyRow& operator=(const EnergyRow&) = delete;

  std::size_t width() const { return width_; }

  /// The bits of `mask` whose rows w0 + b lie inside the row (w0 is a
  /// multiple of 64).
  std::uint64_t inside(std::size_t w0, std::uint64_t mask) const {
    if (w0 >= width_) return 0;
    const std::size_t room = width_ - w0;
    return room >= 64 ? mask : mask & ((std::uint64_t{1} << room) - 1);
  }

  /// Writes E(w0 + b) to dst[b] for every set bit b of `mask` (other slots
  /// are left untouched). Every masked row must lie inside the row (see
  /// inside()). Published rows are copied; unclaimed ones are claimed and
  /// computed through `batch(cycles, out, n)`; rows another thread is
  /// computing are waited for.
  template <typename BatchFn>
  void fill(std::size_t w0, std::uint64_t mask, double* dst, const BatchFn& batch) {
    std::atomic<std::uint64_t>& published = published_[w0 >> 6];
    std::atomic<std::uint64_t>& claimed = claimed_[w0 >> 6];
    const double* slots = values_.get() + w0;
    std::uint64_t need = mask;
    while (need != 0) {
      const std::uint64_t ready = need & published.load(std::memory_order_acquire);
      for (std::uint64_t b = ready; b != 0; b &= b - 1) {
        const int bit = __builtin_ctzll(b);
        dst[bit] = slots[bit];
      }
      need &= ~ready;
      if (need == 0) return;
      std::uint64_t taken = claimed.load(std::memory_order_relaxed);
      const std::uint64_t pick = lowest_bits(need & ~taken, kClaimBatch);
      if (pick == 0) {
        std::this_thread::yield();  // every missing row is being computed elsewhere
        continue;
      }
      if (!claimed.compare_exchange_weak(taken, taken | pick, std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
        continue;
      }
      compute(w0, pick, batch);
      published.fetch_or(pick, std::memory_order_release);
      for (std::uint64_t b = pick; b != 0; b &= b - 1) {
        const int bit = __builtin_ctzll(b);
        dst[bit] = slots[bit];
      }
      need &= ~pick;
    }
  }

 private:
  /// Most rows one claim takes: small enough that threads needing the same
  /// chunk split its rows instead of queueing behind one claimer.
  static constexpr int kClaimBatch = 8;

  static std::size_t chunks(std::size_t width) { return (width + 63) / 64; }

  /// The lowest `count` set bits of `bits`.
  static std::uint64_t lowest_bits(std::uint64_t bits, int count) {
    std::uint64_t out = 0;
    for (int i = 0; i < count && bits != 0; ++i) {
      out |= bits & (~bits + 1);
      bits &= bits - 1;
    }
    return out;
  }

  /// Computes the claimed rows `pick` of chunk w0 into their slots; on a
  /// throwing batch, releases the claim before rethrowing.
  template <typename BatchFn>
  void compute(std::size_t w0, std::uint64_t pick, const BatchFn& batch) {
    Cycles cycles[64] = {};
    double out[64];
    std::size_t n = 0;
    for (std::uint64_t b = pick; b != 0; b &= b - 1) {
      cycles[n++] = static_cast<Cycles>(w0) + __builtin_ctzll(b);
    }
    try {
      batch(cycles, out, n);
    } catch (...) {
      claimed_[w0 >> 6].fetch_and(~pick, std::memory_order_release);
      throw;
    }
    n = 0;
    for (std::uint64_t b = pick; b != 0; b &= b - 1) values_[w0 + __builtin_ctzll(b)] = out[n++];
  }

  std::size_t width_;
  std::unique_ptr<double[]> values_;  ///< slot w valid once its published bit is set
  std::vector<std::atomic<std::uint64_t>> published_;  ///< one word per 64-row chunk
  std::vector<std::atomic<std::uint64_t>> claimed_;    ///< one word per 64-row chunk
};

}  // namespace retask

#endif  // RETASK_CACHE_ENERGY_ROW_HPP
