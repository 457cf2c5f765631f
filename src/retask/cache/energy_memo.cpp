#include "retask/cache/energy_memo.hpp"

#include "retask/obs/metrics.hpp"

namespace retask {
namespace {

/// Stable slot of the calling thread, assigned on first use and never
/// reused. Worker-pool threads persist for the process lifetime, so the
/// counter stays tiny in practice.
std::size_t thread_slot() {
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot = next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace

EnergyMemo::~EnergyMemo() {
  for (std::atomic<Shard*>& slot : shards_) {
    delete slot.load(std::memory_order_acquire);
  }
}

EnergyMemo::Shard* EnergyMemo::local_shard() {
  const std::size_t slot = thread_slot();
  if (slot >= kMaxShards) return nullptr;
  Shard* shard = shards_[slot].load(std::memory_order_acquire);
  if (shard == nullptr) {
    shard = new Shard();
    // The slot is owned by this thread, so the store cannot race another
    // writer; release pairs with the destructor's acquire.
    shards_[slot].store(shard, std::memory_order_release);
  }
  return shard;
}

void EnergyMemo::reserve_dense(Cycles max_cycles) {
  if (max_cycles < 0) return;
  const auto want = static_cast<std::size_t>(max_cycles) + 1;
  if (want > kDenseLimit) return;
  // Monotonic max; shards grow their arrays lazily on next access.
  std::size_t current = dense_width_.load(std::memory_order_relaxed);
  while (current < want &&
         !dense_width_.compare_exchange_weak(current, want, std::memory_order_relaxed)) {
  }
}

void EnergyMemo::attach_row(std::shared_ptr<EnergyRow> row) {
  if (row != nullptr && row->width() > 0) reserve_dense(static_cast<Cycles>(row->width()) - 1);
  row_ = std::move(row);
}

std::shared_ptr<EnergyRow> EnergyMemo::make_row(Cycles max_cycles) {
  if (max_cycles < 0 || static_cast<std::size_t>(max_cycles) >= kDenseLimit) return nullptr;
  return std::make_shared<EnergyRow>(static_cast<std::size_t>(max_cycles) + 1);
}

void EnergyMemo::ensure_dense(Shard& shard, std::size_t width) {
  if (shard.dense.size() >= width) return;
  shard.dense.resize((width + 63) / 64 * 64, 0.0);
  shard.dense_set.resize((width + 63) / 64, 0);
}

bool EnergyMemo::lookup(Cycles cycles, double& energy) {
  Shard* shard = local_shard();
  if (shard == nullptr) return false;  // cold fallback, uncounted
  const bool hit = find(*shard, dense_width_.load(std::memory_order_relaxed), cycles, energy);
  count(hit, !hit);
  return hit;
}

void EnergyMemo::record(Cycles cycles, double energy) {
  Shard* shard = local_shard();
  if (shard == nullptr) return;
  store(*shard, dense_width_.load(std::memory_order_relaxed), cycles, energy);
}

std::size_t EnergyMemo::local_size() {
  Shard* shard = local_shard();
  if (shard == nullptr) return 0;
  std::size_t entries = shard->values.size();
  for (const std::uint64_t word : shard->dense_set) {
    entries += static_cast<std::size_t>(__builtin_popcountll(word));
  }
  return entries;
}

std::size_t EnergyMemo::shard_count() const {
  std::size_t count = 0;
  for (const std::atomic<Shard*>& slot : shards_) {
    if (slot.load(std::memory_order_acquire) != nullptr) ++count;
  }
  return count;
}

void EnergyMemo::count(std::uint64_t hits, std::uint64_t misses) {
  if (hits != 0) RETASK_COUNT("cache.energy_hits", hits);
  if (misses != 0) RETASK_COUNT("cache.energy_misses", misses);
}

}  // namespace retask
