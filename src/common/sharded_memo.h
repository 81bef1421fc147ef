// A concurrent insert-only memo table split into independently locked
// shards, for pure computations that many threads look up at once.
//
// The key's hash picks the shard (and, inside it, the bucket); a hit still
// needs full key equality, so two keys whose hashes collide never share an
// entry. Entries are never erased and live in node-based maps, so the
// reference GetOrCompute returns stays valid for the table's lifetime.
//
// Each key is computed exactly once, outside every lock: the first caller
// of a key claims its slot under the shard lock, releases the lock, and
// computes; concurrent callers of the same key wait for that value, and
// callers of other keys proceed. Results therefore never depend on thread
// count or arrival order, and racing threads never repeat an expensive
// computation (every interleaving of a merge level asks for the same keys
// at the same moment). A computation may look up other tables, but the
// lookups must not form a cycle.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>

#include "common/hash.h"

namespace coradd {

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class ShardedMemo {
 public:
  /// The value for `key`, computing it with `compute()` on first use.
  /// `compute` must return normally: a slot whose value is never stored
  /// would leave its waiters blocked.
  template <typename Compute>
  const Value& GetOrCompute(const Key& key, Compute&& compute) {
    Slot* slot;
    bool first;
    {
      Shard& shard = shards_[ShardOf(Hash{}(key))];
      std::lock_guard<std::mutex> lock(shard.mu);
      auto [it, inserted] = shard.map.try_emplace(key);
      slot = &it->second;
      first = inserted;
    }
    if (first) {
      slot->value = compute();
      slot->ready.store(1, std::memory_order_release);
      slot->ready.notify_all();
    } else if (slot->ready.load(std::memory_order_acquire) == 0) {
      // Only block on a slot still being computed: waiting registers with a
      // process-wide waiter table, which every hit would otherwise contend.
      slot->ready.wait(0, std::memory_order_acquire);
    }
    return slot->value;
  }

  /// Number of entries (locks every shard in turn; for tests).
  size_t size() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      n += shard.map.size();
    }
    return n;
  }

 private:
  static constexpr size_t kShards = 32;

  struct Slot {
    /// 0 until `value` is stored. An int, not a bool: the library waits on
    /// an int in place, but proxies narrower types through a shared
    /// counter that every notify would contend.
    std::atomic<int> ready{0};
    Value value{};
  };
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::unordered_map<Key, Slot, Hash> map;
  };

  static size_t ShardOf(size_t h) {
    return static_cast<size_t>(HashU64(h)) % kShards;
  }

  std::array<Shard, kShards> shards_;
};

}  // namespace coradd
