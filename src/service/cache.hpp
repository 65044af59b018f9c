#pragma once

// Result cache of the meshing service: canonical config hash -> serialized
// mesh block, LRU-evicted under a byte budget. The key is
// mesh_config_hash(options) (core/options_hash), i.e. exactly the
// mesh-defining inputs -- rank count, transport, tracing, and fault
// injection do not change the triangles, so a mesh computed under any of
// them answers every equivalent future request. Meshing is deterministic,
// which is what makes this safe: a hit returns bytes bit-identical to what
// re-meshing would have produced (MeshServer.CacheHitIsBitIdenticalToFreshMesh
// pins this).

#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "obs/annotations.hpp"

namespace aero {

/// Thread-safe LRU cache of serialized meshes under a byte budget.
class ResultCache {
 public:
  struct Entry {
    std::vector<std::uint8_t> mesh_blob;
    std::uint64_t triangles = 0;
    std::uint64_t vertices = 0;
  };

  struct Stats {
    std::size_t entries = 0;
    std::size_t bytes = 0;        ///< payload bytes currently resident
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t insertions = 0;
    std::size_t evictions = 0;    ///< entries LRU-evicted for space
    std::size_t rejected_oversize = 0;  ///< entries larger than the budget
  };

  /// `byte_budget` bounds the summed mesh_blob bytes; 0 disables caching
  /// (every lookup misses, every insert is dropped).
  explicit ResultCache(std::size_t byte_budget) : budget_(byte_budget) {}

  /// Copy the entry for `key` out (and mark it most-recently used).
  [[nodiscard]] bool lookup(std::uint64_t key, Entry* out);

  /// Insert (or refresh) `key`. Entries larger than the whole budget are
  /// dropped; otherwise least-recently-used entries are evicted until the
  /// new entry fits.
  void insert(std::uint64_t key, Entry entry);

  Stats stats() const;
  std::size_t byte_budget() const { return budget_; }

 private:
  void evict_for(std::size_t need) AERO_REQUIRES(m_);

  const std::size_t budget_;
  mutable Mutex m_ AERO_LOCK_NAME("svc.cache", 6);
  /// Keys in recency order, most recent first.
  std::list<std::uint64_t> lru_ AERO_GUARDED_BY(m_);
  struct Slot {
    Entry entry;
    std::list<std::uint64_t>::iterator pos;
  };
  std::unordered_map<std::uint64_t, Slot> map_ AERO_GUARDED_BY(m_);
  Stats stats_ AERO_GUARDED_BY(m_);
};

}  // namespace aero
