#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace aero {

/// Chunked arena: the SoA storage primitive of the mesh core.
///
/// Elements live in fixed-size chunks (1 << kChunkPow each) that are never
/// moved once allocated, which buys two things over std::vector:
///
///  * no reallocation doubling -- peak RSS tracks the element count instead
///    of spiking to old+new during a copy-grow (the dominant transient in
///    the pre-SoA mesh core), and unused capacity is bounded by one chunk;
///  * stable addresses -- a `T&` stays valid across push_back, so the
///    Bowyer-Watson inner loops can hold references while appending fresh
///    triangles.
///
/// Growth and clear() keep every chunk (the cavity-arena discipline: grow,
/// clear, reuse); only truncate() frees the chunks past a new, smaller
/// size, which is how the refiner's slot compaction returns memory. The
/// index arithmetic is two shifts and a load; the chunk-pointer table is
/// small enough to stay cached (one entry per 2^kChunkPow elements). Not
/// thread-safe; the mesh has one writer at a time (the refiner's threaded
/// scan only reads).
template <typename T, unsigned kChunkPow = 14>
class ChunkedArray {
 public:
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkPow;
  static constexpr std::size_t kIndexMask = kChunkSize - 1;

  ChunkedArray() = default;
  ChunkedArray(ChunkedArray&&) noexcept = default;
  ChunkedArray& operator=(ChunkedArray&&) noexcept = default;
  ChunkedArray(const ChunkedArray& other) { *this = other; }
  ChunkedArray& operator=(const ChunkedArray& other) {
    if (this == &other) return *this;
    clear();
    reserve(other.size_);
    for (std::size_t i = 0; i < other.size_; ++i) push_back(other[i]);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    return chunks_[i >> kChunkPow][i & kIndexMask];
  }
  const T& operator[](std::size_t i) const {
    return chunks_[i >> kChunkPow][i & kIndexMask];
  }

  T& back() { return (*this)[size_ - 1]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& v) { emplace_back() = v; }

  T& emplace_back() {
    const std::size_t chunk = size_ >> kChunkPow;
    if (chunk == chunks_.size()) {
      chunks_.emplace_back(std::make_unique<T[]>(kChunkSize));
    }
    T& slot = chunks_[chunk][size_ & kIndexMask];
    ++size_;
    slot = T{};
    return slot;
  }

  /// Drop the elements but keep every chunk (arena reuse: the next fill of
  /// the same mesh touches the allocator only past the previous high-water
  /// mark).
  void clear() { size_ = 0; }

  /// Drop the elements past `n` (n <= size()) and free the chunks they
  /// leave empty. References to the dropped elements dangle.
  void truncate(std::size_t n) {
    size_ = n;
    chunks_.resize(chunk_count());
  }

  void resize(std::size_t n, const T& fill = T{}) {
    while (size_ < n) emplace_back() = fill;
    size_ = n;
  }

  void assign(std::size_t n, const T& fill) {
    size_ = 0;
    resize(n, fill);
  }

  void reserve(std::size_t n) {
    const std::size_t want = (n + kChunkSize - 1) >> kChunkPow;
    while (chunks_.size() < want) {
      chunks_.emplace_back(std::make_unique<T[]>(kChunkSize));
    }
  }

  // -- Chunk-level access (serialization / MeshView backing) ---------------
  /// Number of chunks covering [0, size).
  std::size_t chunk_count() const {
    return (size_ + kChunkSize - 1) >> kChunkPow;
  }
  /// Contiguous storage of chunk `c`; the last chunk holds
  /// `size() - c * kChunkSize` live elements.
  const T* chunk_data(std::size_t c) const { return chunks_[c].get(); }
  /// Live element count of chunk `c`.
  std::size_t chunk_len(std::size_t c) const {
    const std::size_t lo = c << kChunkPow;
    const std::size_t n = size_ - lo;
    return n < kChunkSize ? n : kChunkSize;
  }
  /// Table of chunk base pointers (for zero-copy views over the arena).
  const std::unique_ptr<T[]>* chunk_table() const { return chunks_.data(); }

  friend bool operator==(const ChunkedArray& a, const ChunkedArray& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace aero
