// Bump allocator for per-cycle transients.
//
// The Cluster's cycle walk stages transmission decisions and verdict
// buffers that live for exactly one communication cycle. A bump arena
// hands out trivially-destructible storage with a pointer increment
// and reclaims everything with a single reset at the cycle boundary,
// so the hot loop never touches the general-purpose heap after the
// first cycle warms the chunk list.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace coeff::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialised storage for `n` objects of T. T must be trivially
  /// destructible: reset() rewinds the bump pointer without running
  /// destructors.
  template <typename T>
  T* allocate(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is reclaimed without destructors");
    if (n == 0) return nullptr;
    const std::size_t bytes = n * sizeof(T);
    void* p = allocate_bytes(bytes, alignof(T));
    return static_cast<T*>(p);
  }

  /// Value-initialised array of `n` objects of T.
  template <typename T>
  T* allocate_zeroed(std::size_t n) {
    T* p = allocate<T>(n);
    for (std::size_t i = 0; i < n; ++i) ::new (p + i) T{};
    return p;
  }

  /// Rewind all chunks; previously returned pointers become invalid.
  /// Chunk storage is retained for reuse.
  void reset() {
    for (auto& chunk : chunks_) chunk.used = 0;
    current_ = 0;
  }

  [[nodiscard]] std::size_t bytes_reserved() const {
    std::size_t total = 0;
    for (const auto& chunk : chunks_) total += chunk.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_bytes(std::size_t bytes, std::size_t align) {
    while (current_ < chunks_.size()) {
      Chunk& chunk = chunks_[current_];
      const std::size_t aligned =
          (chunk.used + align - 1) & ~(align - 1);
      if (aligned + bytes <= chunk.size) {
        chunk.used = aligned + bytes;
        return chunk.data.get() + aligned;
      }
      ++current_;
    }
    const std::size_t size = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
    Chunk chunk;
    chunk.data = std::make_unique<std::byte[]>(size);
    chunk.size = size;
    chunk.used = bytes;
    chunks_.push_back(std::move(chunk));
    current_ = chunks_.size() - 1;
    return chunks_.back().data.get();
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
};

}  // namespace coeff::sim
