// Allocation-recycling arena for the FastLSA recursion hot path.
//
// The engine used to allocate at every recursion level — grid-row/column
// caches, tile boundary lines, cut vectors — and at every align() call —
// base-case buffer, per-worker scratch, boundary rows, path storage. The
// deeper FastLSA recurses (the very thing that makes it beat Hirschberg's
// 2x operation count), the more of its time went to the allocator instead
// of DPM cells. This header removes that cost in two layers:
//
//   * VectorPool<T> — a size-bucketed free list of std::vector<T> buffers.
//     acquire(n) returns a vector resized to n whose capacity is a power
//     of two >= n; release() files the buffer under floor(log2(capacity)),
//     so any buffer in bucket b satisfies any request with
//     ceil(log2(n)) == b. Grid lines of the many different sub-problem
//     sizes along the optimal path all recycle through the same buckets.
//   * EngineArena<CellT> — everything FastLsaEngine needs across one
//     align() call: the pool, per-recursion-depth LevelScratch (cut
//     vectors and line handles, reused each time the recursion re-enters
//     that depth), the Base Case buffers (direction bytes, tile lines and
//     tile table), per-worker sweep scratch, global boundary rows, and the
//     traceback path's storage.
//
// A FastLsaWorkspace bundles the linear and affine arenas and can be
// passed to align calls via FastLsaOptions::workspace. Reusing one
// workspace across calls makes every steady-state align() heap-allocation
// free inside the engine: after the first (warm-up) call every acquire is
// a pool hit. A workspace must not be shared by concurrent align calls;
// it is only ever touched from the coordinating thread (tile workers see
// pre-acquired buffers, never the pool).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "dp/counters.hpp"
#include "dp/gotoh.hpp"
#include "dp/path.hpp"
#include "scoring/matrix.hpp"
#include "support/assert.hpp"

namespace flsa {
namespace detail {

/// Size-bucketed free list of vector buffers (see the header comment).
template <typename T>
class VectorPool {
 public:
  /// A buffer of exactly `size` elements with capacity >= size. Freshly
  /// grown elements are value-initialized; recycled buffers keep stale
  /// contents (every consumer in the engine writes before reading).
  std::vector<T> acquire(std::size_t size) {
    const unsigned bucket = bucket_ceil(size);
    auto& shelf = shelves_[bucket];
    if (shelf.empty()) {
      ++misses_;
      std::vector<T> fresh;
      fresh.reserve(std::size_t{1} << bucket);
      fresh.resize(size);
      return fresh;
    }
    ++hits_;
    std::vector<T> v = std::move(shelf.back());
    shelf.pop_back();
    v.resize(size);
    return v;
  }

  /// Returns a buffer to the pool. Capacity-less vectors are dropped.
  void release(std::vector<T>&& v) {
    if (v.capacity() == 0) return;
    shelves_[bucket_floor(v.capacity())].push_back(std::move(v));
  }

  /// Fresh heap growths / recycled reuses since construction. A reused
  /// workspace reaches misses() == 0 per call after warm-up, which the
  /// arena tests and FastLsaStats::arena_pool_misses assert.
  std::uint64_t misses() const { return misses_; }
  std::uint64_t hits() const { return hits_; }

 private:
  static constexpr unsigned kBuckets = 48;

  static unsigned bucket_ceil(std::size_t n) {
    unsigned b = 0;
    while ((std::size_t{1} << b) < n) ++b;
    FLSA_ASSERT(b < kBuckets);
    return b;
  }
  static unsigned bucket_floor(std::size_t capacity) {
    unsigned b = 0;
    while ((std::size_t{2} << b) <= capacity) ++b;
    FLSA_ASSERT(b < kBuckets);
    return b;
  }

  std::array<std::vector<std::vector<T>>, kBuckets> shelves_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// RAII handle on a pooled buffer: returns it to its pool on destruction,
/// release(), or when overwritten. Move-only.
template <typename T>
class PooledVector {
 public:
  PooledVector() = default;
  PooledVector(std::vector<T>&& v, VectorPool<T>* pool)
      : v_(std::move(v)), pool_(pool) {}

  PooledVector(PooledVector&& other) noexcept
      : v_(std::move(other.v_)), pool_(other.pool_) {
    other.pool_ = nullptr;
    other.v_.clear();
  }
  PooledVector& operator=(PooledVector&& other) noexcept {
    if (this != &other) {
      release();
      v_ = std::move(other.v_);
      pool_ = other.pool_;
      other.pool_ = nullptr;
      other.v_.clear();
    }
    return *this;
  }
  PooledVector(const PooledVector&) = delete;
  PooledVector& operator=(const PooledVector&) = delete;
  ~PooledVector() { release(); }

  void release() {
    if (pool_ != nullptr) {
      pool_->release(std::move(v_));
      pool_ = nullptr;
    }
    v_.clear();
  }

  std::vector<T>& vec() { return v_; }
  const std::vector<T>& vec() const { return v_; }

 private:
  std::vector<T> v_;
  VectorPool<T>* pool_ = nullptr;
};

/// Per-recursion-depth scratch. solve() at depth d always uses level d's
/// scratch; the recursion is sequential (one active sub-problem per
/// depth), so each level's cut vectors and line-handle tables are reused
/// every time the recursion re-enters that depth, keeping their capacity.
template <typename CellT>
struct LevelScratch {
  // Block and tile cut positions (interior cuts; see engine.hpp).
  std::vector<std::size_t> block_rows, block_cols;
  std::vector<std::size_t> tile_rows, tile_cols;
  // Tile boundary lines during the fill; the block-cut subset is moved
  // into grid_rows/grid_cols for the recursion phase, the rest released.
  std::vector<PooledVector<CellT>> line_rows, line_cols;
  std::vector<PooledVector<CellT>> grid_rows, grid_cols;

  /// Grows a handle table, never shrinks it (empty handles are cheap).
  static void ensure(std::vector<PooledVector<CellT>>& handles,
                     std::size_t count) {
    if (handles.size() < count) handles.resize(count);
  }
};

/// One tile of a Base Case: its residue ranges within the sub-problem and
/// where its direction bytes and output score lines live in the arena.
struct BaseTile {
  std::size_t row0, rows, col0, cols;
  std::size_t dirs;    ///< offset of its direction bytes in base_dirs
  std::size_t bottom;  ///< offset of its bottom line (cols + 1 cells)
  std::size_t right;   ///< offset of its right line (rows + 1 cells)
};

/// Everything one FastLsaEngine<CellT> run needs from the heap.
template <typename CellT>
struct EngineArena {
  VectorPool<CellT> cell_pool;
  // Deque, not vector: level d's scratch stays referenced while deeper
  // levels are appended, and deque growth never moves existing elements.
  std::deque<LevelScratch<CellT>> level_storage;
  // Base Case: every tile's direction bytes, the tiles' bottom and right
  // score lines, the tile table and the cuts it is built from.
  std::vector<std::uint8_t> base_dirs;
  std::vector<CellT> base_lines;
  std::vector<BaseTile> base_tiles;
  std::vector<std::size_t> base_row_cuts, base_col_cuts;
  std::vector<std::vector<CellT>> scratch_bottom, scratch_right;
  std::vector<DpCounters> worker_counters;
  std::vector<CellT> boundary_top, boundary_left;
  std::vector<Move> path_storage;

  /// LevelScratch for recursion depth `depth` (created on first use).
  LevelScratch<CellT>& level(std::size_t depth) {
    while (level_storage.size() <= depth) level_storage.emplace_back();
    return level_storage[depth];
  }
};

}  // namespace detail

/// Reusable scratch for align calls (see the header comment). Not
/// thread-safe: one workspace per concurrently-aligning thread.
class FastLsaWorkspace {
 public:
  template <typename CellT>
  detail::EngineArena<CellT>& arena() {
    if constexpr (std::is_same_v<CellT, Score>) {
      return linear_;
    } else {
      static_assert(std::is_same_v<CellT, AffineCell>);
      return affine_;
    }
  }

  /// Aggregate pool statistics across both gap models (fresh heap growths
  /// vs recycled buffers; see VectorPool).
  std::uint64_t pool_misses() const {
    return linear_.cell_pool.misses() + affine_.cell_pool.misses();
  }
  std::uint64_t pool_hits() const {
    return linear_.cell_pool.hits() + affine_.cell_pool.hits();
  }

 private:
  detail::EngineArena<Score> linear_;
  detail::EngineArena<AffineCell> affine_;
};

}  // namespace flsa
