/**
 * @file
 * Recycling node arena for the runtime hot path.
 *
 * Every chunk op that flows through a dimension engine inserts and
 * erases nodes in the pending store, the active map and its delay
 * multiset — with std::allocator that is one malloc and one
 * free per node per op, and over a multi-iteration training run the
 * nodes scatter across the heap. The arena hands out fixed-size
 * blocks carved from chunked slabs and recycles freed blocks through
 * per-size free lists: after the first iteration has shaped the pool,
 * steady-state iterations allocate nothing and every node of one
 * engine lives in a handful of contiguous slabs.
 *
 * Single-threaded by design (each engine owns one arena, and an
 * engine lives on exactly one simulation thread). Memory is returned
 * to the OS only when the arena is destroyed — an explicit epoch
 * "reset" is unnecessary because recycling is continuous; the pool's
 * high-water mark is the iteration shape.
 */

#ifndef THEMIS_COMMON_ARENA_HPP
#define THEMIS_COMMON_ARENA_HPP

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "common/error.hpp"

namespace themis {

/** Chunked fixed-block pool with per-size free lists; see above. */
class NodeArena
{
  public:
    /** Block granularity; also the alignment every block satisfies. */
    static constexpr std::size_t kGranularity =
        alignof(std::max_align_t);

    /** Largest block served from the pool (larger -> operator new). */
    static constexpr std::size_t kMaxBlock = 512;

    /** Slab size; amortizes the underlying allocation. */
    static constexpr std::size_t kSlabBytes = 64 * 1024;

    NodeArena() : free_heads_(kMaxBlock / kGranularity, nullptr) {}
    NodeArena(const NodeArena&) = delete;
    NodeArena& operator=(const NodeArena&) = delete;

    void*
    allocate(std::size_t bytes)
    {
        if (bytes > kMaxBlock)
            return ::operator new(bytes);
        const std::size_t cls = sizeClass(bytes);
        if (void* p = free_heads_[cls]) {
            free_heads_[cls] = *static_cast<void**>(p);
            return p;
        }
        const std::size_t block = (cls + 1) * kGranularity;
        if (slab_remaining_ < block) {
            slabs_.push_back(
                std::make_unique<unsigned char[]>(kSlabBytes));
            slab_cursor_ = slabs_.back().get();
            slab_remaining_ = kSlabBytes;
        }
        void* p = slab_cursor_;
        slab_cursor_ += block;
        slab_remaining_ -= block;
        return p;
    }

    void
    deallocate(void* p, std::size_t bytes)
    {
        if (p == nullptr)
            return;
        if (bytes > kMaxBlock) {
            ::operator delete(p);
            return;
        }
        const std::size_t cls = sizeClass(bytes);
        *static_cast<void**>(p) = free_heads_[cls];
        free_heads_[cls] = p;
    }

    /** Slabs allocated so far (a flat count across epochs proves the
     *  pool reached its high-water mark). */
    std::size_t slabCount() const { return slabs_.size(); }

  private:
    static std::size_t
    sizeClass(std::size_t bytes)
    {
        if (bytes == 0)
            bytes = 1;
        return (bytes - 1) / kGranularity;
    }

    std::vector<std::unique_ptr<unsigned char[]>> slabs_;
    unsigned char* slab_cursor_ = nullptr;
    std::size_t slab_remaining_ = 0;
    /** Intrusive free-list heads, one per block size class. */
    std::vector<void*> free_heads_;
};

/**
 * std::allocator-compatible adapter over a NodeArena. The arena must
 * outlive every container constructed with the allocator. Allocators
 * compare equal iff they share the arena.
 */
template <typename T>
class ArenaAllocator
{
  public:
    using value_type = T;

    static_assert(alignof(T) <= NodeArena::kGranularity,
                  "over-aligned type in arena container");

    explicit ArenaAllocator(NodeArena* arena) : arena_(arena)
    {
        THEMIS_ASSERT(arena != nullptr, "null arena");
    }

    template <typename U>
    ArenaAllocator(const ArenaAllocator<U>& o) : arena_(o.arena())
    {
    }

    T*
    allocate(std::size_t n)
    {
        return static_cast<T*>(arena_->allocate(n * sizeof(T)));
    }

    void
    deallocate(T* p, std::size_t n)
    {
        arena_->deallocate(p, n * sizeof(T));
    }

    NodeArena* arena() const { return arena_; }

    template <typename U>
    bool
    operator==(const ArenaAllocator<U>& o) const
    {
        return arena_ == o.arena();
    }

    template <typename U>
    bool
    operator!=(const ArenaAllocator<U>& o) const
    {
        return arena_ != o.arena();
    }

  private:
    NodeArena* arena_;
};

} // namespace themis

#endif // THEMIS_COMMON_ARENA_HPP
