/// \file
/// \brief Bump allocator with scoped reset — the allocation backbone of the
/// per-worker sim::ScenarioWorkspace.
///
/// A sweep worker executes thousands of scenarios; each one historically
/// re-heap-allocated the same short-lived buffers (event schedules, queue
/// rings, recovery unit plans). An Arena turns that churn into pointer
/// bumps: allocate() carves from chunked blocks, reset() recycles every
/// block at once (no per-object frees, no destructor calls — callers only
/// place trivially-destructible data here), and capacity reached in early
/// scenarios is retained for later ones, so a worker's steady state does no
/// heap allocation at all.
///
/// Not thread-safe by design: each worker owns one arena (the runner gives
/// each worker loop a whole workspace, which runs one scenario at a
/// time).
#ifndef IMX_UTIL_ARENA_HPP
#define IMX_UTIL_ARENA_HPP

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/contracts.hpp"

namespace imx::util {

class Arena {
public:
    /// \param chunk_bytes granularity of the backing blocks; requests larger
    ///   than this get a dedicated block of their exact size.
    explicit Arena(std::size_t chunk_bytes = 64 * 1024);

    Arena(const Arena&) = delete;
    Arena& operator=(const Arena&) = delete;

    /// \brief Carve `bytes` with alignment `align` from the current block
    /// (O(1) pointer bump; grabs a new block when the current one is full).
    /// The returned memory is uninitialised and valid until the next
    /// reset(). `bytes == 0` returns a non-null, aligned pointer.
    [[nodiscard]] void* allocate(std::size_t bytes,
                                 std::size_t align = alignof(std::max_align_t));

    /// \brief Typed allocate: `count` default-uninitialised Ts. T must be
    /// trivially destructible — the arena never runs destructors.
    template <typename T>
    [[nodiscard]] T* allocate_array(std::size_t count) {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena memory is reclaimed without destructor calls");
        return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
    }

    /// \brief Recycle every block: all outstanding pointers are invalidated,
    /// all capacity is kept for reuse. O(#blocks), no frees.
    void reset();

    /// \brief Total bytes handed out since the last reset().
    [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }

    /// \brief Total backing capacity currently held (survives reset()).
    [[nodiscard]] std::size_t bytes_reserved() const;

    /// \brief RAII reset: restores the arena to empty on scope exit, so a
    /// scenario can scratch freely without leaking capacity bookkeeping into
    /// the next one.
    class Scope {
    public:
        explicit Scope(Arena& arena) : arena_(arena) {}
        ~Scope() { arena_.reset(); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Arena& arena_;
    };

private:
    struct Block {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    /// Make `blocks_[next_block_]` a block of at least `bytes`.
    void ensure_block(std::size_t bytes);

    std::size_t chunk_bytes_;
    std::vector<Block> blocks_;
    std::size_t next_block_ = 0;  ///< first block not yet opened
    std::byte* cursor_ = nullptr;
    std::byte* block_end_ = nullptr;
    std::size_t bytes_used_ = 0;
};

}  // namespace imx::util

#endif  // IMX_UTIL_ARENA_HPP
