/**
 * @file
 * Set-associative cache tag array with LRU replacement and the
 * directory metadata needed by the shared L3 (sharer vector, owner).
 *
 * The array tracks tags and coherence state only; functional data
 * lives in the backing store (VirtualMemory), which is the standard
 * decoupled functional/timing split for this class of simulator.
 */

#ifndef PEISIM_CACHE_CACHE_ARRAY_HH
#define PEISIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "common/bitutil.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace pei
{

/** MESI stable states for private-cache lines. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Returns a short name for a MESI state (for logs/tests). */
inline const char *
mesiName(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

/** One cache line's metadata. */
struct CacheLine
{
    Addr block = invalid_addr; ///< full block address (paddr >> 6)
    bool valid = false;
    bool dirty = false;
    MesiState state = MesiState::Invalid; ///< private caches only
    std::uint64_t last_use = 0;

    // Directory fields (shared L3 only).
    std::uint32_t sharers = 0; ///< bitmask of cores with a copy
    std::int8_t owner = -1;    ///< core holding E/M, or -1
};

/**
 * A set-associative array of CacheLine indexed by block address.
 * Block addresses are full physical addresses shifted by block_shift.
 */
class CacheArray
{
  public:
    CacheArray(std::uint64_t capacity_bytes, unsigned ways)
        : ways(ways),
          sets(static_cast<unsigned>(capacity_bytes / block_size / ways)),
          lines(static_cast<std::size_t>(sets) * ways)
    {
        fatal_if(ways == 0 || sets == 0 || !isPowerOf2(sets),
                 "bad cache geometry: %llu bytes, %u ways",
                 static_cast<unsigned long long>(capacity_bytes), ways);
    }

    unsigned numSets() const { return sets; }
    unsigned numWays() const { return ways; }

    /** Set index of @p block (a block address). */
    unsigned
    setIndex(Addr block) const
    {
        return static_cast<unsigned>(block & (sets - 1));
    }

    /**
     * Find a valid line holding @p block, or nullptr.  Invalid lines
     * hold invalid_addr, which no block address equals, so the tag
     * compare alone decides.
     */
    CacheLine *
    find(Addr block)
    {
        CacheLine *base = &lines[static_cast<std::size_t>(setIndex(block)) * ways];
        for (unsigned w = 0; w < ways; ++w) {
            if (base[w].block == block)
                return &base[w];
        }
        return nullptr;
    }

    /**
     * find() and victim() in one pass over @p block's set.  Returns
     * the line holding @p block and sets @p hit; otherwise clears
     * @p hit and returns exactly the line victim() would choose (the
     * first invalid way, else the first least-recently-used way).
     */
    CacheLine &
    findOrVictim(Addr block, bool &hit)
    {
        CacheLine *base = &lines[static_cast<std::size_t>(setIndex(block)) * ways];
        CacheLine *invalid = nullptr;
        CacheLine *lru = &base[0];
        for (unsigned w = 0; w < ways; ++w) {
            CacheLine &line = base[w];
            if (line.block == block) {
                hit = true;
                return line;
            }
            if (!line.valid) {
                if (!invalid)
                    invalid = &line;
            } else if (line.last_use < lru->last_use) {
                lru = &line;
            }
        }
        hit = false;
        return invalid ? *invalid : *lru;
    }

    /** Promote @p line to most-recently-used. */
    void
    touch(CacheLine &line)
    {
        line.last_use = ++use_clock;
    }

    /**
     * Choose a victim way in @p block's set: an invalid line if any,
     * else the LRU line.  The caller handles eviction of a valid
     * victim before reusing it.
     */
    CacheLine &
    victim(Addr block)
    {
        CacheLine *base = &lines[static_cast<std::size_t>(setIndex(block)) * ways];
        CacheLine *lru = &base[0];
        for (unsigned w = 0; w < ways; ++w) {
            if (!base[w].valid)
                return base[w];
            if (base[w].last_use < lru->last_use)
                lru = &base[w];
        }
        return *lru;
    }

    /** Reset @p line to hold @p block (valid, clean, no directory). */
    void
    fill(CacheLine &line, Addr block, MesiState state)
    {
        line.block = block;
        line.valid = true;
        line.dirty = false;
        line.state = state;
        line.sharers = 0;
        line.owner = -1;
        touch(line);
    }

    /** Invalidate @p line. */
    void
    invalidate(CacheLine &line)
    {
        line.valid = false;
        line.dirty = false;
        line.state = MesiState::Invalid;
        line.sharers = 0;
        line.owner = -1;
        line.block = invalid_addr;
    }

    /** Count of valid lines (test/debug helper; O(capacity)). */
    std::size_t
    validCount() const
    {
        std::size_t n = 0;
        for (const auto &l : lines)
            n += l.valid;
        return n;
    }

    /** Invoke @p fn on every valid line (test/debug helper). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &l : lines) {
            if (l.valid)
                fn(l);
        }
    }

  private:
    unsigned ways;
    unsigned sets;
    std::vector<CacheLine> lines;
    std::uint64_t use_clock = 0;
};

} // namespace pei

#endif // PEISIM_CACHE_CACHE_ARRAY_HH
