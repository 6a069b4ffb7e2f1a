/**
 * @file
 * Virtual memory: page table, allocation, functional backing store,
 * and a small per-core TLB model.
 *
 * PEIs and normal instructions both operate on virtual addresses
 * (paper §3.2/§4.4); translation happens at the host core using its
 * TLB, so the PMU and all PCUs see physical addresses only.  Pages
 * are backed by real host memory so workloads execute functionally
 * and their outputs can be validated against reference code.
 */

#ifndef PEISIM_MEM_VMEM_HH
#define PEISIM_MEM_VMEM_HH

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pei
{

/** Page geometry: 4 KiB pages throughout. */
constexpr unsigned page_shift = 12;
constexpr std::uint64_t page_size = 1ULL << page_shift;

/**
 * Single-address-space virtual memory with demand-free eager mapping:
 * alloc() assigns virtual pages and immediately binds physical frames
 * (frames are assigned sequentially; fine-grained interleaving across
 * vaults happens in the physical address map).
 */
class VirtualMemory
{
  public:
    explicit VirtualMemory(std::uint64_t phys_bytes)
        : phys_limit(phys_bytes)
    {}

    /**
     * Allocate @p bytes of virtual memory aligned to @p align
     * (>= one cache block).  Returns the virtual base address.
     */
    Addr alloc(std::uint64_t bytes, std::uint64_t align = block_size);

    /** Translate; fatal on unmapped access (simulated segfault). */
    Addr translate(Addr vaddr) const;

    /** Virtual page number of the page backing @p vaddr. */
    static Addr vpn(Addr vaddr) { return vaddr >> page_shift; }

    /** Host pointer backing @p vaddr; valid within its page. */
    void *hostPtr(Addr vaddr);
    const void *hostPtr(Addr vaddr) const;

    /** Functional read of a POD value at @p vaddr. */
    template <typename T>
    T
    read(Addr vaddr) const
    {
        T out;
        readBytes(vaddr, &out, sizeof(T));
        return out;
    }

    /** Functional write of a POD value at @p vaddr. */
    template <typename T>
    void
    write(Addr vaddr, const T &value)
    {
        writeBytes(vaddr, &value, sizeof(T));
    }

    /**
     * Set-up bulk write: stores gen(0), ..., gen(count - 1) as
     * consecutive Ts from @p vaddr, straight into the backing frames
     * one page at a time, so materializing an input array costs one
     * page-table lookup per page and no staging buffer.  An element
     * that straddles a page boundary goes through writeBytes().
     */
    template <typename T, typename Gen>
    void
    writeArray(Addr vaddr, std::uint64_t count, Gen &&gen)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint64_t i = 0;
        while (i < count) {
            const std::uint64_t off = vaddr & (page_size - 1);
            const std::uint64_t fit = std::min<std::uint64_t>(
                count - i, (page_size - off) / sizeof(T));
            if (fit == 0) {
                const T value = gen(i++);
                writeBytes(vaddr, &value, sizeof(T));
                vaddr += sizeof(T);
                continue;
            }
            std::byte *dst = frames[pfnOf(vaddr)].data.get() + off;
            for (const std::uint64_t end = i + fit; i < end; ++i) {
                const T value = gen(i);
                std::memcpy(dst, &value, sizeof(T));
                dst += sizeof(T);
            }
            vaddr += fit * sizeof(T);
        }
    }

    /** Functional bulk read; may cross page boundaries. */
    void readBytes(Addr vaddr, void *dst, std::uint64_t size) const;

    /** Functional bulk write; may cross page boundaries. */
    void writeBytes(Addr vaddr, const void *src, std::uint64_t size);

    /**
     * Host pointer backing physical address @p paddr.  Memory-side
     * PCUs and caches operate on physical addresses only (paper
     * §4.4); accesses must stay within one page.
     */
    void *
    hostPtrPhys(Addr paddr)
    {
        const std::uint64_t pfn = paddr >> page_shift;
        fatal_if(pfn >= frames.size(),
                 "access to unmapped physical address 0x%llx",
                 static_cast<unsigned long long>(paddr));
        return frames[pfn].data.get() + (paddr & (page_size - 1));
    }

    /** Functional read of a POD value at physical @p paddr. */
    template <typename T>
    T
    readPhys(Addr paddr)
    {
        T out;
        std::memcpy(&out, hostPtrPhys(paddr), sizeof(T));
        return out;
    }

    /** Functional write of a POD value at physical @p paddr. */
    template <typename T>
    void
    writePhys(Addr paddr, const T &value)
    {
        std::memcpy(hostPtrPhys(paddr), &value, sizeof(T));
    }

    /** Bytes of virtual memory allocated so far. */
    std::uint64_t allocatedBytes() const { return next_vaddr - base_vaddr; }

    /** Number of mapped pages. */
    std::size_t mappedPages() const { return frames.size(); }

  private:
    struct Frame
    {
        std::unique_ptr<std::byte[]> data;
    };

    const std::byte *framePtr(Addr vaddr) const;

    /** pfn of @p vaddr's page; fatal if the page is unmapped. */
    std::uint64_t
    pfnOf(Addr vaddr) const
    {
        const Addr index = vpn(vaddr) - base_vpn; // wraps below base
        fatal_if(index >= page_table.size() || page_table[index] == unmapped,
                 "access to unmapped virtual address 0x%llx",
                 static_cast<unsigned long long>(vaddr));
        return page_table[index];
    }

    std::uint64_t phys_limit;
    // Start allocations away from 0 so that null-ish addresses fault.
    static constexpr Addr base_vaddr = 0x10000;
    static constexpr Addr base_vpn = base_vaddr >> page_shift;
    /** Page-table entry of a page alloc() skipped for alignment. */
    static constexpr std::uint64_t unmapped = ~std::uint64_t{0};
    Addr next_vaddr = base_vaddr;
    /**
     * Flat page table: vpn - base_vpn -> pfn.  alloc() is a bump
     * allocator, so the mapped range is dense from base_vpn up.
     */
    std::vector<std::uint64_t> page_table;
    std::vector<Frame> frames; // pfn -> storage
};

/**
 * Per-core TLB: fully-associative, LRU, with a fixed page-walk
 * penalty on miss.  Returns the access latency contribution of
 * translation for a memory operation or PEI issue.
 *
 * Shaped like the hardware: a fixed file of `entries` tags.  A small
 * open-addressed vpn index stands in for the CAM's match lines, and
 * an intrusive list keeps the entries in recency order.  Free entries
 * fill first; once none is left, a miss replaces the least recently
 * used page.  Both are O(1) per access.
 */
class Tlb
{
  public:
    Tlb(unsigned entries, Ticks walk_latency);

    /**
     * Look up @p vaddr; updates LRU state and miss counters.
     * @return extra latency in ticks (0 on hit).
     */
    Ticks access(Addr vaddr);

    std::uint64_t hits() const { return hit_count; }
    std::uint64_t misses() const { return miss_count; }

  private:
    /** An empty index slot. */
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    /** Home slot of @p page in the index (Fibonacci hashing). */
    std::size_t
    home(Addr page) const
    {
        return (page * 0x9E3779B97F4A7C15ULL) >> index_shift;
    }

    /** First empty slot on @p page's probe run. */
    std::size_t freeSlot(Addr page) const;

    /** Drop @p page from the index, closing the gap it leaves. */
    void unindex(Addr page);

    void unlink(std::uint32_t e);
    void pushMru(std::uint32_t e);

    std::vector<Addr> vpns;           ///< entry -> cached vpn
    std::vector<std::uint32_t> index; ///< slot -> entry (or none)
    unsigned index_shift;
    /** Recency list, most recent first; [entries] is its head. */
    std::vector<std::uint32_t> prev, next;
    std::uint32_t used = 0; ///< entries filled so far
    Ticks walk_latency;
    std::uint64_t hit_count = 0;
    std::uint64_t miss_count = 0;
};

} // namespace pei

#endif // PEISIM_MEM_VMEM_HH
