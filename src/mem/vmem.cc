#include "vmem.hh"

#include <algorithm>

#include "common/bitutil.hh"

namespace pei
{

Addr
VirtualMemory::alloc(std::uint64_t bytes, std::uint64_t align)
{
    fatal_if(bytes == 0, "zero-byte allocation");
    align = std::max<std::uint64_t>(align, block_size);
    next_vaddr = (next_vaddr + align - 1) & ~(align - 1);
    const Addr base = next_vaddr;
    next_vaddr += bytes;

    // Map every page in [base, base + bytes).
    const Addr first = vpn(base) - base_vpn;
    const Addr last = vpn(base + bytes - 1) - base_vpn;
    if (last >= page_table.size())
        page_table.resize(last + 1, unmapped);
    for (Addr p = first; p <= last; ++p) {
        if (page_table[p] != unmapped)
            continue;
        fatal_if((frames.size() + 1) * page_size > phys_limit,
                 "out of simulated physical memory (%llu bytes)",
                 static_cast<unsigned long long>(phys_limit));
        page_table[p] = frames.size();
        // make_unique value-initializes: the frame starts zeroed.
        frames.push_back(Frame{std::make_unique<std::byte[]>(page_size)});
    }
    return base;
}

Addr
VirtualMemory::translate(Addr vaddr) const
{
    return (pfnOf(vaddr) << page_shift) | (vaddr & (page_size - 1));
}

const std::byte *
VirtualMemory::framePtr(Addr vaddr) const
{
    return frames[pfnOf(vaddr)].data.get() + (vaddr & (page_size - 1));
}

void *
VirtualMemory::hostPtr(Addr vaddr)
{
    return const_cast<std::byte *>(framePtr(vaddr));
}

const void *
VirtualMemory::hostPtr(Addr vaddr) const
{
    return framePtr(vaddr);
}

void
VirtualMemory::readBytes(Addr vaddr, void *dst, std::uint64_t size) const
{
    auto *out = static_cast<std::byte *>(dst);
    while (size > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(size, page_size - (vaddr & (page_size - 1)));
        std::memcpy(out, framePtr(vaddr), in_page);
        vaddr += in_page;
        out += in_page;
        size -= in_page;
    }
}

void
VirtualMemory::writeBytes(Addr vaddr, const void *src, std::uint64_t size)
{
    auto *in = static_cast<const std::byte *>(src);
    while (size > 0) {
        const std::uint64_t in_page =
            std::min<std::uint64_t>(size, page_size - (vaddr & (page_size - 1)));
        std::memcpy(const_cast<std::byte *>(framePtr(vaddr)), in, in_page);
        vaddr += in_page;
        in += in_page;
        size -= in_page;
    }
}

Tlb::Tlb(unsigned entries, Ticks walk_latency)
    : vpns(entries), prev(entries + 1), next(entries + 1),
      walk_latency(walk_latency)
{
    fatal_if(entries == 0, "a TLB needs at least one entry");
    // At most half the slots are taken, so probe runs stay short.
    const unsigned bits = ceilLog2(2 * std::uint64_t{entries});
    index.assign(std::size_t{1} << bits, none);
    index_shift = 64 - bits;
    prev[entries] = next[entries] = entries;
}

std::size_t
Tlb::freeSlot(Addr page) const
{
    std::size_t slot = home(page);
    while (index[slot] != none)
        slot = (slot + 1) & (index.size() - 1);
    return slot;
}

void
Tlb::unindex(Addr page)
{
    const std::size_t mask = index.size() - 1;
    std::size_t hole = home(page);
    while (vpns[index[hole]] != page)
        hole = (hole + 1) & mask;
    // Backward-shift deletion: pull each later member of the probe
    // run into the hole when the hole lies between its home and it.
    for (std::size_t s = (hole + 1) & mask; index[s] != none;
         s = (s + 1) & mask) {
        if (((s - home(vpns[index[s]])) & mask) >= ((s - hole) & mask)) {
            index[hole] = index[s];
            hole = s;
        }
    }
    index[hole] = none;
}

void
Tlb::unlink(std::uint32_t e)
{
    next[prev[e]] = next[e];
    prev[next[e]] = prev[e];
}

void
Tlb::pushMru(std::uint32_t e)
{
    const std::uint32_t head = static_cast<std::uint32_t>(vpns.size());
    prev[e] = head;
    next[e] = next[head];
    prev[next[head]] = e;
    next[head] = e;
}

Ticks
Tlb::access(Addr vaddr)
{
    const Addr page = VirtualMemory::vpn(vaddr);
    const std::size_t mask = index.size() - 1;
    for (std::size_t slot = home(page); index[slot] != none;
         slot = (slot + 1) & mask) {
        const std::uint32_t e = index[slot];
        if (vpns[e] == page) {
            unlink(e);
            pushMru(e);
            ++hit_count;
            return 0;
        }
    }
    ++miss_count;
    std::uint32_t victim;
    if (used < vpns.size()) {
        victim = used++;
    } else {
        victim = prev[vpns.size()]; // the list's tail
        unlink(victim);
        unindex(vpns[victim]);
    }
    vpns[victim] = page;
    index[freeSlot(page)] = victim;
    pushMru(victim);
    return walk_latency;
}

} // namespace pei
