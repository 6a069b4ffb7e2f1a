#include "vmem.hh"

#include <algorithm>

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

Ticks
Tlb::access(Addr vaddr)
{
    const Addr page = VirtualMemory::vpn(vaddr);
    ++tick;
    if (const auto it = std::find(vpns.begin(), vpns.end(), page);
        it != vpns.end()) {
        stamps[it - vpns.begin()] = tick;
        ++hit_count;
        return 0;
    }
    ++miss_count;
    const std::size_t victim =
        std::min_element(stamps.begin(), stamps.end()) - stamps.begin();
    vpns[victim] = page;
    stamps[victim] = tick;
    return walk_latency;
}

} // namespace pei
