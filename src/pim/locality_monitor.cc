#include "locality_monitor.hh"

#include "common/logging.hh"

namespace pei
{

LocalityMonitor::LocalityMonitor(unsigned sets, unsigned ways,
                                 StatRegistry &stats,
                                 unsigned partial_tag_bits,
                                 bool use_ignore_flag,
                                 const std::string &name)
    : sets(sets), ways(ways), set_bits(floorLog2(sets)),
      tag_bits(partial_tag_bits), use_ignore_flag(use_ignore_flag),
      array(static_cast<std::size_t>(sets) * ways)
{
    fatal_if(!isPowerOf2(sets) || ways == 0,
             "bad locality monitor geometry %ux%u", sets, ways);
    stats.add(name + ".lookups", &stat_lookups);
    stats.add(name + ".hits", &stat_hits);
    stats.add(name + ".misses", &stat_misses);
    stats.add(name + ".ignored_hits", &stat_ignored_hits);
    stats.addInvariant(
        name + ".hits + misses + ignored_hits == lookups",
        [this] {
            const std::uint64_t parts = stat_hits.value() +
                                        stat_misses.value() +
                                        stat_ignored_hits.value();
            if (parts == stat_lookups.value())
                return std::string();
            return "hits=" + std::to_string(stat_hits.value()) +
                   " misses=" + std::to_string(stat_misses.value()) +
                   " ignored_hits=" +
                   std::to_string(stat_ignored_hits.value()) +
                   " sum to " + std::to_string(parts) + " != lookups=" +
                   std::to_string(stat_lookups.value());
        });
}

LocalityMonitor::Entry *
LocalityMonitor::find(Addr block)
{
    Entry *base = &array[static_cast<std::size_t>(setOf(block)) * ways];
    const std::uint32_t tag = tagOf(block);
    for (unsigned w = 0; w < ways; ++w) {
        if (base[w].valid && base[w].partial_tag == tag)
            return &base[w];
    }
    return nullptr;
}

bool
LocalityMonitor::lookupForPei(Addr block)
{
    ++stat_lookups;
    Entry *e = find(block);
    if (!e) {
        ++stat_misses;
        return false;
    }
    if (use_ignore_flag && e->ignore) {
        // First hit on a PIM-allocated entry does not count as high
        // locality, but clears the flag so subsequent hits do.  It is
        // an ignored hit, not a miss: the three outcome counters
        // partition lookups disjointly.
        e->ignore = false;
        ++stat_ignored_hits;
        return false;
    }
    ++stat_hits;
    return true;
}

void
LocalityMonitor::insertOrPromote(Addr block, bool from_pim)
{
    // One pass over the set finds the hit, else the allocation
    // victim: the first invalid entry, else the first LRU entry.
    Entry *base = &array[static_cast<std::size_t>(setOf(block)) * ways];
    const std::uint32_t tag = tagOf(block);
    Entry *invalid = nullptr;
    Entry *lru = &base[0];
    for (unsigned w = 0; w < ways; ++w) {
        Entry &e = base[w];
        if (!e.valid) {
            if (!invalid)
                invalid = &e;
        } else if (e.partial_tag == tag) {
            e.last_use = ++use_clock;
            if (!from_pim)
                e.ignore = false; // demand accesses clear the flag
            return;
        } else if (e.last_use < lru->last_use) {
            lru = &e;
        }
    }
    Entry *victim = invalid ? invalid : lru;
    victim->valid = true;
    victim->partial_tag = tag;
    victim->ignore = from_pim && use_ignore_flag;
    victim->last_use = ++use_clock;
}

void
LocalityMonitor::onL3Access(Addr block)
{
    insertOrPromote(block, false);
}

void
LocalityMonitor::onPimIssue(Addr block)
{
    insertOrPromote(block, true);
}

} // namespace pei
