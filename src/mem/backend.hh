/**
 * @file
 * The memory-backend seam: every consumer of main memory — the cache
 * hierarchy (block fills/writebacks), the PMU (PIM-packet dispatch,
 * §7.4 balanced-dispatch link accounting), the memory-side PCUs
 * (per-unit DRAM ports), the driver metrics, the simfuzz probes and
 * the energy model — talks to this abstract interface, never to a
 * concrete memory model.
 *
 * Three backends implement it:
 *  - HmcBackend (mem/hmc.hh): the paper's Table 2 substrate — cubes
 *    of vaults behind daisy-chained packetized links;
 *  - DdrBackend (mem/ddr.hh): a DRAMsim3-inspired channel/rank/
 *    bank-group model (no PIM capability — PEIs degrade to host-side
 *    execution);
 *  - IdealBackend (mem/ideal_mem.hh): fixed latency, infinite
 *    bandwidth.
 *
 * Backends are constructed through a string-keyed factory registry
 * (createMemoryBackend), which is what `--mem-backend=hmc|ddr|ideal`
 * selects at every entry point.
 */

#ifndef PEISIM_MEM_BACKEND_HH
#define PEISIM_MEM_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/pim_iface.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"

namespace pei
{

/**
 * A timing port into one memory partition (an HMC vault, an ideal
 * slice): the interface a memory-side PCU uses to reach "its" DRAM
 * without knowing the backend's concrete vault/channel type.
 */
class MemPort
{
  public:
    using Callback = Continuation;

    virtual ~MemPort() = default;

    /**
     * Timing access to the block containing @p paddr.  @p cb fires
     * when read data is available at the port / the write has been
     * committed.
     */
    virtual void accessBlock(Addr paddr, bool is_write, Callback cb) = 0;

    /** System-wide index of this port's partition (stat naming). */
    virtual unsigned globalId() const = 0;
};

/**
 * Abstract main-memory backend.  Timing block access and address
 * decomposition are mandatory; PIM dispatch is a capability
 * (supportsPim) — on non-PIM backends the PMU degrades every PEI to
 * host-side execution; link/flit accounting defaults to zero for
 * backends without a packetized off-chip interface (the §7.4
 * balanced-dispatch inputs and the probes' conservation checks
 * degenerate safely at zero).
 */
class MemoryBackend
{
  public:
    using Callback = Continuation;

    virtual ~MemoryBackend() = default;

    /** Registry key this backend was created under ("hmc", ...). */
    virtual const char *kind() const = 0;

    // --- timing block access -------------------------------------

    /** Fetch the block containing @p paddr; @p cb fires on arrival. */
    virtual void readBlock(Addr paddr, Callback cb) = 0;

    /** Write back the block containing @p paddr; @p cb optional. */
    virtual void writeBlock(Addr paddr, Callback cb = nullptr) = 0;

    // --- PIM-packet dispatch (capability) ------------------------

    /** Can this backend execute PIM operations near memory? */
    virtual bool supportsPim() const = 0;

    /** Number of PIM execution sites (0 when !supportsPim()). */
    virtual unsigned pimUnits() const = 0;

    /** DRAM port of PIM unit @p unit (for its memory-side PCU). */
    virtual MemPort &pimUnitPort(unsigned unit) = 0;

    /** Register the memory-side PCU serving @p unit. */
    virtual void attachPimHandler(unsigned unit, PimHandler *handler) = 0;

    /**
     * Dispatch a PIM operation to the unit owning its target block;
     * @p cb receives the completed packet (output operands filled).
     */
    virtual void sendPim(PimPacket pkt, PimHandler::Respond cb) = 0;

    /**
     * Dispatch a coalesced same-unit train of @p n PIM operations
     * (PMU batching window).  cbs[i] receives packet i's completion.
     * The default degrades to n individual sendPim dispatches;
     * packetized backends override to share one request/response
     * packet per train (header flits amortized).
     */
    virtual void
    sendPimTrain(PimPacket *pkts, unsigned n, PimHandler::Respond *cbs)
    {
        for (unsigned i = 0; i < n; ++i)
            sendPim(std::move(pkts[i]), std::move(cbs[i]));
    }

    // --- address decomposition -----------------------------------

    virtual const AddrMap &addrMap() const = 0;

    // --- link/flit accounting (§7.4 balanced dispatch + probes) ---

    /** EMA of request-link flits (balanced dispatch input). */
    virtual double emaRequestFlits() { return 0.0; }

    /** EMA of response-link flits (balanced dispatch input). */
    virtual double emaResponseFlits() { return 0.0; }

    /** Raw per-direction off-chip flit counters (probe hooks). */
    virtual std::uint64_t requestFlits() const { return 0; }
    virtual std::uint64_t responseFlits() const { return 0; }

    /** Raw per-direction off-chip byte counters. */
    virtual std::uint64_t requestBytes() const { return 0; }
    virtual std::uint64_t responseBytes() const { return 0; }

    std::uint64_t offChipBytes() const
    {
        return requestBytes() + responseBytes();
    }

    // --- stats / energy hooks ------------------------------------

    /** Completed block reads at the memory arrays (all ports). */
    virtual std::uint64_t memReads() const = 0;

    /** Committed block writes at the memory arrays (all ports). */
    virtual std::uint64_t memWrites() const = 0;
};

// --- string-keyed factory registry -------------------------------

/** Aggregate of every backend's config (mem/backend_config.hh). */
struct MemBackendConfig;

using MemBackendFactory = std::unique_ptr<MemoryBackend> (*)(
    EventQueue &eq, const MemBackendConfig &cfg, StatRegistry &stats);

/**
 * Register @p factory under @p name (extension hook; the built-in
 * backends self-register on first createMemoryBackend call).
 * Re-registering a name replaces the previous factory.
 */
void registerMemoryBackend(const std::string &name,
                           MemBackendFactory factory);

/** Sorted names of every registered backend (incl. built-ins). */
std::vector<std::string> memoryBackendNames();

/**
 * Construct the backend registered under @p name; fatal on an
 * unknown name (the error lists the registered backends).  The
 * backend schedules every stage on @p eq.
 */
std::unique_ptr<MemoryBackend> createMemoryBackend(
    const std::string &name, EventQueue &eq, const MemBackendConfig &cfg,
    StatRegistry &stats);

} // namespace pei

#endif // PEISIM_MEM_BACKEND_HH
