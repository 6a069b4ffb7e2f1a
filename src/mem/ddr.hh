/**
 * @file
 * Conventional DDR4-style main memory backend: a few channels of
 * ranked, bank-grouped DRAM behind per-channel FR-FCFS controllers
 * (modelled after the structure of DRAMsim3-class simulators).
 *
 * Unlike the HMC backend there is no logic die, so the backend
 * reports no PIM capability: the PMU degrades every PEI to host-side
 * execution, which is exactly the paper's "Host-Only" substrate on
 * commodity memory.  Channel timing honours tCL/tRCD/tRP plus the
 * inter-command constraints a flat vault model can ignore: tRAS
 * before precharge, tRRD_S/tRRD_L between activates, the rolling
 * four-activate tFAW window, and periodic tREFI/tRFC refresh.
 */

#ifndef PEISIM_MEM_DDR_HH
#define PEISIM_MEM_DDR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/addr_map.hh"
#include "mem/backend.hh"
#include "sim/continuation.hh"
#include "sim/event_queue.hh"
#include "sim/slot_pool.hh"

namespace pei
{

/** Timing/geometry knobs of the DDR backend (DDR4-2400-flavoured). */
struct DdrConfig
{
    unsigned channels = 4;        ///< independent channels (power of 2)
    unsigned bank_groups = 4;     ///< bank groups per channel
    unsigned banks_per_group = 4; ///< banks per bank group
    std::uint64_t row_bytes = 8192;

    double tCL_ns = 13.75;   ///< column access latency
    double tRCD_ns = 13.75;  ///< row activate latency
    double tRP_ns = 13.75;   ///< precharge latency
    double tRAS_ns = 32.0;   ///< min row-open time before precharge
    double tRRD_S_ns = 3.3;  ///< activate-to-activate, other group
    double tRRD_L_ns = 4.9;  ///< activate-to-activate, same group
    double tFAW_ns = 25.0;   ///< rolling four-activate window
    double tREFI_ns = 7800.0; ///< refresh interval
    double tRFC_ns = 350.0;  ///< refresh cycle time (all banks busy)

    /** Per-channel data-bus bandwidth, GB/s (DDR4-2400 x64). */
    double chan_gbps = 19.2;

    /** Write-queue drain hysteresis: drain from high down to low. */
    unsigned write_drain_low = 8;
    unsigned write_drain_high = 24;
};

class DdrBackend;

/**
 * One DDR channel: split read/write queues in front of a FR-FCFS
 * scheduler with write-drain hysteresis — reads have priority until
 * the write queue reaches the high watermark, then writes drain down
 * to the low watermark (writes are also issued opportunistically
 * whenever no read is waiting).
 */
class DdrChannel : public MemPort
{
  public:
    using Callback = Continuation;

    DdrChannel(EventQueue &eq, const DdrConfig &cfg, const AddrMap &map,
               unsigned chan_id, StatRegistry &stats);

    void accessBlock(Addr paddr, bool is_write, Callback cb) override;

    unsigned globalId() const override { return chan_id; }

    std::uint64_t reads() const { return stat_reads.value(); }
    std::uint64_t writes() const { return stat_writes.value(); }

    /** Retry-event accounting (scheduler wakeup hygiene). */
    std::uint64_t retryArms() const { return stat_retry_arms.value(); }
    std::uint64_t retryFires() const { return stat_retry_fires.value(); }
    std::uint64_t retryStale() const { return stat_retry_stale.value(); }

  private:
    struct Bank
    {
        std::int64_t open_row = -1;
        Tick free_at = 0;
        Tick ras_ready_at = 0; ///< earliest precharge of the open row
    };

    struct Request
    {
        Addr paddr;
        bool is_write;
        std::uint64_t row;
        unsigned bank;
        Callback cb;
    };

    /**
     * Earliest tick @p r could issue given bank/activate windows.
     * On a row conflict the activate happens tRP after the returned
     * start tick (precharge first), so tRRD_S/tRRD_L/tFAW gate the
     * *projected activate tick*, not the start tick — issue() places
     * the activate at start + tRP with the same projection.
     */
    Tick earliestStart(const Request &r, Tick now) const;
    void advanceRefresh(Tick now);
    void issue(Request req, Tick now);
    void trySchedule();
    void armRetry(Tick when);

    unsigned groupOf(unsigned bank) const
    {
        return bank / cfg.banks_per_group;
    }

    EventQueue &eq;
    DdrConfig cfg;
    const AddrMap &map;
    unsigned chan_id;

    Ticks t_cl, t_rcd, t_rp, t_ras, t_rrd_s, t_rrd_l, t_faw, t_refi,
        t_rfc, t_burst;

    std::deque<Request> read_q;
    std::deque<Request> write_q;
    std::vector<Bank> banks;
    std::deque<Tick> act_window; ///< last <=4 activate ticks (tFAW)
    std::vector<Tick> group_last_act;
    Tick any_last_act = 0;
    Tick bus_free_at = 0;
    Tick next_refresh;
    bool draining = false;
    bool retry_armed = false;
    Tick retry_at = max_tick;

    /**
     * Re-arming the retry earlier than a pending one abandons the
     * later event in the queue; the generation counter lets the
     * abandoned event recognize it is stale and no-op instead of
     * waking the scheduler spuriously.
     */
    std::uint64_t retry_gen = 0;

    Counter stat_reads;
    Counter stat_writes;
    Counter stat_activates;
    Counter stat_row_hits;
    Counter stat_refreshes;
    Counter stat_retry_arms;
    Counter stat_retry_fires;
    Counter stat_retry_stale;
    Histogram hist_queue_depth; ///< always recorded (new stats field)
};

/**
 * The channel-interleaved backend: decodes block addresses onto
 * channels (reusing the low-order interleave of AddrMap with one
 * "cube" and channels in the vault field) and exposes the aggregate
 * stats the driver and energy model consume.
 */
class DdrBackend : public MemoryBackend
{
  public:
    using Callback = Continuation;

    DdrBackend(EventQueue &eq, const DdrConfig &cfg, StatRegistry &stats,
               std::uint64_t phys_bytes = 0);

    const char *kind() const override { return "ddr"; }

    void readBlock(Addr paddr, Callback cb) override;
    void writeBlock(Addr paddr, Callback cb = nullptr) override;

    bool supportsPim() const override { return false; }
    unsigned pimUnits() const override { return 0; }
    MemPort &pimUnitPort(unsigned unit) override;
    void attachPimHandler(unsigned unit, PimHandler *handler) override;
    void sendPim(PimPacket pkt, PimHandler::Respond cb) override;

    const AddrMap &addrMap() const override { return map; }

    std::uint64_t memReads() const override;
    std::uint64_t memWrites() const override;

    DdrChannel &channel(unsigned c) { return *channels[c]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels.size());
    }

  private:
    struct ReadTxn
    {
        Tick issued;
        Callback cb;
    };

    void readDone(std::uint32_t txn);

    EventQueue &eq;
    DdrConfig cfg;
    AddrMap map;
    std::vector<std::unique_ptr<DdrChannel>> channels;
    SlotPool<ReadTxn> read_txns;

    Counter stat_reads;
    Counter stat_writes;
    Histogram hist_read_ticks; ///< demand read round trip
};

} // namespace pei

#endif // PEISIM_MEM_DDR_HH
