/**
 * @file
 * Topology-aware off-chip interconnect between the host and N memory
 * cubes.
 *
 * The network is built once from a static topology (net/topology.hh)
 * into per-destination routing tables; every packet walks its route
 * store-and-forward, serializing over each link it crosses.  A link
 * is a unidirectional serialized channel with `linkN.flits`,
 * `linkN.bytes` and `linkN.busy_ticks` counters (utilization =
 * busy_ticks / sim ticks), so asymmetric saturation of a routed
 * network is observable per hop.
 *
 * The chain topology reproduces the paper's daisy chain exactly: one
 * whole-chain channel per direction (link0 = requests, link1 =
 * responses), each destination charged the propagation latency plus
 * one hop latency per cube it sits down the chain — tick-for-tick the
 * old single-link HmcLink behavior.
 *
 * Injected-traffic counters (`net.req.*` / `net.res.*`) count each
 * packet once, independent of how many links it traverses, so
 * conservation probes over the backend's request/response totals stay
 * exact on every topology; `net.req_hops` / `net.res_hops` account
 * network hops per packet (coherence traffic rides read/write/PIM
 * packets and is therefore covered).
 */

#ifndef PEISIM_NET_INTERCONNECT_HH
#define PEISIM_NET_INTERCONNECT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "net/topology.hh"
#include "sim/event_queue.hh"

namespace pei
{

/** Off-chip network configuration. */
struct NetConfig
{
    Topology topology = Topology::Chain;
    unsigned cubes = 1;
    double gbps = 40.0;       ///< per-link bandwidth, per direction
    double latency_ns = 2.0;  ///< host<->network propagation latency
    double hop_ns = 1.0;      ///< extra latency per network hop
    unsigned flit_bytes = 16;
};

/**
 * One unidirectional serialized channel.  transmit() occupies the
 * wire for wire_bytes/bandwidth starting no earlier than @p earliest
 * (and no earlier than the previous packet drains) and returns the
 * tick the last byte leaves.
 */
class NetLink
{
  public:
    NetLink(const std::string &name, double bytes_per_tick,
            StatRegistry &stats);

    Tick transmit(unsigned flits, unsigned wire_bytes, Tick earliest);

    const std::string &name() const { return name_; }
    std::uint64_t flits() const { return stat_flits.value(); }
    std::uint64_t bytes() const { return stat_bytes.value(); }
    std::uint64_t busyTicks() const { return stat_busy.value(); }

  private:
    std::string name_;
    double bytes_per_tick;
    Tick free_at = 0;

    Counter stat_flits;
    Counter stat_bytes;
    Counter stat_busy; ///< ticks the wire was occupied (utilization)
};

/** The host-to-cubes network: routing tables over NetLinks. */
class Interconnect
{
  public:
    Interconnect(EventQueue &eq, const NetConfig &cfg,
                 StatRegistry &stats);

    /** Send @p bytes host -> cube @p cube; returns arrival tick. */
    Tick sendRequest(unsigned bytes, unsigned cube);

    /** Send @p bytes cube @p cube -> host; returns arrival tick. */
    Tick sendResponse(unsigned bytes, unsigned cube);

    /**
     * Send a coalesced PEI train of @p peis operations in one
     * @p bytes-sized request packet (one compound header amortized
     * across the train).  Counted once in `net.req.*` like any other
     * packet, plus the `net.trains.*` family; returns arrival tick.
     */
    Tick sendRequestTrain(unsigned bytes, unsigned peis, unsigned cube);

    /** Response counterpart of sendRequestTrain. */
    Tick sendResponseTrain(unsigned bytes, unsigned peis, unsigned cube);

    /**
     * Latency of a posted (zero-payload) acknowledgement from
     * @p cube: the response route's propagation + per-hop latency
     * with no link occupancy (acks aggregate into idle flits).
     */
    Ticks ackLatency(unsigned cube) const;

    /** Network hops between the host port and @p cube. */
    unsigned hopCount(unsigned cube) const;

    unsigned flitsOf(unsigned bytes) const;

    unsigned numLinks() const
    {
        return static_cast<unsigned>(links.size());
    }
    const NetLink &link(unsigned i) const { return *links[i]; }

    /** Injected traffic totals (once per packet, any topology). */
    std::uint64_t requestFlits() const { return stat_req_flits.value(); }
    std::uint64_t requestBytes() const { return stat_req_bytes.value(); }
    std::uint64_t responseFlits() const { return stat_res_flits.value(); }
    std::uint64_t responseBytes() const { return stat_res_bytes.value(); }

    /** PEI-train totals (each train is one injected packet). */
    std::uint64_t requestTrains() const
    {
        return stat_train_req.value();
    }
    std::uint64_t responseTrains() const
    {
        return stat_train_res.value();
    }
    std::uint64_t trainPeis() const { return stat_train_peis.value(); }

  private:
    /** One link traversal of a route, plus its exit latency. */
    struct Hop
    {
        unsigned link;
        Ticks latency;
    };

    /** Static route to (or from) one cube. */
    struct Route
    {
        std::vector<Hop> path;
        unsigned hops = 0; ///< network hops (chain: cubes passed)
    };

    void buildChain();
    void buildRing();
    void buildMesh();
    unsigned addLink(const std::string &name);

    Tick send(const Route &route, unsigned bytes);

    EventQueue &eq;
    NetConfig cfg;
    double bytes_per_tick;
    Ticks prop_latency;
    Ticks hop_latency;

    std::vector<std::unique_ptr<NetLink>> links;
    std::vector<Route> req_routes; ///< host -> cube, per cube
    std::vector<Route> res_routes; ///< cube -> host, per cube
    StatRegistry &stats;

    Counter stat_req_flits;
    Counter stat_req_bytes;
    Counter stat_res_flits;
    Counter stat_res_bytes;
    Counter stat_req_hops; ///< network hops, summed per packet
    Counter stat_res_hops;
    Counter stat_train_req;  ///< coalesced PEI request trains sent
    Counter stat_train_res;  ///< train response packets sent
    Counter stat_train_peis; ///< PEIs carried by request trains
    std::uint64_t traversal_flits = 0; ///< flits x links crossed
};

} // namespace pei

#endif // PEISIM_NET_INTERCONNECT_HH
