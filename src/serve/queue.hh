/**
 * @file
 * Multi-tenant bounded request queues with a pluggable admission
 * policy.
 *
 * Each tenant owns one bounded FIFO deque; push() sheds (returns
 * false) when the tenant's queue is at its cap, which bounds both
 * memory and the worst-case queueing delay a tenant can build up.
 * pop() implements the admission policy:
 *
 *  - Fifo: global arrival order — the head request with the smallest
 *    (enqueue_tick, id) across tenants wins.
 *  - WeightedFair: start-time fair queueing with unit request cost.
 *    Each tenant carries a virtual finish time; pop() picks the
 *    backlogged tenant with the smallest max(vfinish, vnow) (ties to
 *    the lower tenant id) and advances its vfinish by 1/weight.
 *    vnow tracks the last admitted start so a long-idle tenant
 *    re-enters at the current virtual time instead of burning
 *    accumulated credit.
 *
 * Everything is plain single-threaded simulation state driven from
 * coroutines on the System's event queue — determinism comes for
 * free.
 */

#ifndef PEISIM_SERVE_QUEUE_HH
#define PEISIM_SERVE_QUEUE_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "serve/request.hh"
#include "serve/traffic.hh"

namespace pei
{

enum class SchedPolicy : std::uint8_t
{
    Fifo,
    WeightedFair,
};

inline const char *
schedPolicyName(SchedPolicy p)
{
    switch (p) {
      case SchedPolicy::Fifo: return "fifo";
      case SchedPolicy::WeightedFair: return "weighted_fair";
    }
    return "?";
}

class TenantQueues
{
  public:
    TenantQueues(const std::vector<TenantTraffic> &tenants,
                 SchedPolicy policy);

    /** Append @p r to its tenant's queue; false = shed (queue full). */
    bool push(Request *r);

    /** Admit the next request per policy; nullptr when all empty. */
    Request *pop();

    /** No further arrivals will come (workers drain, then exit). */
    void close() { closed_ = true; }
    bool closed() const { return closed_; }

    bool empty() const { return queued_ == 0; }
    std::uint64_t queued() const { return queued_; }
    std::uint64_t queuedOf(unsigned tenant) const;
    unsigned numTenants() const;

  private:
    struct TQ
    {
        std::deque<Request *> q;
        unsigned cap = 0;
        double weight = 1.0;
        double vfinish = 0.0; ///< WeightedFair virtual finish time
    };

    std::vector<TQ> queues_;
    SchedPolicy policy_;
    bool closed_ = false;
    std::uint64_t queued_ = 0;
    double vnow_ = 0.0;
};

} // namespace pei

#endif // PEISIM_SERVE_QUEUE_HH
