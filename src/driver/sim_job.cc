#include "sim_job.hh"

#include <chrono>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"
#include "net/topology.hh"
#include "runtime/report.hh"
#include "runtime/runtime.hh"

namespace pei
{

void
collectRun(System &sys, RunResult &r, double wall_seconds,
           const std::string &label)
{
    // Every run ends with a stats audit: a figure over inconsistent
    // accounting is as meaningless as one over wrong results.
    const auto violations = sys.stats().audit();
    if (!violations.empty()) {
        std::ostringstream os;
        os << "stats audit failed:";
        for (const auto &v : violations)
            os << " [" << v << "]";
        throw std::runtime_error(os.str());
    }

    r.ticks = sys.now();
    r.wall_seconds = wall_seconds;
    r.events = sys.eventQueue().executedCount();
    r.peis_host = sys.pmu().peisHost();
    r.peis_mem = sys.pmu().peisMem();
    r.offchip_req_bytes = sys.mem().requestBytes();
    r.offchip_res_bytes = sys.mem().responseBytes();
    r.dram_reads = sys.mem().memReads();
    r.dram_writes = sys.mem().memWrites();
    r.retired_ops = 0;
    for (unsigned c = 0; c < sys.numCores(); ++c)
        r.retired_ops += sys.core(c).retiredOps();
    r.energy = computeEnergy(sys.stats());
    r.stats = sys.stats().snapshot();
    r.stats_record = runRecordJson(sys, wall_seconds, label);
}

RunResult
runSimJob(const SimJob &job, JobCtx &ctx)
{
    if (job.custom) {
        RunResult r = job.custom(ctx);
        r.status = JobStatus::Ok;
        return r;
    }

    SystemConfig cfg = SystemConfig::scaled(job.mode);
    if (!job.mem_backend.empty())
        cfg.mem_backend = job.mem_backend;
    if (!job.coherence.empty())
        cfg.pim.coherence.policy = job.coherence;
    if (!job.topology.empty()) {
        const bool known = parseTopology(job.topology, cfg.hmc.topology);
        fatal_if(!known, "job '%s': unknown topology '%s'",
                 job.label.c_str(), job.topology.c_str());
    }
    if (job.cubes)
        cfg.hmc.num_cubes = job.cubes;
    if (job.pmu_shards)
        cfg.pim.pmu_shards = job.pmu_shards;
    if (job.pei_batch)
        cfg.pim.pei_batch = job.pei_batch;
    if (job.batch_window_ticks)
        cfg.pim.batch_window_ticks = job.batch_window_ticks;
    if (job.queue_depth)
        cfg.pim.pcu.issue_queue_depth = job.queue_depth;
    if (job.tweak)
        job.tweak(cfg);
    System sys(cfg);
    Runtime rt(sys);

    std::unique_ptr<Workload> w = job.factory();
    w->setup(rt);
    w->spawn(rt, job.threads ? job.threads : sys.numCores());

    RunResult r;
    double wall = 0.0;
    {
        WatchGuard watch(ctx, sys.eventQueue());
        const auto wall_start = std::chrono::steady_clock::now();
        rt.run();
        wall = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - wall_start)
                   .count();
    }

    std::string msg;
    if (!w->validate(sys, msg)) {
        throw std::runtime_error(std::string(w->name()) +
                                 " validation failed: " + msg);
    }

    collectRun(sys, r, wall,
               std::string(w->name()) + "/" + execModeName(job.mode));
    r.status = JobStatus::Ok;
    return r;
}

} // namespace pei
