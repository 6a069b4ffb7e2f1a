/**
 * @file
 * Simulation jobs: the bridge between the generic driver layer
 * (Job/WorkerPool/Sweep) and the simulator (System/Runtime/Workload).
 *
 * runSimJob builds a fresh System per job, runs the workload under
 * the job's timeout watch, validates the result, audits the stats,
 * and returns every figure-level metric plus the stats-v2 record —
 * all produced inside the worker thread so the caller only renders.
 */

#ifndef PEISIM_DRIVER_SIM_JOB_HH
#define PEISIM_DRIVER_SIM_JOB_HH

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "driver/job.hh"
#include "energy/energy_model.hh"
#include "workloads/workload.hh"

namespace pei
{

/** Metrics of one simulation run. */
struct RunResult
{
    Tick ticks = 0;
    std::uint64_t peis_host = 0;
    std::uint64_t peis_mem = 0;
    std::uint64_t offchip_req_bytes = 0;
    std::uint64_t offchip_res_bytes = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    std::uint64_t retired_ops = 0;
    std::uint64_t events = 0;    ///< simulator events executed
    double wall_seconds = 0.0;   ///< host wall-clock time of the run
    EnergyBreakdown energy;
    std::map<std::string, std::uint64_t> stats;

    /** How the job ended; only Ok results carry valid metrics. */
    JobStatus status = JobStatus::Skipped;
    std::string error;          ///< failure message when !ok()
    std::string stats_record;   ///< stats-v2 run record JSON

    /**
     * Optional job-specific JSON payload (e.g. one serving sweep
     * point).  Filled by custom jobs; the bench renders these in
     * submission order, so derived documents stay byte-identical
     * for any --jobs.  Must not contain wall-clock-derived fields.
     */
    std::string aux_json;

    bool ok() const { return status == JobStatus::Ok; }

    std::uint64_t offchipBytes() const
    {
        return offchip_req_bytes + offchip_res_bytes;
    }

    std::uint64_t dramAccesses() const { return dram_reads + dram_writes; }

    double pimFraction() const
    {
        const double total =
            static_cast<double>(peis_host) + static_cast<double>(peis_mem);
        return total > 0 ? static_cast<double>(peis_mem) / total : 0.0;
    }

    /** Sum-of-IPCs proxy: retired ops per tick (×1000 for scale). */
    double
    opsPerKilotick() const
    {
        return ticks ? 1000.0 * static_cast<double>(retired_ops) /
                           static_cast<double>(ticks)
                     : 0.0;
    }
};

/** Hook to tweak the SystemConfig before construction. */
using ConfigTweak = std::function<void(SystemConfig &)>;

/** Description of one simulation to run inside a worker. */
struct SimJob
{
    std::string label;
    std::function<std::unique_ptr<Workload>()> factory;
    ExecMode mode = ExecMode::HostOnly;
    /** Memory backend registry key; empty = the config's default.
     *  Applied before @ref tweak so a tweak can still override. */
    std::string mem_backend;
    /** Coherence-policy registry key; empty = the config's default
     *  (eager).  Applied before @ref tweak, like mem_backend. */
    std::string coherence;
    /** Interconnect topology key; empty = the config's default
     *  (chain).  Applied before @ref tweak, like mem_backend. */
    std::string topology;
    /** Memory cubes on the interconnect; 0 = the config's default. */
    unsigned cubes = 0;
    /** PMU banks; 0 = the config's default (1, the shared PMU). */
    unsigned pmu_shards = 0;
    /** PMU batching window size; 0 = the config's default (1). */
    unsigned pei_batch = 0;
    /** Window timeout in ticks; 0 = the config's default. */
    std::uint64_t batch_window_ticks = 0;
    /** Vault-PCU issue-queue depth; 0 = the config's default (off). */
    unsigned queue_depth = 0;
    ConfigTweak tweak;
    unsigned threads = 0;  ///< 0 = one coroutine per core

    /**
     * Escape hatch for benches that drive Runtime themselves (e.g.
     * two workloads sharing one System): when set, runSimJob just
     * invokes it.  The custom fn must watch its EventQueue(s) via
     * WatchGuard and fill the RunResult itself (collectRun helps).
     */
    std::function<RunResult(JobCtx &)> custom;
};

/**
 * Audit @p sys's stats (throws std::runtime_error listing every
 * violation), then fill @p r's metrics, energy breakdown, stats
 * snapshot, and stats-v2 record from it.  Does not set r.status.
 */
void collectRun(System &sys, RunResult &r, double wall_seconds,
                const std::string &label);

/**
 * Execute @p job to completion inside the current worker thread.
 * Validation failures and audit violations throw (the WorkerPool
 * turns them into Failed outcomes); timeouts propagate as
 * SimulationStopped.  Returns a fully-populated Ok result.
 */
RunResult runSimJob(const SimJob &job, JobCtx &ctx);

} // namespace pei

#endif // PEISIM_DRIVER_SIM_JOB_HH
