/**
 * @file
 * Command-line options shared by every sweep-driving binary:
 *
 *   --jobs N        worker threads (default: hardware_concurrency)
 *   --timeout-s S   per-job wall-clock timeout (default: none)
 *   --filter SUBSTR run only jobs whose label contains SUBSTR
 *   --list          print job labels and exit without running
 *   --no-progress   suppress the live progress line on stderr
 *   --mem-backend K main-memory backend (hmc | ddr | ideal)
 *   --coherence P   offload coherence policy (eager | lazy)
 *   --topology T    off-chip interconnect (chain | ring | mesh)
 *   --cubes N       memory cubes on the interconnect (power of two)
 *   --pmu-shards N  address-partitioned PMU banks (power of two)
 *   --pei-batch N   PMU batching window size (1 = per-op dispatch)
 *   --batch-window-ticks T  max ticks a non-full window waits
 *   --queue-depth N vault-PCU issue-queue depth (0 = unqueued)
 *
 * Both "--flag value" and "--flag=value" spellings are accepted;
 * flags the sweep does not own (e.g. --stats-json) are ignored.
 */

#ifndef PEISIM_DRIVER_OPTIONS_HH
#define PEISIM_DRIVER_OPTIONS_HH

#include <cstdint>
#include <string>

namespace pei
{

struct SweepOptions
{
    unsigned jobs = 0;      ///< 0 = hardware_concurrency
    double timeout_s = 0.0; ///< 0 = no timeout
    std::string filter;     ///< empty = run everything
    /** Memory backend registry key; empty = each job's default. */
    std::string mem_backend;
    /** Coherence-policy registry key; empty = each job's default. */
    std::string coherence;
    /** Interconnect topology key; empty = each job's default. */
    std::string topology;
    /** Memory cubes on the interconnect; 0 = each job's default. */
    unsigned cubes = 0;
    /** PMU banks; 0 = each job's default (1, the shared PMU). */
    unsigned pmu_shards = 0;
    /** PMU batching window size; 0 = each job's default (1). */
    unsigned pei_batch = 0;
    /** Window timeout in ticks; 0 = each job's default. */
    std::uint64_t batch_window_ticks = 0;
    /** Vault-PCU issue-queue depth; 0 = each job's default (off). */
    unsigned queue_depth = 0;
    bool list = false;
    bool progress = true;
};

/** Parse the sweep flags out of @p argv (fatal on malformed value). */
SweepOptions sweepOptionsFromArgs(int argc, char **argv);

/** Worker count @p opts asks for (resolves 0 to the host's cores). */
unsigned resolveWorkerCount(const SweepOptions &opts);

} // namespace pei

#endif // PEISIM_DRIVER_OPTIONS_HH
