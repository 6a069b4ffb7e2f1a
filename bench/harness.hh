/**
 * @file
 * Shared bench harness, sweep edition: benches *submit* every
 * simulation they need as a labelled job, run the whole set across a
 * worker pool (`--jobs N`, per-job `--timeout-s`, `--filter`,
 * `--list`), then render their tables from the collected results.
 *
 * Every bench binary regenerates one table or figure of the paper;
 * it prints the paper's claim next to the measured rows so the
 * comparison is auditable from the raw output.  Rendering happens
 * strictly after the sweep, from results keyed by submission index,
 * so stdout is byte-identical regardless of worker count.
 */

#ifndef PEISIM_BENCH_HARNESS_HH
#define PEISIM_BENCH_HARNESS_HH

#include <cstdio>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "driver/sim_job.hh"
#include "workloads/workload.hh"

namespace peibench
{

using namespace pei;

/** Index of a submitted run; pass to result() after sweepRun(). */
using RunHandle = std::size_t;

/**
 * Parse harness-level flags (`--stats-json`, `--jobs`, `--timeout-s`,
 * `--filter`, `--list`, `--no-progress`), name the bench, and
 * register the atexit stats flush.  Call first thing in main().
 */
void benchInit(int argc, char **argv, const std::string &name);

/**
 * Queue one Table 3 workload run, labelled "<kind>/<size>/<mode>".
 */
RunHandle submit(WorkloadKind kind, InputSize size, ExecMode mode,
                 const ConfigTweak &tweak = nullptr);

/** Queue a run of the workload returned by @p factory. */
RunHandle submitWorkload(
    const std::function<std::unique_ptr<Workload>()> &factory,
    const std::string &label, ExecMode mode,
    const ConfigTweak &tweak = nullptr, unsigned threads = 0);

/**
 * Queue a fully custom job (e.g. two workloads sharing one System).
 * @p fn runs inside a worker: it must guard its EventQueue with
 * WatchGuard (for timeouts) and fill the result via collectRun.
 */
RunHandle submitCustom(const std::string &label,
                       std::function<RunResult(JobCtx &)> fn);

/**
 * Execute every submitted job.  Under `--list`, print one label per
 * line and exit(0) instead.  Call between submission and rendering.
 */
void sweepRun();

/** Result of a submitted run (valid only after sweepRun()). */
const RunResult &result(RunHandle h);

/**
 * The harness-level sweep options parsed by benchInit().  Custom
 * jobs construct their own Systems, so `--mem-backend` /
 * `--coherence` are not applied to them automatically — they read the
 * options here and opt in themselves.
 */
const SweepOptions &sweepOptions();

/** True when every listed run completed Ok — use to guard a row. */
bool allOk(std::initializer_list<RunHandle> hs);

/**
 * Flush stats-v2 records + failure records to the `--stats-json`
 * path, print the sweep summary, and return the process exit code
 * (0 clean, 1 when any job failed or timed out).  Call last thing
 * in main(): `return peibench::benchFinish();`.
 */
int benchFinish();

/** Print the standard bench header. */
void printHeader(const std::string &figure, const std::string &what,
                 const std::string &paper_claim);

/** Geometric mean helper. */
double geomean(const std::vector<double> &xs);

} // namespace peibench

#endif // PEISIM_BENCH_HARNESS_HH
