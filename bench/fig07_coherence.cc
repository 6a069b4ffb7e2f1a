/**
 * @file
 * Coherence-policy companion to Figure 7: off-chip *coherence*
 * traffic of the eager per-offload mechanism (the paper's Fig. 5
 * step ③ back-invalidations/back-writebacks) vs. the LazyPIM-style
 * speculative policy (coherence/lazy.hh), per workload and execution
 * mode.
 *
 * LazyPIM's claim: batching offloads under compressed signatures
 * amortizes the per-offload coherence handshake, cutting coherence-
 * attributable link flits even after paying for signature transfer
 * and occasional rollback re-execution.  Architectural results are
 * unchanged either way (both policies are timing/traffic models over
 * the same functional execution), so every run still validates.
 *
 * Besides the table, the bench writes BENCH_coherence.json (default
 * at the repo root; --coherence-json overrides) with every point's
 * coherence counters in submission order — the committed baseline
 * the docs reference.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.hh"

using namespace pei;
using peibench::RunHandle;
using peibench::result;
using peibench::submit;

namespace
{

/** A stats counter, or 0 when the policy did not register it. */
std::uint64_t
stat(const RunResult &r, const char *name)
{
    const auto it = r.stats.find(name);
    return it == r.stats.end() ? 0 : it->second;
}

std::string
pointJson(const char *workload, const char *mode, const char *policy,
          const RunResult &r)
{
    std::string s = "{\"workload\":\"";
    s += workload;
    s += "\",\"mode\":\"";
    s += mode;
    s += "\",\"policy\":\"";
    s += policy;
    s += "\",\"coh_flits\":" + std::to_string(stat(r, "coh.offchip_flits"));
    s += ",\"coh_actions\":" + std::to_string(stat(r, "coh.actions"));
    s += ",\"peis_mem\":" + std::to_string(r.peis_mem);
    s += ",\"commits\":" + std::to_string(stat(r, "coh.commits"));
    s += ",\"conflicts\":" + std::to_string(stat(r, "coh.conflicts"));
    s += ",\"sig_false_positives\":" +
         std::to_string(stat(r, "coh.sig_false_positives"));
    s += ",\"rollbacks\":" + std::to_string(stat(r, "coh.rollbacks"));
    s += ",\"offchip_bytes\":" + std::to_string(r.offchipBytes());
    s += "}";
    return s;
}

} // namespace

int
main(int argc, char **argv)
{
    peibench::benchInit(argc, argv, "fig07_coherence",
                        {{"--coherence-json", true}});
    const std::string coherence_json =
        flagValue(argc, argv, "--coherence-json")
            .value_or(PEISIM_ROOT "/BENCH_coherence.json");

    peibench::printHeader(
        "Figure 7b", "Off-chip coherence flits, eager vs. lazy "
                     "(speculative) policy",
        "batched signatures amortize the per-offload coherence "
        "handshake: lazy moves fewer coherence flits than eager on "
        "offload-heavy workloads");

    const WorkloadKind kinds[] = {WorkloadKind::PR, WorkloadKind::HJ,
                                  WorkloadKind::ATF, WorkloadKind::SC};
    const ExecMode modes[] = {ExecMode::PimOnly, ExecMode::LocalityAware};
    const char *const policies[] = {"eager", "lazy"};

    // cells[mode][kind][policy] in submission order.
    std::map<std::pair<int, int>, std::pair<RunHandle, RunHandle>> cells;
    std::vector<std::pair<std::string, RunHandle>> points;
    for (ExecMode mode : modes) {
        for (WorkloadKind kind : kinds) {
            RunHandle hs[2];
            for (int p = 0; p < 2; ++p) {
                const std::string policy = policies[p];
                hs[p] = submit(kind, InputSize::Small, mode,
                               [policy](SystemConfig &cfg) {
                                   cfg.pim.coherence.policy = policy;
                               });
                points.push_back({std::string(kindName(kind)) + "/" +
                                      execModeName(mode) + "/" + policy,
                                  hs[p]});
            }
            cells[{(int)mode, (int)kind}] = {hs[0], hs[1]};
        }
    }
    peibench::sweepRun();

    for (ExecMode mode : modes) {
        std::printf("\n--- (%s, small inputs, coherence-attributable "
                    "link flits) ---\n",
                    execModeName(mode));
        std::printf("%-5s %12s %12s %8s | %8s %10s %9s\n", "app",
                    "eager", "lazy", "ratio", "commits", "conflicts",
                    "rollbacks");
        for (WorkloadKind kind : kinds) {
            const auto &cell = cells[{(int)mode, (int)kind}];
            if (!peibench::allOk({cell.first, cell.second}))
                continue;
            const RunResult &eager = result(cell.first);
            const RunResult &lazy = result(cell.second);
            const double ef =
                static_cast<double>(stat(eager, "coh.offchip_flits"));
            const double lf =
                static_cast<double>(stat(lazy, "coh.offchip_flits"));
            std::printf("%-5s %12.0f %12.0f %8.2f | %8llu %10llu "
                        "%9llu\n",
                        kindName(kind), ef, lf, ef > 0 ? lf / ef : 0.0,
                        static_cast<unsigned long long>(
                            stat(lazy, "coh.commits")),
                        static_cast<unsigned long long>(
                            stat(lazy, "coh.conflicts")),
                        static_cast<unsigned long long>(
                            stat(lazy, "coh.rollbacks")));
        }
    }

    // The committed baseline: every point's coherence counters in
    // submission order.  --filter'ed (skipped) points are omitted; a
    // failed point suppresses the write so a broken sweep can never
    // silently refresh the baseline.
    bool all_ok = true;
    std::string doc = "{\"bench\":\"fig07_coherence\",\"points\":[";
    for (const auto &[label, h] : points) {
        const RunResult &r = result(h);
        if (r.status == JobStatus::Skipped)
            continue;
        if (!r.ok()) {
            all_ok = false;
            continue;
        }
        const std::size_t slash1 = label.find('/');
        const std::size_t slash2 = label.rfind('/');
        if (doc.back() != '[')
            doc += ",";
        doc += "\n" +
               pointJson(label.substr(0, slash1).c_str(),
                         label.substr(slash1 + 1, slash2 - slash1 - 1)
                             .c_str(),
                         label.substr(slash2 + 1).c_str(), r);
    }
    doc += "\n]}\n";
    // Operational note -> stderr: stdout stays byte-identical even
    // when the destination path differs between runs.
    if (all_ok) {
        std::ofstream out(coherence_json, std::ios::trunc);
        out << doc;
        std::fprintf(stderr, "Coherence baseline written to %s\n",
                     coherence_json.c_str());
    } else {
        std::fprintf(stderr,
                     "Coherence baseline NOT written (failed points).\n");
    }
    return peibench::benchFinish();
}
