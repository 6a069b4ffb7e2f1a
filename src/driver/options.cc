#include "options.hh"

#include <cstdlib>
#include <cstring>
#include <thread>

#include <algorithm>

#include "coherence/policy.hh"
#include "common/bitutil.hh"
#include "common/logging.hh"
#include "mem/backend.hh"
#include "net/topology.hh"

namespace pei
{

namespace
{

/**
 * If argv[i] spells @p flag, yield its value ("--flag v" or
 * "--flag=v") and advance @p i past consumed arguments.
 */
bool
flagValue(int argc, char **argv, int &i, const char *flag,
          std::string &value)
{
    const std::size_t len = std::strlen(flag);
    if (std::strcmp(argv[i], flag) == 0) {
        fatal_if(i + 1 >= argc, "%s needs a value", flag);
        value = argv[++i];
        return true;
    }
    if (std::strncmp(argv[i], flag, len) == 0 && argv[i][len] == '=') {
        value = argv[i] + len + 1;
        return true;
    }
    return false;
}

} // namespace

SweepOptions
sweepOptionsFromArgs(int argc, char **argv)
{
    SweepOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string value;
        if (flagValue(argc, argv, i, "--jobs", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1,
                     "--jobs wants a positive integer, got '%s'",
                     value.c_str());
            opts.jobs = static_cast<unsigned>(n);
        } else if (flagValue(argc, argv, i, "--timeout-s", value)) {
            char *end = nullptr;
            const double s = std::strtod(value.c_str(), &end);
            fatal_if(!end || *end != '\0' || s <= 0.0,
                     "--timeout-s wants a positive number, got '%s'",
                     value.c_str());
            opts.timeout_s = s;
        } else if (flagValue(argc, argv, i, "--filter", value)) {
            opts.filter = value;
        } else if (flagValue(argc, argv, i, "--mem-backend", value)) {
            const auto names = memoryBackendNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                std::string known;
                for (const auto &n : names)
                    known += (known.empty() ? "" : ", ") + n;
                fatal("--mem-backend '%s' is not registered (known: %s)",
                      value.c_str(), known.c_str());
            }
            opts.mem_backend = value;
        } else if (flagValue(argc, argv, i, "--coherence", value)) {
            const auto names = coherencePolicyNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end()) {
                std::string known;
                for (const auto &n : names)
                    known += (known.empty() ? "" : ", ") + n;
                fatal("--coherence '%s' is not registered (known: %s)",
                      value.c_str(), known.c_str());
            }
            opts.coherence = value;
        } else if (flagValue(argc, argv, i, "--topology", value)) {
            Topology t;
            if (!parseTopology(value, t)) {
                std::string known;
                for (const auto &n : topologyNames())
                    known += (known.empty() ? "" : ", ") + n;
                fatal("--topology '%s' is not a topology (known: %s)",
                      value.c_str(), known.c_str());
            }
            opts.topology = value;
        } else if (flagValue(argc, argv, i, "--cubes", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1 ||
                         !isPowerOf2(static_cast<std::uint64_t>(n)),
                     "--cubes wants a positive power of two, got '%s'",
                     value.c_str());
            opts.cubes = static_cast<unsigned>(n);
        } else if (flagValue(argc, argv, i, "--pmu-shards", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1 ||
                         !isPowerOf2(static_cast<std::uint64_t>(n)),
                     "--pmu-shards wants a positive power of two, "
                     "got '%s'",
                     value.c_str());
            opts.pmu_shards = static_cast<unsigned>(n);
        } else if (flagValue(argc, argv, i, "--pei-batch", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1 || n > 64,
                     "--pei-batch wants an integer in [1, 64], got '%s'",
                     value.c_str());
            opts.pei_batch = static_cast<unsigned>(n);
        } else if (flagValue(argc, argv, i, "--batch-window-ticks",
                             value)) {
            char *end = nullptr;
            const long long n = std::strtoll(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 1,
                     "--batch-window-ticks wants a positive integer, "
                     "got '%s'",
                     value.c_str());
            opts.batch_window_ticks = static_cast<std::uint64_t>(n);
        } else if (flagValue(argc, argv, i, "--queue-depth", value)) {
            char *end = nullptr;
            const long n = std::strtol(value.c_str(), &end, 10);
            fatal_if(!end || *end != '\0' || n < 0,
                     "--queue-depth wants a non-negative integer, "
                     "got '%s'",
                     value.c_str());
            opts.queue_depth = static_cast<unsigned>(n);
        } else if (std::strcmp(argv[i], "--list") == 0) {
            opts.list = true;
        } else if (std::strcmp(argv[i], "--no-progress") == 0) {
            opts.progress = false;
        }
    }
    return opts;
}

unsigned
resolveWorkerCount(const SweepOptions &opts)
{
    if (opts.jobs)
        return opts.jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

} // namespace pei
