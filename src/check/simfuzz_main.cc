/**
 * @file
 * simfuzz: randomized differential testing of PEI execution.
 *
 * Runs N generated cases (see check/program.hh) in parallel on the
 * driver's WorkerPool; every case executes under all four execution
 * modes on a fuzzed SystemConfig with invariant probes armed and is
 * cross-checked against the sequential golden model.  Failing cases
 * are shrunk to a minimal (seed, prefix, thread-mask) reproducer and
 * printed as a ready-to-run `simfuzz --replay-...` command line.
 *
 *   simfuzz --cases 1000 --jobs 4            # the acceptance sweep
 *   simfuzz --inject-bug skip-unlock         # checker self-test
 *   simfuzz --replay-seed 0x1234 --replay-config 2
 *   simfuzz --replay-file repro.simfuzz
 *
 * All output on stdout is deterministic for a fixed master seed:
 * results are reported in submission order and shrinking is
 * sequential, so two runs with different --jobs produce identical
 * stdout (the live progress line lives on stderr).
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzz_case.hh"
#include "driver/options.hh"
#include "driver/sweep.hh"

using namespace pei;
using namespace pei::fuzz;

namespace
{

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --cases N            fuzz cases to run (default 200)\n"
        "  --master-seed S      master seed (default 12345)\n"
        "  --configs K          fuzzed configs in rotation (default 4)\n"
        "  --probe-every N      probe cadence in events (default 64)\n"
        "  --inject-bug B       checker self-test: skip-unlock |\n"
        "                       skip-back-inval | skip-conflict-check\n"
        "  --no-shrink          report failures without minimizing\n"
        "  --max-failures N     stop shrinking after N failures "
        "(default 4)\n"
        "  --failure-dir DIR    write reproducer files for failures\n"
        "  --mem-backend B      pin every case to one memory backend\n"
        "                       (default: fuzzed per config)\n"
        "  --coherence P        pin every case to one coherence policy\n"
        "                       (eager | lazy; default: fuzzed)\n"
        "  --topology T         pin every case to one interconnect\n"
        "                       (chain | ring | mesh; default: fuzzed)\n"
        "  --cubes N            pin the cube count (default: fuzzed)\n"
        "  --pmu-shards N       pin the PMU bank count (default: "
        "fuzzed)\n"
        "  --pei-batch N        pin the PMU batching window size\n"
        "                       (1 = per-op dispatch; default: fuzzed)\n"
        "  --queue-depth N      pin the vault-PCU issue-queue depth\n"
        "                       (0 = unqueued; default: fuzzed)\n"
        "  --replay-seed S      replay one case (with --replay-config,\n"
        "                       --replay-prefix, --replay-mask,\n"
        "                       --replay-backend, --replay-coherence,\n"
        "                       --replay-topology, --replay-cubes,\n"
        "                       --replay-pmu-shards, --replay-batch,\n"
        "                       --replay-queue-depth)\n"
        "  --replay-file FILE   replay a written reproducer\n"
        "  --jobs N / --timeout-s S / --no-progress  (sweep driver)\n",
        argv0);
}

/** --flag value / --flag=value accessor over argv. */
std::optional<std::string>
flagValue(int argc, char **argv, const char *name)
{
    const std::size_t len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0 && i + 1 < argc)
            return std::string(argv[i + 1]);
        if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=')
            return std::string(argv[i] + len + 1);
    }
    return std::nullopt;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

std::uint64_t
parseU64(const std::string &s, const char *what)
{
    try {
        return std::stoull(s, nullptr, 0);
    } catch (const std::exception &) {
        std::fprintf(stderr, "simfuzz: bad %s value '%s'\n", what,
                     s.c_str());
        std::exit(2);
    }
}

/** Replay one case sequentially and report verbosely; returns rc. */
int
replayOne(const FuzzCaseId &id, const FuzzOptions &opt)
{
    std::printf("replaying seed=0x%llx config=%u",
                static_cast<unsigned long long>(id.seed), id.config);
    if (!id.backend.empty())
        std::printf(" backend=%s", id.backend.c_str());
    if (!id.coherence.empty())
        std::printf(" coherence=%s", id.coherence.c_str());
    if (!id.topology.empty())
        std::printf(" topology=%s", id.topology.c_str());
    if (id.cubes)
        std::printf(" cubes=%u", id.cubes);
    if (id.pmu_shards)
        std::printf(" pmu_shards=%u", id.pmu_shards);
    if (id.pei_batch)
        std::printf(" pei_batch=%u", id.pei_batch);
    if (id.queue_depth >= 0)
        std::printf(" queue_depth=%d", id.queue_depth);
    if (id.prefix != full_prefix)
        std::printf(" prefix=%zu", id.prefix);
    if (id.thread_mask != 0xffffffffu)
        std::printf(" mask=0x%x", id.thread_mask);
    if (opt.inject != InjectBug::None)
        std::printf(" inject=%s", injectBugName(opt.inject));
    std::printf("\n");

    const FuzzCaseResult r = runFuzzCase(id, opt, nullptr);
    if (r.ok()) {
        std::printf("PASS: %zu ops, all four modes clean\n",
                    r.total_ops);
        return 0;
    }
    for (const ModeFailure &f : r.failures)
        std::printf("FAIL [%s] %s\n", execModeName(f.mode),
                    f.what.c_str());
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (hasFlag(argc, argv, "--help") || hasFlag(argc, argv, "-h")) {
        usage(argv[0]);
        return 0;
    }

    SweepOptions sopt = sweepOptionsFromArgs(argc, argv);

    FuzzOptions fopt;
    std::uint64_t cases = 200;
    std::size_t max_failures = 4;
    bool shrink = !hasFlag(argc, argv, "--no-shrink");
    std::string failure_dir;

    if (const auto v = flagValue(argc, argv, "--cases"))
        cases = parseU64(*v, "--cases");
    if (const auto v = flagValue(argc, argv, "--master-seed"))
        fopt.master_seed = parseU64(*v, "--master-seed");
    if (const auto v = flagValue(argc, argv, "--configs"))
        fopt.num_configs =
            static_cast<unsigned>(parseU64(*v, "--configs"));
    if (const auto v = flagValue(argc, argv, "--probe-every"))
        fopt.probe_every = parseU64(*v, "--probe-every");
    if (const auto v = flagValue(argc, argv, "--max-failures"))
        max_failures =
            static_cast<std::size_t>(parseU64(*v, "--max-failures"));
    if (const auto v = flagValue(argc, argv, "--failure-dir"))
        failure_dir = *v;
    if (const auto v = flagValue(argc, argv, "--mem-backend"))
        fopt.backend = *v;
    if (const auto v = flagValue(argc, argv, "--coherence"))
        fopt.coherence = *v;
    if (const auto v = flagValue(argc, argv, "--topology"))
        fopt.topology = *v;
    if (const auto v = flagValue(argc, argv, "--cubes"))
        fopt.cubes = static_cast<unsigned>(parseU64(*v, "--cubes"));
    if (const auto v = flagValue(argc, argv, "--pmu-shards"))
        fopt.pmu_shards =
            static_cast<unsigned>(parseU64(*v, "--pmu-shards"));
    if (const auto v = flagValue(argc, argv, "--pei-batch"))
        fopt.pei_batch =
            static_cast<unsigned>(parseU64(*v, "--pei-batch"));
    if (const auto v = flagValue(argc, argv, "--queue-depth"))
        fopt.queue_depth =
            static_cast<int>(parseU64(*v, "--queue-depth"));
    if (const auto v = flagValue(argc, argv, "--inject-bug")) {
        if (*v == "skip-unlock") {
            fopt.inject = InjectBug::SkipUnlock;
        } else if (*v == "skip-back-inval") {
            fopt.inject = InjectBug::SkipBackInval;
        } else if (*v == "skip-conflict-check") {
            fopt.inject = InjectBug::SkipConflictCheck;
        } else {
            std::fprintf(stderr, "simfuzz: unknown --inject-bug '%s'\n",
                         v->c_str());
            return 2;
        }
    }
    if (fopt.num_configs == 0) {
        std::fprintf(stderr, "simfuzz: --configs must be >= 1\n");
        return 2;
    }

    // Replay modes run one case sequentially and exit.
    if (const auto file = flagValue(argc, argv, "--replay-file")) {
        std::ifstream in(*file);
        if (!in) {
            std::fprintf(stderr, "simfuzz: cannot open '%s'\n",
                         file->c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        FuzzCaseId id;
        if (!parseReplayFile(text.str(), id, fopt)) {
            std::fprintf(stderr, "simfuzz: malformed replay file '%s'\n",
                         file->c_str());
            return 2;
        }
        return replayOne(id, fopt);
    }
    if (const auto seed = flagValue(argc, argv, "--replay-seed")) {
        FuzzCaseId id;
        id.seed = parseU64(*seed, "--replay-seed");
        if (const auto v = flagValue(argc, argv, "--replay-config"))
            id.config =
                static_cast<unsigned>(parseU64(*v, "--replay-config"));
        if (const auto v = flagValue(argc, argv, "--replay-prefix"))
            id.prefix = static_cast<std::size_t>(
                parseU64(*v, "--replay-prefix"));
        if (const auto v = flagValue(argc, argv, "--replay-mask"))
            id.thread_mask = static_cast<std::uint32_t>(
                parseU64(*v, "--replay-mask"));
        if (const auto v = flagValue(argc, argv, "--replay-backend"))
            id.backend = *v;
        if (const auto v = flagValue(argc, argv, "--replay-coherence"))
            id.coherence = *v;
        if (const auto v = flagValue(argc, argv, "--replay-topology"))
            id.topology = *v;
        if (const auto v = flagValue(argc, argv, "--replay-cubes"))
            id.cubes =
                static_cast<unsigned>(parseU64(*v, "--replay-cubes"));
        if (const auto v = flagValue(argc, argv, "--replay-pmu-shards"))
            id.pmu_shards = static_cast<unsigned>(
                parseU64(*v, "--replay-pmu-shards"));
        if (const auto v = flagValue(argc, argv, "--replay-batch"))
            id.pei_batch =
                static_cast<unsigned>(parseU64(*v, "--replay-batch"));
        if (const auto v =
                flagValue(argc, argv, "--replay-queue-depth"))
            id.queue_depth = static_cast<int>(
                parseU64(*v, "--replay-queue-depth"));
        return replayOne(id, fopt);
    }

    // Pinning the default policy explicitly must not change stdout
    // (the CI byte-identity leg diffs `--coherence eager` against a
    // plain run), so the header notes only a non-default pin.
    const std::string coherence_note =
        !fopt.coherence.empty() && fopt.coherence != "eager"
            ? ", coherence " + fopt.coherence
            : "";
    // Same rule for the interconnect pins: pinning a default
    // explicitly (chain, 1 cube, 1 bank) must not change stdout.
    std::string net_note;
    if (!fopt.topology.empty() && fopt.topology != "chain")
        net_note += ", topology " + fopt.topology;
    if (fopt.cubes > 1)
        net_note += ", cubes " + std::to_string(fopt.cubes);
    if (fopt.pmu_shards > 1)
        net_note += ", pmu-shards " + std::to_string(fopt.pmu_shards);
    // Batching pins follow the same non-default-only rule: pinning
    // --pei-batch=1 or --queue-depth=0 explicitly (the per-op
    // defaults) must not change stdout either.
    if (fopt.pei_batch > 1)
        net_note += ", pei-batch " + std::to_string(fopt.pei_batch);
    if (fopt.queue_depth > 0)
        net_note += ", queue-depth " + std::to_string(fopt.queue_depth);
    std::printf("simfuzz: %llu case(s), %u fuzzed config(s), "
                "master seed %llu, probe every %llu "
                "event(s)%s%s%s%s%s%s\n",
                static_cast<unsigned long long>(cases),
                fopt.num_configs,
                static_cast<unsigned long long>(fopt.master_seed),
                static_cast<unsigned long long>(fopt.probe_every),
                fopt.inject != InjectBug::None ? ", inject " : "",
                fopt.inject != InjectBug::None
                    ? injectBugName(fopt.inject)
                    : "",
                fopt.backend.empty() ? "" : ", backend ",
                fopt.backend.c_str(), coherence_note.c_str(),
                net_note.c_str());

    // Case i of the run: its program seed and fuzzed config; every
    // other field keeps its unpinned default.
    auto caseId = [&fopt](std::uint64_t i) {
        FuzzCaseId id;
        id.seed = caseSeed(fopt.master_seed, i);
        id.config = static_cast<unsigned>(i % fopt.num_configs);
        return id;
    };

    Sweep sweep;
    std::vector<FuzzCaseResult> results(cases);
    for (std::uint64_t i = 0; i < cases; ++i) {
        const FuzzCaseId id = caseId(i);
        std::ostringstream label;
        label << "case" << i << "/seed0x" << std::hex << id.seed
              << std::dec << "/cfg" << id.config;
        sweep.add(label.str(), [id, fopt, i, &results](JobCtx &ctx) {
            FuzzCaseResult r = runFuzzCase(id, fopt, &ctx);
            const bool ok = r.ok();
            const std::string what = r.summary();
            results[ctx.index()] = std::move(r);
            (void)i;
            if (!ok)
                throw std::runtime_error(what);
        });
    }

    const SweepReport report = sweep.run(sopt);

    // Collect failures in submission order (deterministic stdout).
    struct Failure
    {
        FuzzCaseId id;
        std::string what;
    };
    std::vector<Failure> failures;
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
        const JobOutcome &out = report.outcomes[i];
        if (out.status == JobStatus::Ok ||
            out.status == JobStatus::Skipped) {
            continue;
        }
        if (!results[i].ok()) {
            failures.push_back({results[i].id, results[i].summary()});
        } else {
            // Timed out before the case result was recorded.
            const FuzzCaseId id = caseId(i);
            failures.push_back({id, out.label + ": " + out.error});
        }
    }

    for (const Failure &f : failures)
        std::printf("FAIL %s\n", f.what.c_str());

    // Shrink (sequentially, so output stays deterministic).
    std::size_t shrunk = 0;
    for (const Failure &f : failures) {
        if (shrunk >= max_failures) {
            std::printf("(%zu further failure(s) left unshrunk)\n",
                        failures.size() - shrunk);
            break;
        }
        ++shrunk;
        FuzzCaseId min_id = f.id;
        if (shrink) {
            const FuzzCaseResult m = shrinkCase(f.id, fopt);
            if (!m.ok()) {
                min_id = m.id;
                std::printf("minimized: %s\n", m.summary().c_str());
            } else {
                std::printf("minimized: did not reproduce "
                            "sequentially (flaky?)\n");
            }
        }
        std::printf("  replay: %s\n",
                    replayCommand(min_id, fopt).c_str());
        if (!failure_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(failure_dir, ec);
            char name[64];
            std::snprintf(name, sizeof(name), "repro-%016llx.simfuzz",
                          static_cast<unsigned long long>(min_id.seed));
            const std::filesystem::path p =
                std::filesystem::path(failure_dir) / name;
            std::ofstream out(p);
            out << replayFileContents(min_id, fopt);
            std::printf("  reproducer written to %s\n",
                        p.string().c_str());
        }
    }

    std::printf("simfuzz: %zu ok, %zu failed, %zu timed out, "
                "%zu skipped (%.1fs)\n",
                report.ok, report.failed, report.timed_out,
                report.skipped, report.wall_seconds);
    if (fopt.inject != InjectBug::None) {
        const bool caught = !failures.empty();
        std::printf("inject-bug %s: %s\n", injectBugName(fopt.inject),
                    caught ? "DETECTED (checker works)"
                           : "NOT DETECTED (checker is blind!)");
        return caught ? 0 : 1;
    }
    return report.clean() ? 0 : 1;
}
