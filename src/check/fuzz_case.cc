#include "fuzz_case.hh"

#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "check/golden.hh"
#include "check/probes.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "net/topology.hh"
#include "runtime/runtime.hh"

namespace pei
{
namespace fuzz
{

const char *
injectBugName(InjectBug b)
{
    switch (b) {
      case InjectBug::SkipUnlock:
        return "skip-unlock";
      case InjectBug::SkipBackInval:
        return "skip-back-inval";
      case InjectBug::SkipConflictCheck:
        return "skip-conflict-check";
      case InjectBug::None:
        break;
    }
    return "none";
}

std::uint64_t
caseSeed(std::uint64_t master_seed, std::uint64_t case_index)
{
    return mix64(master_seed ^ mix64(case_index + 1));
}

SystemConfig
fuzzConfig(unsigned config_index, std::uint64_t master_seed, ExecMode mode)
{
    SystemConfig cfg = SystemConfig::scaled(mode);

    // The draw sequence depends only on (master_seed, config_index),
    // so all four modes of a case run on identical machine geometry.
    Rng rng(mix64(master_seed ^ (0xC0F1EF1A5ULL + config_index)));

    const unsigned cores[] = {2, 4, 8};
    cfg.cores = cores[rng.below(3)];
    cfg.phys_bytes = 64ULL << 20;

    cfg.cache.l1_bytes = (rng.chance(0.5) ? 4 : 8) * 1024;
    cfg.cache.l2_bytes = (rng.chance(0.5) ? 16 : 32) * 1024;
    cfg.cache.l3_bytes = (rng.chance(0.5) ? 128 : 256) * 1024;

    cfg.hmc.num_cubes = 1;
    const unsigned vaults[] = {2, 4, 8};
    cfg.hmc.vaults_per_cube = vaults[rng.below(3)];

    const unsigned dir[] = {16, 64, 256, 2048};
    cfg.pim.directory_entries = dir[rng.below(4)];
    const unsigned bufs[] = {2, 4, 8};
    cfg.pim.pcu.operand_buffer_entries = bufs[rng.below(3)];

    cfg.core.window = rng.chance(0.5) ? 16 : 64;
    cfg.pim.balanced_dispatch = rng.chance(0.5);

    // Backend draw comes last so the earlier draw sequence (and thus
    // every pre-existing fuzzed geometry) is unchanged.  hmc appears
    // twice: it has the most machinery to exercise.
    static const char *const kinds[] = {"hmc", "ddr", "ideal", "hmc"};
    cfg.mem_backend = kinds[rng.below(4)];
    // The alternative backends mirror the drawn vault count so case
    // behavior is comparable across backends.
    cfg.ddr.channels = cfg.hmc.vaults_per_cube;
    cfg.ideal_mem.pim_units = cfg.hmc.vaults_per_cube;

    // Coherence draws come last for the same replay-stability
    // reason: every draw above (and thus every pre-existing fuzzed
    // geometry and backend) is unchanged.  Small signatures and
    // batches crank up speculation pressure (aliasing, frequent
    // commits) on the lazy policy; eager ignores them.
    static const char *const policies[] = {"eager", "lazy"};
    cfg.pim.coherence.policy = policies[rng.below(2)];
    cfg.pim.coherence.signature_bits = rng.chance(0.5) ? 64 : 256;
    cfg.pim.coherence.batch_peis = rng.chance(0.5) ? 4 : 16;

    // Interconnect and PMU-sharding draws appended after everything
    // else (same replay-stability rule as the backend and coherence
    // draws above).  Chain appears twice: it is the paper default and
    // the byte-identity baseline; cube counts stay small so the
    // golden cross-check stays fast.
    static const char *const topos[] = {"chain", "ring", "mesh",
                                        "chain"};
    const bool topo_ok =
        parseTopology(topos[rng.below(4)], cfg.hmc.topology);
    fatal_if(!topo_ok, "fuzzConfig drew an unknown topology");
    const unsigned cube_counts[] = {1, 2, 4};
    cfg.hmc.num_cubes = cube_counts[rng.below(3)];
    const unsigned bank_counts[] = {1, 2, 4};
    cfg.pim.pmu_shards = bank_counts[rng.below(3)];

    // Batched-dispatch draws appended last (same replay-stability
    // rule): PMU window size and vault-PCU issue-queue depth.
    // Window 1 / depth 0 keep the per-op dispatch path dominant in
    // the rotation; short window timeouts crank up flush pressure.
    const unsigned batches[] = {1, 4, 8};
    cfg.pim.pei_batch = batches[rng.below(3)];
    const unsigned depths[] = {0, 4, 8};
    cfg.pim.pcu.issue_queue_depth = depths[rng.below(3)];
    if (cfg.pim.pei_batch > 1)
        cfg.pim.batch_window_ticks = rng.chance(0.5) ? 64 : 256;
    return cfg;
}

namespace
{

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Interpret @p stream on the simulated machine (one coroutine). */
Task
interpretThread(Ctx &ctx, const std::vector<FuzzOp> &stream, Addr base,
                std::vector<PeiOutput> &rec)
{
    std::size_t pei_idx = 0;
    for (const FuzzOp &o : stream) {
        const Addr block_vaddr =
            base + static_cast<Addr>(o.block) * block_size;
        switch (o.kind) {
          case OpKind::Pei: {
            std::uint8_t input[max_operand_bytes] = {};
            const unsigned in_size = fillInput(o.op, o.value, input);
            const Addr target = block_vaddr + peiOffset(o);
            PeiOutput *slot = &rec[pei_idx++];
            if (o.async) {
                co_await ctx.peiAsyncCb(
                    o.op, target, input, in_size,
                    [slot](const PimPacket &pkt) {
                        std::memcpy(slot->bytes.data(), pkt.output.data(),
                                    pkt.output.size());
                        slot->size = pkt.output_size;
                    });
            } else {
                const PimPacket pkt =
                    co_await ctx.pei(o.op, target, input, in_size);
                std::memcpy(slot->bytes.data(), pkt.output.data(),
                            pkt.output.size());
                slot->size = pkt.output_size;
            }
            break;
          }
          case OpKind::Load: {
            const Addr a = block_vaddr + (o.value % 8) * 8;
            if (o.async)
                co_await ctx.loadAsync(a);
            else
                co_await ctx.load(a);
            break;
          }
          case OpKind::Store: {
            const Addr a = block_vaddr + storeOffset(o);
            ctx.fwrite<std::uint64_t>(a, o.value);
            if (o.async)
                co_await ctx.storeAsync(a);
            else
                co_await ctx.store(a);
            break;
          }
          case OpKind::Pfence:
            co_await ctx.pfence();
            break;
          case OpKind::Compute:
            co_await ctx.compute(o.value);
            break;
        }
    }
    co_await ctx.drain();
}

/**
 * Execute @p prog under @p mode and cross-check it against
 * @p golden.  Throws FuzzViolation on any divergence or invariant
 * violation, SimulationStopped on watchdog cancellation.
 */
void
runOneMode(const FuzzProgram &prog, const GoldenResult &golden,
           ExecMode mode, const FuzzCaseId &id, const FuzzOptions &opt,
           JobCtx *jctx)
{
    SystemConfig cfg = fuzzConfig(id.config, opt.master_seed, mode);
    if (!opt.backend.empty())
        cfg.mem_backend = opt.backend;
    if (!id.backend.empty())
        cfg.mem_backend = id.backend; // a pinned reproducer wins
    if (!opt.coherence.empty())
        cfg.pim.coherence.policy = opt.coherence;
    if (!id.coherence.empty())
        cfg.pim.coherence.policy = id.coherence;
    if (opt.inject == InjectBug::SkipConflictCheck)
        cfg.pim.coherence.policy = "lazy"; // the injection's target
    const auto applyTopology = [&cfg](const std::string &name) {
        const bool known = parseTopology(name, cfg.hmc.topology);
        fatal_if(!known, "simfuzz: unknown topology '%s'", name.c_str());
    };
    if (!opt.topology.empty())
        applyTopology(opt.topology);
    if (!id.topology.empty())
        applyTopology(id.topology); // a pinned reproducer wins
    if (opt.cubes)
        cfg.hmc.num_cubes = opt.cubes;
    if (id.cubes)
        cfg.hmc.num_cubes = id.cubes;
    if (opt.pmu_shards)
        cfg.pim.pmu_shards = opt.pmu_shards;
    if (id.pmu_shards)
        cfg.pim.pmu_shards = id.pmu_shards;
    if (opt.pei_batch)
        cfg.pim.pei_batch = opt.pei_batch;
    if (id.pei_batch)
        cfg.pim.pei_batch = id.pei_batch;
    if (opt.queue_depth >= 0) {
        cfg.pim.pcu.issue_queue_depth =
            static_cast<unsigned>(opt.queue_depth);
    }
    if (id.queue_depth >= 0) {
        cfg.pim.pcu.issue_queue_depth =
            static_cast<unsigned>(id.queue_depth);
    }
    System sys(cfg);
    std::optional<WatchGuard> guard;
    if (jctx)
        guard.emplace(*jctx, sys.eventQueue());

    switch (opt.inject) {
      case InjectBug::SkipUnlock:
        // Every bank: the faulted case must trip whichever bank the
        // program's first released block happens to live in.
        for (unsigned s = 0; s < sys.pmu().pmuShards(); ++s)
            sys.pmu().directoryBank(s).injectSkipRelease(1);
        break;
      case InjectBug::SkipBackInval:
        sys.caches().injectSkipBackInvalidate(1);
        break;
      case InjectBug::SkipConflictCheck:
        sys.pmu().coherence().injectSkipConflictCheck(1);
        break;
      case InjectBug::None:
        break;
    }

    installProbes(sys, opt.probe_every);

    Runtime rt(sys);
    const std::uint64_t footprint = prog.init_image.size();
    const Addr base = rt.alloc(footprint);
    sys.memory().writeBytes(base, prog.init_image.data(), footprint);

    // Output slots are preallocated so async completion callbacks
    // hold stable addresses for the whole simulation.
    std::vector<std::vector<PeiOutput>> rec(prog.streams.size());
    for (std::size_t ti = 0; ti < prog.streams.size(); ++ti) {
        std::size_t peis = 0;
        for (const FuzzOp &o : prog.streams[ti])
            peis += o.kind == OpKind::Pei;
        rec[ti].resize(peis);
    }

    const unsigned nthreads =
        static_cast<unsigned>(prog.streams.size());
    if (nthreads > 0) {
        rt.spawnThreads(nthreads, [&](Ctx &ctx, unsigned t, unsigned) {
            return interpretThread(ctx, prog.streams[t], base, rec[t]);
        });
    }

    // Drive the loop by hand instead of Runtime::run(): a fuzz case
    // must report deadlock and livelock as FuzzViolations, not abort
    // the whole sweep via panic().
    EventQueue &eq = sys.eventQueue();
    const std::uint64_t budget = 200000 + 4000 * prog.totalOps();
    while (!rt.allDone()) {
        if (eq.stopRequested())
            throw SimulationStopped();
        if (eq.executedCount() > budget) {
            throw FuzzViolation(
                "event budget exceeded (" + std::to_string(budget) +
                " events for " + std::to_string(prog.totalOps()) +
                " ops): hang or livelock");
        }
        if (!eq.runOne()) {
            throw FuzzViolation(
                "deadlock: unfinished thread(s) with an empty event queue");
        }
    }
    while (eq.runOne()) {
        if (eq.stopRequested())
            throw SimulationStopped();
        if (eq.executedCount() > budget)
            throw FuzzViolation("event budget exceeded while settling");
    }

    // Quiesce-time invariants: probes once more, then the registered
    // stat invariants (PEI conservation, back-op conservation, ...).
    checkProbesNow(sys);
    const auto audit = sys.stats().audit();
    if (!audit.empty()) {
        std::string what = "stats audit:";
        for (const std::string &v : audit)
            what += " [" + v + "]";
        throw FuzzViolation(what);
    }

    // Mode sanity: fixed-placement modes must not use the other side.
    if (mode == ExecMode::HostOnly && sys.pmu().peisMem() != 0) {
        throw FuzzViolation("mode sanity: Host-Only executed " +
                            std::to_string(sys.pmu().peisMem()) +
                            " PEI(s) in memory");
    }
    // PIM-Only tolerates exactly the vault-spanning multi-block runs
    // the decision stage is required to force host-side.
    if (mode == ExecMode::PimOnly && sys.mem().supportsPim() &&
        sys.pmu().peisHost() != sys.pmu().peisSpanHost()) {
        throw FuzzViolation("mode sanity: PIM-Only executed " +
                            std::to_string(sys.pmu().peisHost()) +
                            " PEI(s) on the host, " +
                            std::to_string(sys.pmu().peisSpanHost()) +
                            " vault-spanning");
    }

    // Differential check 1: final footprint bytes.
    std::vector<std::uint8_t> got(footprint);
    sys.memory().readBytes(base, got.data(), footprint);
    for (std::uint64_t i = 0; i < footprint; ++i) {
        if (got[i] == golden.image[i])
            continue;
        throw FuzzViolation(
            "memory divergence at block " +
            std::to_string(i / block_size) + " offset " +
            std::to_string(i % block_size) + ": simulated " +
            hex(got[i]) + " != golden " + hex(golden.image[i]));
    }

    // Differential check 2: every reader-PEI output operand.
    for (std::size_t ti = 0; ti < rec.size(); ++ti) {
        for (std::size_t k = 0; k < rec[ti].size(); ++k) {
            const PeiOutput &sim = rec[ti][k];
            const PeiOutput &ref = golden.outputs[ti][k];
            if (sim.size == ref.size &&
                std::memcmp(sim.bytes.data(), ref.bytes.data(),
                            ref.size) == 0) {
                continue;
            }
            throw FuzzViolation(
                "output divergence: thread " + std::to_string(ti) +
                " PEI #" + std::to_string(k) + " returned " +
                std::to_string(sim.size) + " byte(s), golden expects " +
                std::to_string(ref.size) + " byte(s)" +
                (sim.size == ref.size ? " with different contents"
                                      : ""));
        }
    }
}

} // namespace

std::string
FuzzCaseResult::summary() const
{
    if (failures.empty())
        return "";
    std::ostringstream os;
    os << "case seed=" << hex(id.seed) << " config=" << id.config;
    if (!id.backend.empty())
        os << " backend=" << id.backend;
    if (!id.coherence.empty())
        os << " coherence=" << id.coherence;
    if (!id.topology.empty() && id.topology != "chain")
        os << " topology=" << id.topology;
    if (id.cubes > 1)
        os << " cubes=" << id.cubes;
    if (id.pmu_shards > 1)
        os << " pmu_shards=" << id.pmu_shards;
    if (id.pei_batch > 1)
        os << " pei_batch=" << id.pei_batch;
    if (id.queue_depth > 0)
        os << " queue_depth=" << id.queue_depth;
    if (id.prefix != full_prefix)
        os << " prefix=" << id.prefix;
    if (id.thread_mask != 0xffffffffu)
        os << " mask=" << hex(id.thread_mask);
    os << " (" << total_ops << " ops): [" << execModeName(failures[0].mode)
       << "] " << failures[0].what;
    if (failures.size() > 1)
        os << " (+" << failures.size() - 1 << " more mode(s))";
    return os.str();
}

FuzzCaseResult
runFuzzCase(const FuzzCaseId &id, const FuzzOptions &opt, JobCtx *ctx)
{
    FuzzCaseResult res;
    res.id = id;

    // Pin the effective backend into the result's identity so any
    // reproducer replays on the same backend regardless of future
    // changes to the drawing scheme.
    if (res.id.backend.empty()) {
        res.id.backend =
            !opt.backend.empty()
                ? opt.backend
                : fuzzConfig(id.config, opt.master_seed,
                             ExecMode::HostOnly)
                      .mem_backend;
    }
    // The coherence policy is pinned the same way (the conflict-check
    // injection targets lazy, so it forces the pin).
    if (res.id.coherence.empty()) {
        res.id.coherence =
            opt.inject == InjectBug::SkipConflictCheck ? "lazy"
            : !opt.coherence.empty()
                ? opt.coherence
                : fuzzConfig(id.config, opt.master_seed,
                             ExecMode::HostOnly)
                      .pim.coherence.policy;
    }
    // So are the interconnect topology, cube count, and PMU banks.
    {
        const SystemConfig drawn =
            fuzzConfig(id.config, opt.master_seed, ExecMode::HostOnly);
        if (res.id.topology.empty()) {
            res.id.topology = !opt.topology.empty()
                                  ? opt.topology
                                  : topologyName(drawn.hmc.topology);
        }
        if (!res.id.cubes)
            res.id.cubes = opt.cubes ? opt.cubes : drawn.hmc.num_cubes;
        if (!res.id.pmu_shards) {
            res.id.pmu_shards =
                opt.pmu_shards ? opt.pmu_shards : drawn.pim.pmu_shards;
        }
        if (!res.id.pei_batch) {
            res.id.pei_batch =
                opt.pei_batch ? opt.pei_batch : drawn.pim.pei_batch;
        }
        if (res.id.queue_depth < 0) {
            res.id.queue_depth =
                opt.queue_depth >= 0
                    ? opt.queue_depth
                    : static_cast<int>(drawn.pim.pcu.issue_queue_depth);
        }
    }

    const FuzzProgram prog =
        generateProgram(id.seed, id.prefix, id.thread_mask);
    res.total_ops = prog.totalOps();
    const GoldenResult golden = runGolden(prog);

    static constexpr ExecMode modes[] = {
        ExecMode::HostOnly,
        ExecMode::PimOnly,
        ExecMode::IdealHost,
        ExecMode::LocalityAware,
    };
    for (const ExecMode mode : modes) {
        try {
            runOneMode(prog, golden, mode, id, opt, ctx);
        } catch (const SimulationStopped &) {
            throw; // watchdog cancellation is the sweep's business
        } catch (const std::exception &e) {
            res.failures.push_back({mode, e.what()});
        }
    }
    return res;
}

namespace
{

/** Length of the longest (truncated) stream of @p id's program. */
std::size_t
longestStream(const FuzzCaseId &id)
{
    const FuzzProgram p =
        generateProgram(id.seed, id.prefix, id.thread_mask);
    std::size_t longest = 0;
    for (const auto &s : p.streams)
        longest = std::max(longest, s.size());
    return longest;
}

} // namespace

FuzzCaseResult
shrinkCase(const FuzzCaseId &failing, const FuzzOptions &opt,
           std::size_t max_trials)
{
    std::size_t trials = 0;
    const auto fails = [&](const FuzzCaseId &id, FuzzCaseResult &out) {
        ++trials;
        out = runFuzzCase(id, opt, nullptr);
        return !out.ok();
    };

    FuzzCaseId best = failing;
    FuzzCaseResult best_res;
    if (!fails(best, best_res))
        return best_res; // did not reproduce; caller inspects ok()

    bool progress = true;
    while (progress && trials < max_trials) {
        progress = false;

        // Phase 1: halve the per-thread prefix while still failing.
        while (trials < max_trials) {
            const std::size_t longest = longestStream(best);
            if (longest <= 1)
                break;
            FuzzCaseId trial = best;
            trial.prefix = longest / 2;
            FuzzCaseResult r;
            if (!fails(trial, r))
                break;
            best = trial;
            best_res = std::move(r);
            progress = true;
        }

        // Phase 2: drop whole threads while still failing.  Thread
        // streams are seeded independently, so clearing a mask bit
        // leaves every surviving stream byte-identical.
        const FuzzProgram cur =
            generateProgram(best.seed, best.prefix, best.thread_mask);
        for (const unsigned t : cur.thread_ids) {
            if (trials >= max_trials)
                break;
            FuzzCaseId trial = best;
            trial.thread_mask = best.thread_mask & ~(1u << t);
            FuzzCaseResult r;
            if (fails(trial, r)) {
                best = trial;
                best_res = std::move(r);
                progress = true;
            }
        }
    }
    return best_res;
}

std::string
replayFileContents(const FuzzCaseId &id, const FuzzOptions &opt)
{
    std::ostringstream os;
    os << "# simfuzz reproducer (replay with: simfuzz --replay-file "
          "<this file>)\n";
    os << "master_seed=" << opt.master_seed << "\n";
    os << "configs=" << opt.num_configs << "\n";
    os << "probe_every=" << opt.probe_every << "\n";
    os << "inject=" << injectBugName(opt.inject) << "\n";
    os << "seed=" << hex(id.seed) << "\n";
    os << "config=" << id.config << "\n";
    if (id.prefix == full_prefix)
        os << "prefix=full\n";
    else
        os << "prefix=" << id.prefix << "\n";
    os << "thread_mask=" << hex(id.thread_mask) << "\n";
    if (!id.backend.empty())
        os << "backend=" << id.backend << "\n";
    if (!id.coherence.empty())
        os << "coherence=" << id.coherence << "\n";
    if (!id.topology.empty())
        os << "topology=" << id.topology << "\n";
    if (id.cubes)
        os << "cubes=" << id.cubes << "\n";
    if (id.pmu_shards)
        os << "pmu_shards=" << id.pmu_shards << "\n";
    if (id.pei_batch)
        os << "pei_batch=" << id.pei_batch << "\n";
    if (id.queue_depth >= 0)
        os << "queue_depth=" << id.queue_depth << "\n";
    return os.str();
}

bool
parseReplayFile(const std::string &text, FuzzCaseId &id, FuzzOptions &opt)
{
    std::istringstream is(text);
    std::string line;
    bool saw_seed = false;
    while (std::getline(is, line)) {
        const std::size_t start = line.find_first_not_of(" \t\r");
        if (start == std::string::npos || line[start] == '#')
            continue;
        const std::size_t eq = line.find('=', start);
        if (eq == std::string::npos)
            return false;
        const std::string key = line.substr(start, eq - start);
        const std::string value = line.substr(eq + 1);
        try {
            if (key == "master_seed") {
                opt.master_seed = std::stoull(value, nullptr, 0);
            } else if (key == "configs") {
                opt.num_configs =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else if (key == "probe_every") {
                opt.probe_every = std::stoull(value, nullptr, 0);
            } else if (key == "inject") {
                if (value == "none")
                    opt.inject = InjectBug::None;
                else if (value == "skip-unlock")
                    opt.inject = InjectBug::SkipUnlock;
                else if (value == "skip-back-inval")
                    opt.inject = InjectBug::SkipBackInval;
                else if (value == "skip-conflict-check")
                    opt.inject = InjectBug::SkipConflictCheck;
                else
                    return false;
            } else if (key == "seed") {
                id.seed = std::stoull(value, nullptr, 0);
                saw_seed = true;
            } else if (key == "config") {
                id.config =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else if (key == "prefix") {
                id.prefix = value == "full"
                                ? full_prefix
                                : std::stoull(value, nullptr, 0);
            } else if (key == "thread_mask") {
                id.thread_mask = static_cast<std::uint32_t>(
                    std::stoul(value, nullptr, 0));
            } else if (key == "backend") {
                id.backend = value;
            } else if (key == "coherence") {
                id.coherence = value;
            } else if (key == "topology") {
                id.topology = value;
            } else if (key == "cubes") {
                id.cubes =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else if (key == "pmu_shards") {
                id.pmu_shards =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else if (key == "pei_batch") {
                id.pei_batch =
                    static_cast<unsigned>(std::stoul(value, nullptr, 0));
            } else if (key == "queue_depth") {
                id.queue_depth =
                    static_cast<int>(std::stol(value, nullptr, 0));
            } else {
                return false;
            }
        } catch (const std::exception &) {
            return false;
        }
    }
    return saw_seed;
}

std::string
replayCommand(const FuzzCaseId &id, const FuzzOptions &opt)
{
    std::ostringstream os;
    os << "simfuzz --replay-seed " << hex(id.seed) << " --replay-config "
       << id.config;
    if (id.prefix != full_prefix)
        os << " --replay-prefix " << id.prefix;
    if (id.thread_mask != 0xffffffffu)
        os << " --replay-mask " << hex(id.thread_mask);
    if (!id.backend.empty())
        os << " --replay-backend " << id.backend;
    if (!id.coherence.empty())
        os << " --replay-coherence " << id.coherence;
    if (!id.topology.empty())
        os << " --replay-topology " << id.topology;
    if (id.cubes)
        os << " --replay-cubes " << id.cubes;
    if (id.pmu_shards)
        os << " --replay-pmu-shards " << id.pmu_shards;
    if (id.pei_batch)
        os << " --replay-batch " << id.pei_batch;
    if (id.queue_depth >= 0)
        os << " --replay-queue-depth " << id.queue_depth;
    os << " --master-seed " << opt.master_seed << " --configs "
       << opt.num_configs;
    if (opt.inject != InjectBug::None)
        os << " --inject-bug " << injectBugName(opt.inject);
    return os.str();
}

} // namespace fuzz
} // namespace pei
