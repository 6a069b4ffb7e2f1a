#include "system.hh"

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pei
{

SystemConfig
SystemConfig::paperBaseline(ExecMode mode)
{
    SystemConfig cfg;
    cfg.cores = 16;
    cfg.phys_bytes = 32ULL << 30;

    // Table 2: private 32 KB L1-D (8-way), private 256 KB L2 (8-way),
    // shared 16 MB L3 (16-way), 16/64 MSHRs.
    cfg.cache.l1_bytes = 32 << 10;
    cfg.cache.l1_ways = 8;
    cfg.cache.l2_bytes = 256 << 10;
    cfg.cache.l2_ways = 8;
    cfg.cache.l3_bytes = 16 << 20;
    cfg.cache.l3_ways = 16;
    cfg.cache.core_mshrs = 16;
    cfg.cache.l3_mshrs = 64;

    // 8 HMCs of 16 vaults each, 80 GB/s full-duplex daisy chain,
    // FR-FCFS with tCL = tRCD = tRP = 13.75 ns, 16 banks/vault,
    // 64 TSVs/vault at 2 Gb/s.
    cfg.hmc.num_cubes = 8;
    cfg.hmc.vaults_per_cube = 16;
    cfg.hmc.link.gbps = 40.0;
    cfg.hmc.dram.banks_per_vault = 16;
    cfg.hmc.dram.tsv_gbps = 16.0;

    cfg.pim.mode = mode;
    cfg.pim.directory_entries = 2048;
    cfg.pim.directory_latency = 2;
    cfg.pim.monitor_latency = 3;
    cfg.pim.pcu.operand_buffer_entries = 4;
    cfg.pim.pcu.issue_width = 1;
    return cfg;
}

SystemConfig
SystemConfig::scaled(ExecMode mode)
{
    SystemConfig cfg = paperBaseline(mode);
    // Same structure at 1/16 scale: inputs shrink with the caches,
    // so each experiment keeps its working-set/capacity ratio.
    cfg.phys_bytes = 2ULL << 30;
    cfg.cache.l1_bytes = 16 << 10;
    cfg.cache.l2_bytes = 64 << 10;
    cfg.cache.l3_bytes = 1 << 20;
    cfg.hmc.num_cubes = 1;
    // Preserve the paper's internal:external bandwidth ratio: the
    // full system has 128 vaults x 16 GB/s = 2048 GB/s of vertical
    // bandwidth behind an 80 GB/s full-duplex chain (25.6:1).  One
    // cube has 256 GB/s internally, so the scaled chain carries
    // 5 GB/s per direction.  This — not raw capacity — is the
    // regime that makes simple PIM operations pay off (§2.1).
    cfg.hmc.link.gbps = 5.0;
    // The alternative backends scale alongside: two DDR channels and
    // one ideal PIM unit per HMC vault keep comparisons meaningful.
    cfg.ddr.channels = 2;
    cfg.ideal_mem.pim_units = cfg.hmc.vaults_per_cube;
    cfg.pim.directory_entries = 2048;
    return cfg;
}

System::System(const SystemConfig &cfg_in)
    : cfg(cfg_in), vm(cfg.phys_bytes)
{
    fatal_if(cfg.shards != 1,
             "shards = %u: a System runs on one event queue (1 is the "
             "only accepted value)",
             cfg.shards);
    MemBackendConfig mem_cfg;
    mem_cfg.phys_bytes = cfg.phys_bytes;
    mem_cfg.hmc = cfg.hmc;
    mem_cfg.ddr = cfg.ddr;
    mem_cfg.ideal = cfg.ideal_mem;
    mem_ = createMemoryBackend(cfg.mem_backend, eq, mem_cfg, stats_);
    hierarchy = std::make_unique<CacheHierarchy>(eq, cfg.cache, cfg.cores,
                                                 *mem_, stats_);
    cores.reserve(cfg.cores);
    for (unsigned c = 0; c < cfg.cores; ++c)
        cores.push_back(std::make_unique<Core>(eq, cfg.core, c, stats_));

    const unsigned l3_sets = static_cast<unsigned>(
        cfg.cache.l3_bytes / block_size / cfg.cache.l3_ways);
    pmu_ = std::make_unique<Pmu>(eq, cfg.pim, cfg.cores, l3_sets,
                                 cfg.cache.l3_ways, *hierarchy, *mem_, vm,
                                 stats_);
}

} // namespace pei
