/**
 * @file
 * Integration tests: every §5 workload runs on the simulated machine
 * and its output is validated against the host-side reference
 * implementation, under multiple execution modes.  These are the
 * strongest end-to-end checks in the suite: they exercise kernels,
 * PEI atomicity, coherence (back-invalidation/writeback), pfence,
 * the locality monitor, and the DRAM/link models together.
 */

#include <gtest/gtest.h>

#include "fixture.hh"
#include "workloads/analytics.hh"
#include "workloads/graph_workloads.hh"
#include "workloads/hash_table.hh"
#include "workloads/ml.hh"
#include "workloads/workload.hh"

namespace pei
{
namespace
{

using fixture::workloadConfig;

struct Case
{
    WorkloadKind kind;
    ExecMode mode;
};

std::string
caseName(const ::testing::TestParamInfo<Case> &info)
{
    return std::string(kindName(info.param.kind)) + "_" +
           fixture::execModeTestName(info.param.mode);
}

class WorkloadValidation : public ::testing::TestWithParam<Case>
{
};

TEST_P(WorkloadValidation, ProducesReferenceOutput)
{
    const Case c = GetParam();
    System sys(workloadConfig(c.mode));
    Runtime rt(sys);

    // Mini inputs: full algorithmic structure, fast to simulate.
    std::unique_ptr<Workload> w;
    switch (c.kind) {
      case WorkloadKind::ATF:
        w = std::make_unique<AtfWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::BFS:
        w = std::make_unique<BfsWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::PR:
        w = std::make_unique<PageRankWorkload>(1024, 8192, 7, 2);
        break;
      case WorkloadKind::SP:
        w = std::make_unique<SsspWorkload>(1024, 8192, 7);
        break;
      case WorkloadKind::WCC:
        w = std::make_unique<WccWorkload>(1024, 4096, 7);
        break;
      case WorkloadKind::HJ:
        w = std::make_unique<HashJoinWorkload>(2048, 8192, 7);
        break;
      case WorkloadKind::HG:
        w = std::make_unique<HistogramWorkload>(1u << 14, 7);
        break;
      case WorkloadKind::RP:
        w = std::make_unique<RadixPartitionWorkload>(1u << 14, 7, 2);
        break;
      case WorkloadKind::SC:
        w = std::make_unique<StreamclusterWorkload>(256, 32, 4, 7);
        break;
      case WorkloadKind::SVM:
        w = std::make_unique<SvmWorkload>(16, 512, 7);
        break;
    }

    w->setup(rt);
    w->spawn(rt, sys.numCores());
    const Tick elapsed = rt.run();
    EXPECT_GT(elapsed, 0u);
    EXPECT_GT(w->peiCount(), 0u);

    std::string msg;
    EXPECT_TRUE(w->validate(sys, msg)) << msg;
    sys.caches().checkInvariants();
}

std::vector<Case>
allCases()
{
    std::vector<Case> cases;
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (ExecMode mode :
             {ExecMode::HostOnly, ExecMode::PimOnly,
              ExecMode::LocalityAware}) {
            cases.push_back({kind, mode});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadValidation,
                         ::testing::ValuesIn(allCases()), caseName);

TEST(WorkloadFactory, MakesEveryKindAndSize)
{
    for (WorkloadKind kind : allWorkloadKinds()) {
        for (InputSize size :
             {InputSize::Small, InputSize::Medium, InputSize::Large}) {
            auto w = makeWorkload(kind, size);
            ASSERT_NE(w, nullptr);
            EXPECT_STREQ(w->name(), kindName(kind));
        }
    }
}

TEST(GraphGen, RmatIsPowerLawSkewed)
{
    EdgeList el = genRmat(4096, 32768, 11);
    ASSERT_EQ(el.edges.size(), 32768u);
    std::vector<std::uint64_t> deg(4096, 0);
    for (auto &[s, d] : el.edges) {
        (void)d;
        ++deg[s];
    }
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t top = 0;
    for (int i = 0; i < 41; ++i) // top 1% of vertices
        top += deg[i];
    // Power-law graphs concentrate a large edge share in few hubs.
    EXPECT_GT(top, el.edges.size() / 5);
}

TEST(GraphGen, UniformIsNotSkewed)
{
    EdgeList el = genUniform(4096, 32768, 11);
    std::vector<std::uint64_t> deg(4096, 0);
    for (auto &[s, d] : el.edges) {
        (void)d;
        ++deg[s];
    }
    std::sort(deg.rbegin(), deg.rend());
    std::uint64_t top = 0;
    for (int i = 0; i < 41; ++i)
        top += deg[i];
    EXPECT_LT(top, el.edges.size() / 10);
}

TEST(GraphGen, CsrMatchesEdgeList)
{
    SystemConfig cfg = workloadConfig(ExecMode::LocalityAware);
    System sys(cfg);
    Runtime rt(sys);
    EdgeList el = genRmat(512, 4096, 3);
    CsrGraph g(rt, el);
    EXPECT_EQ(g.numVertices(), 512u);
    EXPECT_EQ(g.numEdges(), 4096u);
    // Every edge appears exactly once in the CSR.
    std::uint64_t count = 0;
    for (std::uint64_t v = 0; v < g.numVertices(); ++v) {
        for (std::uint64_t e = g.rowPtr()[v]; e < g.rowPtr()[v + 1]; ++e) {
            ++count;
            EXPECT_LT(g.colIdx()[e], 512u);
        }
    }
    EXPECT_EQ(count, 4096u);
    // Simulated-memory copy agrees with the host copy.
    for (std::uint64_t v = 0; v <= g.numVertices(); v += 37)
        EXPECT_EQ(sys.memory().read<std::uint64_t>(g.rowPtrAddr(v)),
                  g.rowPtr()[v]);
    for (std::uint64_t e = 0; e < g.numEdges(); e += 97)
        EXPECT_EQ(sys.memory().read<std::uint64_t>(g.colIdxAddr(e)),
                  g.colIdx()[e]);
}

TEST(GraphGen, FigureGraphsAreAscendingAndNine)
{
    const auto &specs = figureGraphs();
    ASSERT_EQ(specs.size(), 9u);
    for (std::size_t i = 1; i < specs.size(); ++i)
        EXPECT_GT(specs[i].vertices, specs[i - 1].vertices);
}

TEST(HashTable, ContainsWalksOverflowChain)
{
    // Eight keys that all hash to bucket 0 of a two-bucket table:
    // six fill the primary bucket and two spill into one overflow.
    std::vector<std::uint64_t> keys;
    std::uint64_t k = 1;
    for (; keys.size() < 8; k += 2)
        if ((hashTableHash(k) & 1) == 0)
            keys.push_back(k);
    const HashTableImage img = buildHashTable(keys);
    ASSERT_EQ(img.num_buckets, 2u);
    ASSERT_EQ(img.buckets.size(), 3u);
    ASSERT_EQ(img.chain_next[0], 3u);

    for (const auto key : keys)
        EXPECT_TRUE(img.contains(key)) << key;
    // Absent keys: one walks bucket 0's whole chain, one lands in the
    // empty bucket 1.
    std::uint64_t miss0 = k, miss1 = k;
    while ((hashTableHash(miss0) & 1) != 0)
        miss0 += 2;
    while ((hashTableHash(miss1) & 1) != 1)
        miss1 += 2;
    EXPECT_FALSE(img.contains(miss0));
    EXPECT_FALSE(img.contains(miss1));
}

// Generated inputs are a compatibility contract: every figure and
// benchmark result depends on the exact bytes the generators emit, so
// a speed-up of a generator must reproduce them bit for bit.  These
// fingerprints pin the RNG draw order and floating-point expression
// order of the generators.

/** FNV-1a 64 over @p size bytes at @p p, folded into @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t size)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= b[i];
        h *= 0x100000001B3ULL;
    }
    return h;
}

constexpr std::uint64_t fnv_basis = 0xCBF29CE484222325ULL;

std::uint64_t
edgeListHash(const EdgeList &el)
{
    std::uint64_t h = fnv1a(fnv_basis, &el.num_vertices,
                            sizeof(el.num_vertices));
    for (const auto &[s, d] : el.edges) {
        h = fnv1a(h, &s, sizeof(s));
        h = fnv1a(h, &d, sizeof(d));
    }
    return h;
}

TEST(InputFingerprint, RmatWithApexCap)
{
    // 32768 edges give a cap of 64 in-edges.  Uncapped, the apex
    // vertex would draw over a thousand, so the redistribution pass
    // draws too; redirected edges may push a vertex a little past 64.
    const EdgeList el = genRmat(4096, 32768, 11);
    std::vector<std::uint64_t> indeg(4096, 0);
    for (const auto &[s, d] : el.edges)
        ++indeg[d];
    EXPECT_EQ(*std::max_element(indeg.begin(), indeg.end()), 70u);
    EXPECT_EQ(edgeListHash(el), 2039978838549742618ULL);
}

TEST(InputFingerprint, RmatNonPowerOfTwoVertices)
{
    // 3000 vertices sit in a 4096-wide recursion, so some draws land
    // on src/dst >= 3000 and are rejected.
    EXPECT_EQ(edgeListHash(genRmat(3000, 20000, 7)), 14837216242532193084ULL);
}

TEST(InputFingerprint, RmatTableThreeLarge)
{
    // The PR/BFS/SP/ATF large input, the repo benchmark's pagerank
    // graph, at the default seed and the held-out one.
    EXPECT_EQ(edgeListHash(genRmat(524288, 2621440, 1)),
              3006822649143179563ULL);
    EXPECT_EQ(edgeListHash(genRmat(524288, 2621440, 20151)),
              13663119488846399839ULL);
}

TEST(RmatParallel, SameEdgesOnAnyWorkerCount)
{
    // All above the sequential threshold: one wave and a sequential
    // tail (power of two), two waves (non-power-of-two), three waves
    // where four in ten candidates are rejected (five vertices).
    struct Input
    {
        std::uint64_t vertices, edges, seed, hash;
    };
    for (const Input &in : {Input{65536, 262144, 3, 18210091264796017325ULL},
                            Input{2100, 300000, 7, 15615303265457798487ULL},
                            Input{5, 400000, 2, 6226324367697925799ULL}}) {
        for (const unsigned workers : {1u, 2u, 3u, 4u, 8u}) {
            const EdgeList el = detail::genRmatOnWorkers(
                in.vertices, in.edges, in.seed, workers);
            ASSERT_EQ(el.edges.size(), in.edges);
            EXPECT_EQ(edgeListHash(el), in.hash)
                << in.vertices << " vertices on " << workers
                << " worker(s)";
        }
    }
}

TEST(InputFingerprint, Symmetrized)
{
    const EdgeList el = symmetrize(genRmat(3000, 20000, 7));
    ASSERT_EQ(el.edges.size(), 40000u);
    EXPECT_EQ(edgeListHash(el), 10737156009416334412ULL);
}

TEST(InputFingerprint, HashJoinTableAndProbes)
{
    System sys(workloadConfig(ExecMode::HostOnly));
    Runtime rt(sys);
    // The first allocation of a fresh System sits at the bottom of the
    // address space, so [base, base + allocatedBytes) covers
    // everything setup() writes: the bucket table and the probe keys.
    const Addr base = rt.alloc(block_size);
    HashJoinWorkload w(2048, 8192, 7);
    w.setup(rt);
    const std::uint64_t bytes = sys.memory().allocatedBytes();
    std::vector<std::uint8_t> image(bytes);
    sys.memory().readBytes(base, image.data(), bytes);
    EXPECT_EQ(fnv1a(fnv_basis, image.data(), bytes), 14437528860045102437ULL);

    // validate() holds the matches found to setup()'s expected count.
    w.spawn(rt, sys.numCores(), 0);
    rt.run();
    std::string msg;
    ASSERT_TRUE(w.validate(sys, msg)) << msg;
    EXPECT_EQ(w.matches(), 4138u);
}

} // namespace
} // namespace pei
