#include "graph.hh"

#include <algorithm>
#include <limits>
#include <system_error>
#include <thread>

#include "common/bitutil.hh"
#include "common/logging.hh"

namespace pei
{

namespace
{

// Base parameters with per-edge multiplicative noise (the standard
// "noisy SKG" smoothing): without it, R-MAT piles an unrealistically
// large share of all edges onto a handful of apex vertices (real
// social graphs' max in-degree is a fraction of a percent of the
// edges), which would turn PEI atomicity into an artificial
// serialization bottleneck.
constexpr double base_a = 0.57, base_b = 0.19, base_c = 0.19;
// b and c share a base, so b / total is also c / total, bit for bit.
static_assert(base_b == base_c, "the descent reuses b for c");

/**
 * Inputs with fewer edges run the sequential loop alone: below this,
 * a thread start and a jump-ahead cost more than the draws they
 * split.  A parallel run also finishes its last, smaller remainder
 * here.
 */
constexpr std::uint64_t parallel_min_edges = 65536;

/** Host threads one generation may use at most. */
constexpr unsigned max_workers = 8;

using Edge = std::pair<std::uint32_t, std::uint32_t>;

/**
 * Draw one candidate edge: exactly 2 * levels draws, whether or not
 * it is kept.  Returns false for an out-of-range end or a self-loop.
 */
inline bool
rmatCandidate(Rng &rng, unsigned levels, std::uint64_t vertices, Edge &out)
{
    std::uint64_t src = 0, dst = 0;
    for (unsigned l = 0; l < levels; ++l) {
        const double noise = 0.75 + 0.5 * rng.uniform();
        const double a0 = base_a * noise;
        const double total = a0 + base_b + base_c +
                             (1.0 - base_a - base_b - base_c);
        const double a = a0 / total;
        const double b = base_b / total;
        const double u = rng.uniform();
        // Quadrant choice without branches.  The thresholds a, a + b,
        // a + b + c rise monotonically, so (ge_a, ge_ab, ge_abc)
        // reads 000 top-left, 100 top-right, 110 bottom-left and 111
        // bottom-right: src takes ge_ab, dst the parity of all three.
        const unsigned ge_a = !(u < a);
        const unsigned ge_ab = !(u < a + b);
        const unsigned ge_abc = !(u < a + b + b);
        src = (src << 1) | ge_ab;
        dst = (dst << 1) | (ge_a ^ ge_ab ^ ge_abc);
    }
    if (src >= vertices || dst >= vertices || src == dst)
        return false;
    out = {static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst)};
    return true;
}

/**
 * Fill el.edges with the first @p edges kept candidates of the stream
 * seeded by @p seed, on up to @p workers host threads, and return the
 * generator positioned just after the candidate that gave the last
 * kept edge.  The result does not depend on @p workers.
 *
 * Each wave takes as many candidates as edges are still missing, so it
 * never overshoots.  Worker t jumps to its first candidate, draws one
 * contiguous range and writes the edges it keeps in place, at the
 * start of that range's slots; one ordered pass then moves them down
 * behind the edges already kept.
 */
Rng
rmatEdges(EdgeList &el, unsigned levels, std::uint64_t edges,
          std::uint64_t seed, unsigned workers)
{
    const std::uint64_t vertices = el.num_vertices;
    Rng rng(seed);
    if (workers < 2 || edges < parallel_min_edges) {
        el.edges.reserve(edges);
        Edge e;
        while (el.edges.size() < edges) {
            if (rmatCandidate(rng, levels, vertices, e))
                el.edges.push_back(e);
        }
        return rng;
    }

    el.edges.resize(edges);
    Edge *const out = el.edges.data();
    std::uint64_t kept = 0, drawn = 0; // edges kept, candidates drawn
    std::vector<std::uint64_t> first(workers + 1), got(workers);
    while (edges - kept >= parallel_min_edges) {
        const std::uint64_t base = kept, wave = edges - kept;
        for (unsigned t = 0; t <= workers; ++t)
            first[t] = wave * t / workers;
        auto run = [&](unsigned t) {
            Rng r = rng; // every worker jumps from the seed's state
            r.discard(2ULL * levels * (drawn + first[t]));
            Edge *dst = out + base + first[t];
            std::uint64_t n = 0;
            for (std::uint64_t c = first[t]; c < first[t + 1]; ++c)
                n += rmatCandidate(r, levels, vertices, dst[n]);
            got[t] = n;
        };
        std::vector<std::thread> threads;
        threads.reserve(workers - 1);
        for (unsigned t = 1; t < workers; ++t) {
            try {
                threads.emplace_back(run, t);
            } catch (const std::system_error &) {
                run(t); // no thread to be had: draw the range here
            }
        }
        run(0);
        for (auto &th : threads)
            th.join();
        for (unsigned t = 0; t < workers; ++t) {
            std::copy_n(out + base + first[t], got[t], out + kept);
            kept += got[t];
        }
        drawn += wave;
    }

    rng.discard(2ULL * levels * drawn);
    while (kept < edges) {
        if (rmatCandidate(rng, levels, vertices, out[kept]))
            ++kept;
    }
    return rng;
}

} // namespace

EdgeList
genRmat(std::uint64_t vertices, std::uint64_t edges, std::uint64_t seed)
{
    const unsigned hw = std::thread::hardware_concurrency();
    return detail::genRmatOnWorkers(vertices, edges, seed,
                                    std::clamp(hw, 1u, max_workers));
}

EdgeList
detail::genRmatOnWorkers(std::uint64_t vertices, std::uint64_t edges,
                         std::uint64_t seed, unsigned workers)
{
    fatal_if(vertices < 2, "R-MAT needs at least two vertices");
    EdgeList el;
    el.num_vertices = vertices;
    Rng rng = rmatEdges(el, ceilLog2(vertices), edges, seed, workers);

    // Cap apex in-degree.  Even noisy R-MAT concentrates edges on
    // its top vertices an order of magnitude harder than real
    // social graphs (soc-LiveJournal1's max in-degree is ~0.03% of
    // its edges; plain R-MAT exceeds 1%).  Excess in-edges of
    // over-cap vertices are redirected to uniform targets, keeping
    // the power-law body while matching real apex concentration.
    fatal_if(edges > std::numeric_limits<std::uint32_t>::max(),
             "R-MAT in-degree counters are 32-bit");
    const std::uint64_t cap = std::max<std::uint64_t>(
        64, static_cast<std::uint64_t>(0.0005 * static_cast<double>(edges)));
    std::vector<std::uint32_t> indeg(vertices, 0);
    for (const auto &[s, d] : el.edges)
        ++indeg[d];
    std::vector<std::uint32_t> kept(vertices, 0);
    for (auto &[s, d] : el.edges) {
        if (indeg[d] <= cap)
            continue;
        if (++kept[d] > cap) {
            std::uint32_t nd;
            do {
                nd = static_cast<std::uint32_t>(rng.below(vertices));
            } while (nd == s);
            d = nd;
        }
    }
    return el;
}

EdgeList
genUniform(std::uint64_t vertices, std::uint64_t edges, std::uint64_t seed)
{
    Rng rng(seed);
    EdgeList el;
    el.num_vertices = vertices;
    el.edges.reserve(edges);
    while (el.edges.size() < edges) {
        const auto src = static_cast<std::uint32_t>(rng.below(vertices));
        const auto dst = static_cast<std::uint32_t>(rng.below(vertices));
        if (src == dst)
            continue;
        el.edges.emplace_back(src, dst);
    }
    return el;
}

EdgeList
symmetrize(const EdgeList &el)
{
    EdgeList out;
    out.num_vertices = el.num_vertices;
    out.edges.reserve(el.edges.size() * 2);
    for (const auto &[s, d] : el.edges) {
        out.edges.emplace_back(s, d);
        out.edges.emplace_back(d, s);
    }
    return out;
}

CsrGraph::CsrGraph(Runtime &rt, const EdgeList &el)
    : nv(el.num_vertices), ne(el.edges.size())
{
    // Counting sort by source vertex.
    row.assign(nv + 1, 0);
    for (const auto &[s, d] : el.edges) {
        (void)d;
        ++row[s + 1];
    }
    for (std::uint64_t v = 0; v < nv; ++v)
        row[v + 1] += row[v];
    col.resize(ne);
    std::vector<std::uint64_t> cursor(row.begin(), row.end() - 1);
    for (const auto &[s, d] : el.edges)
        col[cursor[s]++] = d;

    // Materialize in simulated memory as 8-byte entries (the layout
    // the kernels' pointer arithmetic assumes).
    row_addr = rt.allocArray<std::uint64_t>(nv + 1);
    col_addr = rt.allocArray<std::uint64_t>(ne ? ne : 1);
    VirtualMemory &vm = rt.system().memory();
    vm.writeArray<std::uint64_t>(row_addr, nv + 1,
                                 [this](std::uint64_t v) { return row[v]; });
    vm.writeArray<std::uint64_t>(col_addr, ne,
                                 [this](std::uint64_t e) { return col[e]; });
}

const std::vector<NamedGraphSpec> &
figureGraphs()
{
    // SNAP/LAW dataset sizes scaled by 1/16 in vertex count — the
    // same factor as the caches in SystemConfig::scaled() — so each
    // stand-in keeps the original's vertex-state : LLC ratio
    // (p2p-Gnutella31 deep inside the cache … soc-LiveJournal1 at
    // ~2.3x the LLC, matching the paper's 38 MB vs 16 MB).  Edge
    // counts of the two densest graphs are capped to bound bench
    // runtime; the locality regime is set by the vertex arrays.
    // Ascending vertex count, the paper's Fig. 2/8 x-axis order.
    static const std::vector<NamedGraphSpec> specs = {
        {"p2p-Gnutella31", 3908, 9240},
        {"soc-Slashdot0811", 4848, 56500},
        {"web-Stanford", 17594, 143960},
        {"amazon-2008", 45930, 325860},
        {"com-Youtube", 70963, 187400},
        {"frwiki-2013", 82300, 1000000},
        {"wiki-Talk", 148732, 312700},
        {"cit-Patents", 236172, 1031240},
        {"soc-LiveJournal1", 302656, 2400000},
    };
    return specs;
}

} // namespace pei
