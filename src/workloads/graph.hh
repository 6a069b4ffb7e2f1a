/**
 * @file
 * Graph inputs for the five graph-processing workloads (§5.1).
 *
 * Real SNAP/LAW datasets are not available offline, so we synthesize
 * R-MAT graphs (power-law degree distribution, the property §7.1
 * credits for Locality-Aware's wins on social networks) whose sizes
 * are the paper's inputs scaled by the same factor as the caches in
 * SystemConfig::scaled().  The graph lives both host-side (reference
 * algorithms, generation) and in simulated memory as CSR arrays.
 */

#ifndef PEISIM_WORKLOADS_GRAPH_HH
#define PEISIM_WORKLOADS_GRAPH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "runtime/runtime.hh"

namespace pei
{

/** Host-side edge list. */
struct EdgeList
{
    std::uint64_t num_vertices = 0;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
};

/**
 * Generate an R-MAT graph (Chakrabarti et al. parameters a=0.57,
 * b=0.19, c=0.19, d=0.05), which yields the power-law degree
 * distribution of social-network graphs.  Self-loops are dropped;
 * duplicates are kept (as SNAP datasets also contain multi-edges
 * after symmetrization).
 */
EdgeList genRmat(std::uint64_t vertices, std::uint64_t edges,
                 std::uint64_t seed);

namespace detail
{

/**
 * genRmat() on a given number of host threads; the edge list is the
 * same for every @p workers.  1 runs the sequential loop.  genRmat()
 * passes the host's core count, capped; tests pass their own.
 */
EdgeList genRmatOnWorkers(std::uint64_t vertices, std::uint64_t edges,
                          std::uint64_t seed, unsigned workers);

} // namespace detail

/** Generate a uniformly random directed graph (low skew). */
EdgeList genUniform(std::uint64_t vertices, std::uint64_t edges,
                    std::uint64_t seed);

/** Add the reverse of every edge (for WCC's undirected traversal). */
EdgeList symmetrize(const EdgeList &el);

/**
 * CSR graph materialized both host-side (row/col vectors for
 * reference algorithms) and in simulated memory (row_ptr/col_idx
 * arrays of 8-byte entries, as the paper's pointer-chasing kernels
 * traverse).
 */
class CsrGraph
{
  public:
    /** Build from an edge list and copy into simulated memory. */
    CsrGraph(Runtime &rt, const EdgeList &el);

    std::uint64_t numVertices() const { return nv; }
    std::uint64_t numEdges() const { return ne; }

    /** Host-side CSR. */
    const std::vector<std::uint64_t> &rowPtr() const { return row; }
    const std::vector<std::uint32_t> &colIdx() const { return col; }
    std::uint64_t outDegree(std::uint64_t v) const
    {
        return row[v + 1] - row[v];
    }

    /** Simulated-memory addresses of the CSR arrays. */
    Addr rowPtrAddr() const { return row_addr; }
    Addr colIdxAddr() const { return col_addr; }

    /** Address of row_ptr[v]. */
    Addr rowPtrAddr(std::uint64_t v) const { return row_addr + 8 * v; }

    /** Address of col_idx[e]. */
    Addr colIdxAddr(std::uint64_t e) const { return col_addr + 8 * e; }

  private:
    std::uint64_t nv;
    std::uint64_t ne;
    std::vector<std::uint64_t> row;
    std::vector<std::uint32_t> col;
    Addr row_addr;
    Addr col_addr;
};

/**
 * The nine graphs of Figs. 2 and 8, scaled stand-ins for the SNAP /
 * LAW datasets (1/32 of the original vertex and edge counts, listed
 * in ascending vertex order as in the paper's figures).
 */
struct NamedGraphSpec
{
    const char *name;     ///< the real dataset this stands in for
    std::uint64_t vertices;
    std::uint64_t edges;
};

/** The nine Fig. 2/8 graph specs. */
const std::vector<NamedGraphSpec> &figureGraphs();

} // namespace pei

#endif // PEISIM_WORKLOADS_GRAPH_HH
