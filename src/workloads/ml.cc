#include "ml.hh"

#include <cmath>

#include "common/logging.hh"
#include "common/rng.hh"
#include "pim/pei_op.hh"
#include "workloads/input_cache.hh"

namespace pei
{

/** Memoized SC input: point matrix and candidate centers, generated
 *  from one RNG stream and shared read-only across runs. */
struct ScInput
{
    std::vector<float> points;
    std::vector<float> centers;
};

/** Memoized SVM input: instance matrix and hyperplane weights. */
struct SvmInput
{
    std::vector<double> x;
    std::vector<double> w;
};

// ----------------------------------------------------------------- SC

void
StreamclusterWorkload::setup(Runtime &rt)
{
    fatal_if(dims % chunk_floats != 0,
             "SC dims must be a multiple of %u", chunk_floats);
    points_addr = rt.allocArray<float>(num_points * dims);
    VirtualMemory &vm = rt.system().memory();

    const std::string key = "sc/p=" + std::to_string(num_points) +
                            "/d=" + std::to_string(dims) +
                            "/c=" + std::to_string(num_centers) +
                            "/seed=" + std::to_string(seed);
    input = &cachedInput<ScInput>(key, [this] {
        Rng rng(seed ^ 0x5C);
        ScInput in;
        in.points.resize(num_points * dims);
        for (auto &p : in.points)
            p = static_cast<float>(rng.uniform() * 10.0 - 5.0);
        in.centers.resize(std::size_t{num_centers} * dims);
        for (auto &c : in.centers)
            c = static_cast<float>(rng.uniform() * 10.0 - 5.0);
        return in;
    });
    vm.writeArray<float>(points_addr, input->points.size(),
                         [this](std::uint64_t i) { return input->points[i]; });

    assignment.assign(num_points, 0);
    best_dist.assign(num_points, 0.0f);
}

Task
StreamclusterWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const std::uint64_t pb = num_points * tid / n;
    const std::uint64_t pe = num_points * (tid + 1) / n;
    const unsigned chunks = dims / chunk_floats;

    // PARSEC streamcluster evaluates one candidate center at a time
    // against every point (pgain), so each pass streams the whole
    // point matrix once — there is no block reuse across centers,
    // which is exactly why the paper's Host-Only SC reads 64 bytes
    // per PEI (§7.4).  Batched issue overlaps the PEIs of several
    // points; the per-point squared distance accumulates from the
    // PEI outputs and argmin folds functionally after each pass.
    constexpr std::uint64_t batch = 32;
    std::vector<float> acc(batch);

    for (unsigned c = 0; c < num_centers; ++c) {
        for (std::uint64_t p0 = pb; p0 < pe; p0 += batch) {
            const std::uint64_t bend = std::min(p0 + batch, pe);
            std::fill(acc.begin(), acc.end(), 0.0f);
            for (std::uint64_t p = p0; p < bend; ++p) {
                float *slot = &acc[p - p0];
                for (unsigned ch = 0; ch < chunks; ++ch) {
                    const Addr chunk_addr =
                        points_addr +
                        4 * (p * dims + std::uint64_t{ch} * chunk_floats);
                    const float *center_chunk =
                        &input->centers[std::size_t{c} * dims +
                                        std::size_t{ch} * chunk_floats];
                    co_await ctx.peiAsyncCb(
                        PeiOpcode::EuclidDist, chunk_addr, center_chunk,
                        chunk_floats * 4,
                        [slot](const PimPacket &pkt) {
                            float partial;
                            std::memcpy(&partial, pkt.output.data(), 4);
                            *slot += partial;
                        });
                    ++peis_issued;
                }
            }
            co_await ctx.drain();
            for (std::uint64_t p = p0; p < bend; ++p) {
                if (c == 0 || acc[p - p0] < best_dist[p]) {
                    best_dist[p] = acc[p - p0];
                    assignment[p] = c;
                }
            }
            co_await ctx.compute(2 * (bend - p0));
        }
    }
}

void
StreamclusterWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
StreamclusterWorkload::validate(System &sys, std::string &msg)
{
    (void)sys;
    for (std::uint64_t p = 0; p < num_points; ++p) {
        float ref_best = 0.0f;
        unsigned ref_idx = 0;
        for (unsigned c = 0; c < num_centers; ++c) {
            float d = 0.0f;
            for (unsigned k = 0; k < dims; ++k) {
                const float diff =
                    input->points[p * dims + k] -
                    input->centers[std::size_t{c} * dims + k];
                d += diff * diff;
            }
            if (c == 0 || d < ref_best) {
                ref_best = d;
                ref_idx = c;
            }
        }
        // FP accumulation order differs; require the chosen center's
        // distance to be within tolerance of the true minimum.
        const float tol = 1e-3f * (1.0f + ref_best);
        if (assignment[p] != ref_idx &&
            std::fabs(best_dist[p] - ref_best) > tol) {
            msg = "SC: point " + std::to_string(p) + " assigned to " +
                  std::to_string(assignment[p]) + " (dist " +
                  std::to_string(best_dist[p]) + "), expected " +
                  std::to_string(ref_idx) + " (dist " +
                  std::to_string(ref_best) + ")";
            return false;
        }
    }
    return true;
}

// ---------------------------------------------------------------- SVM

void
SvmWorkload::setup(Runtime &rt)
{
    fatal_if(dims % chunk_doubles != 0,
             "SVM dims must be a multiple of %u", chunk_doubles);
    x_addr = rt.allocArray<double>(num_instances * dims);
    VirtualMemory &vm = rt.system().memory();

    const std::string key = "svm/n=" + std::to_string(num_instances) +
                            "/d=" + std::to_string(dims) +
                            "/seed=" + std::to_string(seed);
    input = &cachedInput<SvmInput>(key, [this] {
        Rng rng(seed ^ 0x5D);
        SvmInput in;
        in.x.resize(num_instances * dims);
        for (auto &v : in.x)
            v = rng.uniform() * 2.0 - 1.0;
        in.w.resize(dims);
        for (auto &v : in.w)
            v = rng.uniform() * 2.0 - 1.0;
        return in;
    });
    vm.writeArray<double>(x_addr, input->x.size(),
                          [this](std::uint64_t i) { return input->x[i]; });

    dots.assign(num_instances, 0.0);
}

Task
SvmWorkload::kernel(Ctx &ctx, unsigned tid, unsigned n)
{
    const std::uint64_t ib = num_instances * tid / n;
    const std::uint64_t ie = num_instances * (tid + 1) / n;
    const unsigned chunks = dims / chunk_doubles;

    constexpr std::uint64_t batch = 8;
    for (std::uint64_t i0 = ib; i0 < ie; i0 += batch) {
        const std::uint64_t bend = std::min(i0 + batch, ie);
        for (std::uint64_t i = i0; i < bend; ++i) {
            double *slot = &dots[i];
            for (unsigned ch = 0; ch < chunks; ++ch) {
                const Addr chunk_addr =
                    x_addr +
                    8 * (i * dims + std::uint64_t{ch} * chunk_doubles);
                const double *w_chunk =
                    &input->w[std::size_t{ch} * chunk_doubles];
                co_await ctx.peiAsyncCb(
                    PeiOpcode::DotProduct, chunk_addr, w_chunk,
                    chunk_doubles * 8,
                    [slot](const PimPacket &pkt) {
                        double partial;
                        std::memcpy(&partial, pkt.output.data(), 8);
                        *slot += partial;
                    });
                ++peis_issued;
            }
        }
        co_await ctx.drain();
        co_await ctx.compute(8);
    }
}

void
SvmWorkload::spawn(Runtime &rt, unsigned threads, unsigned base)
{
    rt.spawnThreads(
        threads,
        [this](Ctx &ctx, unsigned tid, unsigned n) {
            return kernel(ctx, tid, n);
        },
        base);
}

bool
SvmWorkload::validate(System &sys, std::string &msg)
{
    (void)sys;
    for (std::uint64_t i = 0; i < num_instances; ++i) {
        double ref = 0.0;
        for (unsigned k = 0; k < dims; ++k)
            ref += input->w[k] * input->x[i * dims + k];
        if (std::fabs(dots[i] - ref) > 1e-9 + 1e-6 * std::fabs(ref)) {
            msg = "SVM: dot product of instance " + std::to_string(i) +
                  " is " + std::to_string(dots[i]) + ", expected " +
                  std::to_string(ref);
            return false;
        }
    }
    return true;
}

} // namespace pei
