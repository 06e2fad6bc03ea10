// Cross-commit golden digests for the tree evaluators. The other tree tests
// compare two paths inside one build, so an accumulation-order change that
// moves both paths alike passes them; these digests pin the result bytes
// and the near/far tallies themselves. Everything runs on the scalar SIMD
// backend, whose arithmetic does not depend on the host's ISA.
//
// A digest changes only when the results do. A change that is meant to
// alter results re-records the values below and says why in its commit.
#include <gtest/gtest.h>

#include <span>
#include <type_traits>
#include <vector>

#include "mpsim/comm.hpp"
#include "simd/dispatch.hpp"
#include "support/rng.hpp"
#include "tree/interaction_list.hpp"
#include "tree/parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

namespace stnb::tree {
namespace {

/// FNV-1a (64-bit) over raw bytes, the checksum fault/checkpoint uses.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(v.data(), v.size() * sizeof(T));
  }
  void count(std::uint64_t n) { bytes(&n, sizeof n); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::vector<TreeParticle> sheet(std::size_t n, double* sigma) {
  vortex::SheetConfig config;
  config.n_particles = n;
  *sigma = config.sigma();
  const auto state = vortex::spherical_vortex_sheet(config);
  std::vector<TreeParticle> ps(n);
  for (std::size_t p = 0; p < n; ++p) {
    ps[p].x = vortex::position(state, p);
    ps[p].a = vortex::strength(state, p);
    ps[p].id = static_cast<std::uint32_t>(p);
  }
  return ps;
}

std::vector<TreeParticle> cloud(std::size_t n, std::uint64_t seed,
                                const Vec3& lo, const Vec3& hi,
                                std::uint32_t first_id) {
  Rng rng(seed);
  std::vector<TreeParticle> ps(n);
  for (std::size_t i = 0; i < n; ++i) {
    ps[i].x = rng.uniform_in_box(lo, hi);
    ps[i].q = rng.uniform(-1.0, 1.0);
    ps[i].a = rng.uniform_on_sphere() * rng.uniform(0.1, 1.0);
    ps[i].id = first_id + static_cast<std::uint32_t>(i);
  }
  return ps;
}

/// A LET import next to `local`'s domain: the multipoles of a remote
/// tree's top nodes, plus remote particles of which one carries the id
/// of local particle 5 (the evaluator must skip that pair).
struct Import {
  std::vector<Multipole> mp;
  std::vector<TreeParticle> p;
};

Import make_import(const Vec3& lo, const Vec3& hi) {
  const Octree remote(cloud(300, 77, lo, hi, 100000),
                      Domain::bounding_cube(lo, hi), {8, kMaxLevel});
  Import imp;
  for (const std::int32_t c : remote.root().child)
    if (c >= 0) imp.mp.push_back(remote.nodes()[c].mp);
  const auto near = cloud(40, 78, lo, hi, 200000);
  imp.p.assign(near.begin(), near.end());
  imp.p[17].id = 5;
  return imp;
}

std::uint64_t digest(const VortexField& f) {
  Digest d;
  d.values(f.u);
  d.values(f.grad);
  d.values(f.far_u);
  d.values(f.far_grad);
  d.count(f.near);
  d.count(f.far);
  return d.value();
}

std::uint64_t digest(const CoulombField& f) {
  Digest d;
  d.values(f.phi);
  d.values(f.e);
  d.count(f.near);
  d.count(f.far);
  return d.value();
}

TEST(GoldenTree, BlockedVortexOrderSixThetaPointThree) {
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  double sigma;
  auto ps = sheet(500, &sigma);
  Vec3 lo = ps[0].x, hi = lo;
  for (const auto& p : ps) {
    lo = min(lo, p.x);
    hi = max(hi, p.x);
  }
  const Octree tree(std::move(ps), Domain::bounding_cube(lo, hi),
                    {8, kMaxLevel});
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);
  const BlockedEvaluator evaluator(tree, {0.3, 8, nullptr});
  const Import imp = make_import(hi + Vec3{0.1, -0.5, -0.5},
                                 hi + Vec3{0.9, 0.3, 0.3});

  EXPECT_EQ(digest(evaluator.evaluate_vortex(kernel, FarFieldMode::kCombined)),
            0x6411abf4a19455ecULL);
  EXPECT_EQ(digest(evaluator.evaluate_vortex(kernel, FarFieldMode::kSeparate)),
            0xa2262ac61154bc1cULL);
  EXPECT_EQ(digest(evaluator.evaluate_vortex(kernel, FarFieldMode::kSkip)),
            0xa2c8d1e095274a0eULL);
  EXPECT_EQ(digest(evaluator.evaluate_vortex(kernel, FarFieldMode::kCombined,
                                             std::span(imp.mp),
                                             std::span(imp.p))),
            0xffc5d146c1c5ad06ULL);
  EXPECT_EQ(digest(evaluator.evaluate_vortex(kernel, FarFieldMode::kSeparate,
                                             std::span(imp.mp),
                                             std::span(imp.p))),
            0x995c7d541fcf3520ULL);
}

TEST(GoldenTree, BlockedCoulombThetaPointSixWithImports) {
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  const Octree tree(cloud(700, 41, {0, 0, 0}, {1, 1, 1}, 0),
                    {{0, 0, 0}, 1.0}, {8, kMaxLevel});
  const kernels::CoulombKernel kernel(0.01);
  const BlockedEvaluator evaluator(tree, {0.6, 8, nullptr});
  const Import imp = make_import({1.2, 0, 0}, {2.0, 1, 1});

  EXPECT_EQ(digest(evaluator.evaluate_coulomb(kernel)),
            0x2a1beec09c27e963ULL);
  EXPECT_EQ(digest(evaluator.evaluate_coulomb(kernel, std::span(imp.mp),
                                              std::span(imp.p))),
            0x6c2dd0471fb713a1ULL);
}

/// Runs one distributed solve per rank on contiguous slices of `all` and
/// digests every rank's results and tallies in rank order.
template <typename Solve>
std::uint64_t parallel_digest(const std::vector<TreeParticle>& all,
                              int p_ranks, double theta, Solve&& solve) {
  std::vector<Digest> per_rank(p_ranks);
  mpsim::Runtime rt;
  rt.run(p_ranks, [&](mpsim::Comm& comm) {
    const std::size_t n = all.size();
    const std::size_t begin = n * comm.rank() / p_ranks;
    const std::size_t end = n * (comm.rank() + 1) / p_ranks;
    const std::vector<TreeParticle> local(all.begin() + begin,
                                          all.begin() + end);
    ParallelConfig config;
    config.theta = theta;
    ParallelTree solver(comm, config);
    solve(solver, local, per_rank[comm.rank()]);
  });
  Digest total;
  for (const Digest& d : per_rank) total.count(d.value());
  return total.value();
}

TEST(GoldenTree, ParallelSolveVortexOneAndFourRanks) {
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  double sigma;
  const auto all = sheet(600, &sigma);
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6, sigma);
  const auto solve = [&](ParallelTree& solver,
                         const std::vector<TreeParticle>& local, Digest& d) {
    const VortexForces f = solver.solve_vortex(local, kernel);
    d.values(f.u);
    d.values(f.grad);
    d.count(f.timings.near);
    d.count(f.timings.far);
  };
  EXPECT_EQ(parallel_digest(all, 1, 0.3, solve), 0xf83d43facdbae337ULL);
  EXPECT_EQ(parallel_digest(all, 4, 0.3, solve), 0x1c7e32338ab5332dULL);
}

TEST(GoldenTree, ParallelSolveCoulombOneAndFourRanks) {
  const simd::ScopedBackend scalar(simd::Backend::kScalar);
  const auto all = cloud(900, 43, {0, 0, 0}, {1, 1, 1}, 0);
  const kernels::CoulombKernel kernel(0.01);
  const auto solve = [&](ParallelTree& solver,
                         const std::vector<TreeParticle>& local, Digest& d) {
    const CoulombForces f = solver.solve_coulomb(local, kernel);
    d.values(f.phi);
    d.values(f.e);
    d.count(f.timings.near);
    d.count(f.timings.far);
  };
  EXPECT_EQ(parallel_digest(all, 1, 0.6, solve), 0xed6667cad982cc54ULL);
  EXPECT_EQ(parallel_digest(all, 4, 0.6, solve), 0x9ac9de4a1822b7f0ULL);
}

}  // namespace
}  // namespace stnb::tree
