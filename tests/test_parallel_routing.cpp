// Result routing of the distributed tree solver: results must come back in
// each caller's own particle order whatever the ids and the input order.
// Every other distributed test passes dense ids in caller order, which is
// exactly the case that hides a permutation bug in the route back.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <type_traits>
#include <vector>

#include "mpsim/comm.hpp"
#include "support/rng.hpp"
#include "tree/parallel.hpp"
#include "vortex/setup.hpp"
#include "vortex/state.hpp"

namespace stnb::tree {
namespace {

constexpr int kRanks = 4;
constexpr int kEmptyRank = 2;

/// Global slice bounds: rank kEmptyRank gets nothing, the others split the
/// particles evenly.
std::vector<std::size_t> slice_bounds(std::size_t n) {
  std::vector<std::size_t> b(kRanks + 1, 0);
  int filled = 0;
  for (int r = 0; r < kRanks; ++r) {
    if (r != kEmptyRank) ++filled;
    b[r + 1] = n * filled / (kRanks - 1);
  }
  return b;
}

template <typename T>
bool same_bytes(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// One rank's input: the global slice, either in order with dense ids or
/// shuffled with sparse ids 7919 * i + 13 (i = global index).
struct Slice {
  std::vector<TreeParticle> particles;
  std::vector<std::size_t> perm;  // particles[k] is slice element perm[k]
};

Slice make_slice(const std::vector<TreeParticle>& all, int rank,
                 bool shuffled) {
  const auto b = slice_bounds(all.size());
  Slice s;
  s.perm.resize(b[rank + 1] - b[rank]);
  std::iota(s.perm.begin(), s.perm.end(), 0);
  if (shuffled) {
    Rng rng(1000 + rank);
    for (std::size_t i = s.perm.size(); i > 1; --i)
      std::swap(s.perm[i - 1], s.perm[rng() % i]);
  }
  s.particles.reserve(s.perm.size());
  for (const std::size_t k : s.perm) {
    const std::size_t global = b[rank] + k;
    TreeParticle p = all[global];
    p.id = shuffled ? static_cast<std::uint32_t>(7919 * global + 13)
                    : static_cast<std::uint32_t>(global);
    s.particles.push_back(p);
  }
  return s;
}

/// Runs `solve(solver, particles)` on every rank for the in-order and the
/// shuffled inputs, then hands each rank's pair of results and its
/// permutation to `check`.
template <typename Solve, typename Check>
void compare_runs(const std::vector<TreeParticle>& all, double theta,
                  Solve&& solve, Check&& check) {
  using Result = std::invoke_result_t<Solve&, ParallelTree&,
                                      const std::vector<TreeParticle>&>;
  std::vector<Result> dense(kRanks), sparse(kRanks);
  std::vector<Slice> slices(kRanks);
  for (const bool shuffled : {false, true}) {
    mpsim::Runtime rt;
    rt.run(kRanks, [&](mpsim::Comm& comm) {
      const Slice s = make_slice(all, comm.rank(), shuffled);
      ParallelConfig config;
      config.theta = theta;
      ParallelTree solver(comm, config);
      (shuffled ? sparse : dense)[comm.rank()] = solve(solver, s.particles);
      if (shuffled) slices[comm.rank()] = s;
    });
  }
  for (int r = 0; r < kRanks; ++r)
    check(r, dense[r], sparse[r], slices[r].perm);
}

TEST(ParallelRouting, SparseShuffledIdsAndAnEmptyRankRouteBitForBit) {
  vortex::SheetConfig sheet;
  sheet.n_particles = 600;
  const auto state = vortex::spherical_vortex_sheet(sheet);
  std::vector<TreeParticle> all(sheet.n_particles);
  for (std::size_t p = 0; p < all.size(); ++p) {
    all[p].x = vortex::position(state, p);
    all[p].a = vortex::strength(state, p);
  }
  const kernels::AlgebraicKernel kernel(kernels::AlgebraicOrder::k6,
                                        sheet.sigma());
  compare_runs(
      all, 0.3,
      [&](ParallelTree& solver, const std::vector<TreeParticle>& local) {
        return solver.solve_vortex(local, kernel);
      },
      [](int rank, const VortexForces& dense, const VortexForces& sparse,
         const std::vector<std::size_t>& perm) {
        ASSERT_EQ(sparse.u.size(), perm.size()) << "rank " << rank;
        if (rank == kEmptyRank) {
          EXPECT_TRUE(sparse.u.empty());
        }
        for (std::size_t k = 0; k < perm.size(); ++k) {
          EXPECT_TRUE(same_bytes(sparse.u[k], dense.u[perm[k]]))
              << "rank " << rank << " particle " << k;
          EXPECT_TRUE(same_bytes(sparse.grad[k], dense.grad[perm[k]]))
              << "rank " << rank << " particle " << k;
        }
        EXPECT_EQ(sparse.timings.near, dense.timings.near);
        EXPECT_EQ(sparse.timings.far, dense.timings.far);
      });
}

TEST(ParallelRouting, CoulombSparseShuffledIdsAndAnEmptyRankRouteBitForBit) {
  Rng rng(29);
  std::vector<TreeParticle> all(700);
  for (auto& p : all) {
    p.x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
    p.q = rng.uniform(-1.0, 1.0);
  }
  const kernels::CoulombKernel kernel(0.01);
  compare_runs(
      all, 0.6,
      [&](ParallelTree& solver, const std::vector<TreeParticle>& local) {
        return solver.solve_coulomb(local, kernel);
      },
      [](int rank, const CoulombForces& dense, const CoulombForces& sparse,
         const std::vector<std::size_t>& perm) {
        ASSERT_EQ(sparse.phi.size(), perm.size()) << "rank " << rank;
        if (rank == kEmptyRank) {
          EXPECT_TRUE(sparse.phi.empty());
        }
        for (std::size_t k = 0; k < perm.size(); ++k) {
          EXPECT_TRUE(same_bytes(sparse.phi[k], dense.phi[perm[k]]))
              << "rank " << rank << " particle " << k;
          EXPECT_TRUE(same_bytes(sparse.e[k], dense.e[perm[k]]))
              << "rank " << rank << " particle " << k;
        }
        EXPECT_EQ(sparse.timings.near, dense.timings.near);
        EXPECT_EQ(sparse.timings.far, dense.timings.far);
      });
}

}  // namespace
}  // namespace stnb::tree
