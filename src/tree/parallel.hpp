// The distributed Barnes-Hut solver over an mpsim space communicator —
// the reproduction of PEPC's parallel layer (Sec. III-A):
//   1. global bounding cube (allreduce)
//   2. space-filling-curve repartition: Morton sort + sampled splitters +
//      alltoallv of particles (Warren-Salmon hashed oct-tree scheme)
//   3. local tree build with bottom-up multipole moments
//   4. *branch node exchange*: allgather of the coarsest local covers —
//      the communication step whose growth with P saturates strong
//      scaling in Fig. 5
//   5. locally-essential-tree (LET) exchange: each rank walks its local
//      tree against every remote rank's bounding box with the MAC and
//      ships accepted multipoles / unresolved leaf particles (this
//      replaces PEPC's asynchronous request-driven node fetching with a
//      deterministic pre-exchange; see DESIGN.md substitutions). The
//      payloads are *posted* point-to-point and drained later, so the
//      transfer overlaps the local half of phase 6
//   6. force evaluation, split for communication overlap: the local near
//      and far field are evaluated while the LET payloads are in flight
//      (BlockedEvaluator::begin), the payloads are then drained, and the
//      imports applied on top (BlockedEvaluator::finish) — bit-identical
//      to a synchronous exchange followed by a one-shot evaluation.
//      Parallelized over the per-rank thread pool (PEPC's hybrid
//      MPI/Pthreads layer)
//   7. routing of results back to the callers' particle layout, by the
//      octree's sort permutation (sorted index -> caller's rank and
//      index), so ids only serve self-interaction exclusion.
//
// Phases 1-7 are written once over the kernel concept of
// tree/interaction_list.hpp (VortexTerms, CoulombTerms); solve_vortex and
// solve_coulomb are thin wrappers. Every phase advances the rank's
// virtual clock (communication through mpsim's cost model, computation
// through explicit counters), so phase timings reproduce the Fig. 5
// breakdown deterministically.
#pragma once

#include <cstdint>
#include <vector>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "mpsim/comm.hpp"
#include "support/thread_pool.hpp"
#include "tree/evaluate.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {

struct ParallelConfig {
  double theta = 0.6;
  int leaf_capacity = 8;
  /// Modeled threads of the node-local Pthreads traversal layer (divides
  /// the modeled traversal time; PEPC uses cores-1 worker threads/node).
  int model_threads = 4;
  /// Optional real thread pool to execute traversal work concurrently.
  ThreadPool* pool = nullptr;
  /// Target particles per blocked-traversal leaf group (the thread-pool
  /// work item of the force phase; see tree/interaction_list.hpp).
  int group_size = 8;
};

/// Per-phase modeled wall-clock (virtual seconds) — the Fig. 5 series.
struct SolveTimings {
  double domain = 0.0;           // bbox + SFC repartition
  double tree_build = 0.0;       // local build + moments
  double branch_exchange = 0.0;  // branch allgather + top aggregation
  double let_exchange = 0.0;     // essential-node shipping
  double traversal = 0.0;        // force computation
  double total() const {
    return domain + tree_build + branch_exchange + let_exchange + traversal;
  }

  std::uint64_t near = 0;  // particle-particle kernel evaluations
  std::uint64_t far = 0;   // particle-multipole evaluations
  std::size_t local_particles = 0;  // after repartition
  std::size_t branch_count = 0;     // this rank's branches
  std::size_t let_sent = 0;         // shipped LET entries (all remotes)
};

struct VortexForces {
  std::vector<Vec3> u;     // per input particle, caller's order
  std::vector<Mat3> grad;
  SolveTimings timings;
};

struct CoulombForces {
  std::vector<double> phi;
  std::vector<Vec3> e;
  SolveTimings timings;
};

class ParallelTree {
 public:
  ParallelTree(mpsim::Comm space_comm, ParallelConfig config);

  /// Computes regularized Biot-Savart velocities + gradients for the
  /// caller's local particles, in the caller's order (every rank passes
  /// its slice, possibly empty; `id` fields must be globally unique — they
  /// key self-interaction exclusion).
  VortexForces solve_vortex(const std::vector<TreeParticle>& local,
                            const kernels::AlgebraicKernel& kernel);

  /// Coulomb potential + field (the Fig. 5 workload).
  CoulombForces solve_coulomb(const std::vector<TreeParticle>& local,
                              const kernels::CoulombKernel& kernel);

 private:
  struct Exchanged;
  /// Phases 1-7 for one kernel: the results per input particle, in the
  /// caller's order.
  template <typename Terms>
  std::vector<typename Terms::Value> solve(
      const std::vector<TreeParticle>& local,
      const typename Terms::Kernel& kernel, SolveTimings& timings);
  /// Phases 1-5 (LET sends posted, not yet received), shared by both
  /// kernels. Returns the partitioned local tree plus routing info; the
  /// imported interaction lists arrive via receive_let.
  Exchanged exchange(const std::vector<TreeParticle>& local,
                     SolveTimings& timings);
  /// Drains the LET payloads posted by exchange() into ex.import_mp /
  /// ex.import_p (ascending source rank, so the import order matches the
  /// old synchronous exchange). Called after the local evaluation half so
  /// the transfers overlap compute.
  void receive_let(Exchanged& ex, SolveTimings& timings);

  mpsim::Comm comm_;
  ParallelConfig config_;
};

}  // namespace stnb::tree
