// Cell-blocked tree traversal (the batched force-evaluation engine): the
// sorted particle array is partitioned into Morton-contiguous *leaf
// groups*, the tree is walked once per group with the MAC tested against
// the group's bounding box (distance to the box's nearest point, so the
// per-target s/d <= theta bound of the per-particle walk is preserved),
// and the resulting interaction lists are evaluated in batched SoA inner
// loops (kernels::{VortexBatch, CoulombBatch}) that carry no callback and
// no branch — the compiler auto-vectorizes them.
//
// The per-particle walk (tree/evaluate.hpp sample_*) remains the reference
// implementation; tests/test_blocked.cpp pins this engine against it:
// bit-identical at theta = 0, within the per-particle error envelope at
// theta > 0.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "kernels/algebraic.hpp"
#include "kernels/coulomb.hpp"
#include "support/thread_pool.hpp"
#include "support/workspace_pool.hpp"
#include "tree/octree.hpp"

namespace stnb::tree {

/// A Morton-contiguous run of whole leaves used as one evaluation target
/// block (and one thread-pool work item).
struct LeafGroup {
  std::int32_t first = 0;  // particle slice [first, first+count), sorted order
  std::int32_t count = 0;
  Vec3 lo, hi;  // tight AABB over the group's particles (not the leaf boxes)
};

/// Partitions the tree's sorted particles into leaf groups of up to
/// `group_size` particles. Groups never split a leaf, so a single leaf
/// larger than group_size forms its own group; together the groups tile
/// [0, n) in ascending order.
std::vector<LeafGroup> build_leaf_groups(const Octree& tree, int group_size);

/// A contiguous slice of the sorted source-particle array to be evaluated
/// directly (near field).
struct SourceRange {
  std::int32_t first = 0;
  std::int32_t count = 0;
};

/// The interactions of one target group: source-particle ranges (adjacent
/// ranges merged, ascending) and accepted far-field node indices.
struct InteractionList {
  std::vector<SourceRange> near;
  std::vector<std::int32_t> far;

  void clear() {
    near.clear();
    far.clear();
  }
};

/// Fills `out` with the group's interactions via one walk_box traversal
/// (clears it first). Exposed separately from the evaluator for tests; the
/// evaluator fuses collection with evaluation per group.
void collect_interactions(const Octree& tree, const LeafGroup& group,
                          double theta, InteractionList& out);

/// Far-field handling of the vortex evaluation (mirrors the refresh logic
/// of vortex::TreeRhs's cached far field).
enum class FarFieldMode {
  kCombined,  // far contributions added into u/grad
  kSeparate,  // far kept apart in far_u/far_grad (near-only u/grad)
  kSkip,      // far not evaluated at all (caller reuses a frozen cache)
};

/// Results indexed by *sorted* particle position (tree.particles() order);
/// use the stored particle ids to map back to caller indices.
struct VortexField {
  std::vector<Vec3> u;
  std::vector<Mat3> grad;
  std::vector<Vec3> far_u;     // filled under kSeparate only
  std::vector<Mat3> far_grad;  // filled under kSeparate only
  std::uint64_t near = 0;  // particle-particle kernel evaluations
  std::uint64_t far = 0;   // particle-multipole evaluations
};

struct CoulombField {
  std::vector<double> phi;
  std::vector<Vec3> e;
  std::uint64_t near = 0;
  std::uint64_t far = 0;
};

/// SoA mirror of a particle array: positions plus both charge kinds, so
/// either kernel addresses a source range in place (no per-call gather).
struct SourceSoA {
  std::vector<double> x, y, z, q, ax, ay, az;

  explicit SourceSoA(std::span<const TreeParticle> ps);
};

/// The kernel concept of the blocked evaluator and of the distributed
/// solve (tree/parallel): one terms struct per kernel names the kernel and
/// its target batch, the source SoA fields the near call reads, the far
/// call, and the per-target result record `Value` (the batch's
/// accumulator components). The physics stays in kernels/ and
/// tree/multipole; a terms struct only routes data to it.
struct VortexTerms {
  using Kernel = kernels::AlgebraicKernel;
  using Batch = kernels::VortexBatch;
  struct Value {
    Vec3 u;
    Mat3 grad;
  };

  static void near(const Kernel& kernel, const SourceSoA& src,
                   std::size_t first, std::size_t count,
                   std::int64_t self_shift, Batch& tgt) {
    kernel.accumulate_batch(src.x.data() + first, src.y.data() + first,
                            src.z.data() + first, src.ax.data() + first,
                            src.ay.data() + first, src.az.data() + first,
                            count, self_shift, tgt);
  }
  static void far(const Kernel& kernel, const Multipole& mp, Batch& tgt) {
    mp.evaluate_biot_savart_batch(tgt, &kernel);
  }
  static Value load(const Batch& b, std::size_t t) {
    Value v{{b.ux[t], b.uy[t], b.uz[t]}, {}};
    for (int c = 0; c < 9; ++c) v.grad.m[c] = b.j[c][t];
    return v;
  }
  static void store(const Value& v, Batch& b, std::size_t t) {
    b.ux[t] = v.u.x;
    b.uy[t] = v.u.y;
    b.uz[t] = v.u.z;
    for (int c = 0; c < 9; ++c) b.j[c][t] = v.grad.m[c];
  }
  static void add(Value& to, const Value& v) {
    to.u += v.u;
    to.grad += v.grad;
  }
  /// Copies result records into the public result columns.
  static void split(const std::vector<Value>& v, std::vector<Vec3>& u,
                    std::vector<Mat3>& grad) {
    u.resize(v.size());
    grad.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      u[i] = v[i].u;
      grad[i] = v[i].grad;
    }
  }
};

struct CoulombTerms {
  using Kernel = kernels::CoulombKernel;
  using Batch = kernels::CoulombBatch;
  struct Value {
    double phi = 0.0;
    Vec3 e;
  };

  static void near(const Kernel& kernel, const SourceSoA& src,
                   std::size_t first, std::size_t count,
                   std::int64_t self_shift, Batch& tgt) {
    kernel.accumulate_batch(src.x.data() + first, src.y.data() + first,
                            src.z.data() + first, src.q.data() + first, count,
                            self_shift, tgt);
  }
  static void far(const Kernel&, const Multipole& mp, Batch& tgt) {
    mp.evaluate_coulomb_batch(tgt);
  }
  static Value load(const Batch& b, std::size_t t) {
    return {b.phi[t], {b.ex[t], b.ey[t], b.ez[t]}};
  }
  static void store(const Value& v, Batch& b, std::size_t t) {
    b.phi[t] = v.phi;
    b.ex[t] = v.e.x;
    b.ey[t] = v.e.y;
    b.ez[t] = v.e.z;
  }
  static void add(Value& to, const Value& v) {
    to.phi += v.phi;
    to.e += v.e;
  }
  static void split(const std::vector<Value>& v, std::vector<double>& phi,
                    std::vector<Vec3>& e) {
    phi.resize(v.size());
    e.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      phi[i] = v[i].phi;
      e[i] = v[i].e;
    }
  }
};

/// Per-target accumulators of a blocked evaluation (sorted order).
/// BlockedEvaluator::begin fills in the *local* contributions; finish
/// adds the imports and leaves the result in `value` (and `far` under
/// kSeparate). Stores and reloads are lossless and the accumulation order
/// is fixed (local near, then import near; local far nodes, then import
/// multipoles), so the split costs no bits.
template <typename Terms>
struct Accumulators {
  FarFieldMode mode = FarFieldMode::kCombined;
  std::vector<typename Terms::Value> value;  // near field, then the result
  std::vector<typename Terms::Value> far;    // far field
  std::vector<std::int32_t> group_far;       // local far nodes per leaf group
  std::uint64_t near_count = 0;  // particle-particle evaluations so far
  std::uint64_t far_count = 0;   // particle-multipole evaluations so far
};

/// Evaluates all tree particles as targets, one blocked traversal per leaf
/// group. Holds an SoA mirror of the sorted particle array so near-field
/// source ranges are addressed in place (no per-call gather of sources).
/// Safe to call concurrently only from one thread at a time; the work
/// itself is parallelized over Config::pool (leaf groups are the work
/// items).
class BlockedEvaluator {
 public:
  struct Config {
    double theta = 0.3;
    /// Target particles per leaf group (block). Groups never split a leaf.
    int group_size = 8;
    /// Optional pool; nullptr evaluates groups serially on the caller.
    ThreadPool* pool = nullptr;
  };

  BlockedEvaluator(const Octree& tree, Config config);

  const std::vector<LeafGroup>& groups() const { return groups_; }

  /// Velocity + gradient for every tree particle (self-interactions
  /// excluded by index). `import_mp` / `import_p` are remote LET data
  /// applied to every target: multipoles join the far field, particles the
  /// near field (entries whose id matches a local particle are excluded
  /// for that target, like the per-particle path).
  VortexField evaluate_vortex(const kernels::AlgebraicKernel& kernel,
                              FarFieldMode mode = FarFieldMode::kCombined,
                              std::span<const Multipole> import_mp = {},
                              std::span<const TreeParticle> import_p = {}) const;

  /// Coulomb potential + field for every tree particle.
  CoulombField evaluate_coulomb(const kernels::CoulombKernel& kernel,
                                std::span<const Multipole> import_mp = {},
                                std::span<const TreeParticle> import_p = {}) const;

  /// Two-phase evaluation for communication overlap (tree/parallel runs
  /// the local half while LET imports are in flight), instantiated for
  /// VortexTerms and CoulombTerms: begin walks the tree and does all
  /// *local* work; finish applies the imports without a walk.
  /// evaluate_* is finish(begin()).
  template <typename Terms>
  Accumulators<Terms> begin(const typename Terms::Kernel& kernel,
                            FarFieldMode mode = FarFieldMode::kCombined) const;
  template <typename Terms>
  Accumulators<Terms> finish(const typename Terms::Kernel& kernel,
                             Accumulators<Terms> acc,
                             std::span<const Multipole> import_mp,
                             std::span<const TreeParticle> import_p) const;

 private:
  // Per-work-item scratch. Pool-owned (not thread_local) so a leaf-group
  // work item that suspends under the fiber scheduler keeps its buffers
  // when it resumes on a different OS thread; the pools amortize the
  // allocations to the peak number of concurrent groups.
  template <typename Terms>
  struct Workspace {
    typename Terms::Batch batch;
    typename Terms::Batch far_batch;
    InteractionList il;
  };
  template <typename Terms>
  using Pool = WorkspacePool<Workspace<Terms>>;

  const Octree& tree_;
  Config config_;
  std::vector<LeafGroup> groups_;
  SourceSoA src_;  // mirror of tree_.particles()
  // mutable: evaluations are logically const (results are returned, the
  // tree is untouched); the pools only recycle scratch buffers.
  mutable std::tuple<Pool<VortexTerms>, Pool<CoulombTerms>> workspaces_;
};

}  // namespace stnb::tree
