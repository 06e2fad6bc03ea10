#include "tree/parallel.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <span>

#include "tree/interaction_list.hpp"

namespace stnb::tree {

namespace {

/// Where a partitioned particle came from: the caller's rank and index.
struct Origin {
  std::int32_t rank = 0;
  std::int32_t index = 0;
};

/// Particle on the wire during repartitioning: carries its origin so
/// force results can be returned to the caller's layout.
struct WireParticle {
  TreeParticle p;
  Origin origin;
};

/// One target's result on its way back to the caller's index.
template <typename Value>
struct Routed {
  std::int32_t index = 0;
  Value value;
};

struct RankBox {
  Vec3 lo, hi;
};

// LET payload tags (one per payload kind; sources are distinguished by the
// sender rank, so a fixed tag pair suffices).
constexpr int kTagLetMp = 41000;
constexpr int kTagLetP = 41001;

/// Typed alltoallv: one vector per destination in, every source's
/// elements concatenated in source-rank order out.
template <typename T>
std::vector<T> alltoallv(mpsim::Comm& comm,
                         const std::vector<std::vector<T>>& to_each) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::vector<std::vector<std::byte>> payloads(to_each.size());
  for (std::size_t r = 0; r < to_each.size(); ++r) {
    payloads[r].resize(to_each[r].size() * sizeof(T));
    // memcpy forbids null pointers even for zero sizes (UBSan enforces
    // it), and an empty vector's data() is null.
    if (!payloads[r].empty())
      std::memcpy(payloads[r].data(), to_each[r].data(), payloads[r].size());
  }
  std::vector<T> out;
  for (const auto& bytes : comm.alltoallv_bytes(payloads)) {
    const std::size_t old = out.size();
    out.resize(old + bytes.size() / sizeof(T));
    if (!bytes.empty())
      std::memcpy(out.data() + old, bytes.data(), bytes.size());
  }
  return out;
}

}  // namespace

struct ParallelTree::Exchanged {
  std::unique_ptr<Octree> tree;  // over this rank's partitioned particles
  std::vector<Multipole> import_mp;      // accepted remote clusters
  std::vector<TreeParticle> import_p;    // unresolved remote particles
  // Routing: the origin of each particle in the order the octree was
  // given them, so sorted particle i goes back to origin[tree->order()[i]].
  std::vector<Origin> origin;
  // Posted-but-unreceived LET state: expected element counts per source
  // rank (from the counts allgather; zero-count sources post no message).
  // The payloads themselves are in flight until receive_let drains them —
  // the caller evaluates local work in between (near/far-communication
  // overlap). let_span stays open from post to drain so traces show the
  // traversal span overlapping it.
  std::vector<std::size_t> let_mp_counts, let_p_counts;
  obs::Span let_span;
};

ParallelTree::ParallelTree(mpsim::Comm space_comm, ParallelConfig config)
    : comm_(space_comm), config_(config) {}

ParallelTree::Exchanged ParallelTree::exchange(
    const std::vector<TreeParticle>& local, SolveTimings& timings) {
  const int p_ranks = comm_.size();
  const int rank = comm_.rank();
  const auto& cost = comm_.cost();
  const obs::Scope scope = comm_.obs_scope();
  Exchanged ex;

  // ---- phase 1+2: global domain + SFC repartition ------------------------
  obs::Span domain_span = scope.span("tree.domain");
  const double t0 = comm_.clock().now();
  Vec3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
  for (const auto& p : local) {
    lo = min(lo, p.x);
    hi = max(hi, p.x);
  }
  Vec3 glo, ghi;
  for (int c = 0; c < 3; ++c) {
    glo[c] = comm_.allreduce(lo[c], mpsim::ReduceOp::kMin);
    ghi[c] = comm_.allreduce(hi[c], mpsim::ReduceOp::kMax);
  }
  const Vec3 mid = 0.5 * (glo + ghi);
  double size = std::max(
      {ghi.x - glo.x, ghi.y - glo.y, ghi.z - glo.z, 1e-12});
  size *= 1.0 + 2e-9;
  const Domain domain{mid - Vec3{0.5 * size, 0.5 * size, 0.5 * size}, size};

  // Key, sort, sample splitters (Warren-Salmon style sample sort).
  std::vector<WireParticle> mine(local.size());
  for (std::size_t i = 0; i < local.size(); ++i) {
    mine[i].p = local[i];
    mine[i].p.key = particle_key(local[i].x, domain);
    mine[i].origin = {rank, static_cast<std::int32_t>(i)};
  }
  std::sort(mine.begin(), mine.end(),
            [](const WireParticle& a, const WireParticle& b) {
              return a.p.key < b.p.key;
            });
  const double n_local = static_cast<double>(local.size());
  comm_.compute(n_local * std::log2(std::max(2.0, n_local)) *
                cost.t_sort_per_particle);

  std::vector<TreeParticle> partitioned;
  {
    // This rank's partition with each particle's origin, scoped so it is
    // freed before the collectives of the later phases.
    std::vector<WireParticle> received;
    if (p_ranks > 1) {
      constexpr int kSamples = 32;
      std::vector<std::uint64_t> samples;
      for (int s = 0; s < kSamples && !mine.empty(); ++s)
        samples.push_back(
            mine[(mine.size() - 1) * s / std::max(1, kSamples - 1)].p.key);
      auto all_samples = comm_.allgatherv(samples);
      std::sort(all_samples.begin(), all_samples.end());
      std::vector<std::uint64_t> splitters;
      for (int r = 1; r < p_ranks; ++r)
        splitters.push_back(
            all_samples[all_samples.size() * r / p_ranks]);

      std::vector<std::vector<WireParticle>> to_each(p_ranks);
      for (const auto& wp : mine) {
        const int dest = static_cast<int>(
            std::upper_bound(splitters.begin(), splitters.end(), wp.p.key) -
            splitters.begin());
        to_each[dest].push_back(wp);
      }
      received = alltoallv(comm_, to_each);
    } else {
      received = std::move(mine);
    }
    partitioned.reserve(received.size());
    ex.origin.reserve(received.size());
    for (const auto& wp : received) {
      partitioned.push_back(wp.p);
      ex.origin.push_back(wp.origin);
    }
  }
  timings.local_particles = partitioned.size();
  timings.domain = comm_.clock().now() - t0;
  domain_span.end();
  scope.gauge("tree.local_particles",
              static_cast<double>(timings.local_particles));

  // ---- phase 3: local tree build -----------------------------------------
  obs::Span build_span = scope.span("tree.build");
  const double t1 = comm_.clock().now();
  ex.tree = std::make_unique<Octree>(
      std::move(partitioned), domain,
      Octree::Config{config_.leaf_capacity, kMaxLevel});
  comm_.compute(static_cast<double>(ex.tree->nodes().size()) *
                cost.t_tree_node);
  timings.tree_build = comm_.clock().now() - t1;
  build_span.end();

  // ---- phase 4: branch exchange ------------------------------------------
  obs::Span branch_span = scope.span("tree.branch_exchange");
  const double t2 = comm_.clock().now();
  struct BranchWire {
    std::uint64_t key;
    std::int32_t count;
    Multipole mp;
  };
  std::vector<BranchWire> my_branches;
  if (!ex.tree->particles().empty()) {
    const auto branch_ids = ex.tree->branch_nodes(
        ex.tree->particles().front().key, ex.tree->particles().back().key);
    for (auto idx : branch_ids) {
      const Node& node = ex.tree->nodes()[idx];
      my_branches.push_back({node.key, node.count, node.mp});
    }
  }
  timings.branch_count = my_branches.size();
  // Every rank learns the globally shared top of the tree. Interaction
  // data travels through the LET below; the modeled charge is that of
  // aggregating the branches into the top.
  const auto all_branches = comm_.allgatherv(my_branches);
  comm_.compute(static_cast<double>(all_branches.size()) * cost.t_tree_node);
  timings.branch_exchange = comm_.clock().now() - t2;
  branch_span.end();
  scope.add("tree.branches", timings.branch_count);

  // ---- phase 5: locally-essential-tree exchange, post half ----------------
  // The LET walk and the sends happen here; the matching receives are
  // deferred to receive_let so the caller can evaluate the local tree
  // while the payloads are in flight (near/far-communication overlap).
  ex.let_span = scope.span("tree.let_exchange");
  obs::Span post_span = scope.span("tree.let_post");
  const double t3 = comm_.clock().now();
  RankBox mine_box{{1e300, 1e300, 1e300}, {-1e300, -1e300, -1e300}};
  for (const auto& p : ex.tree->particles()) {
    mine_box.lo = min(mine_box.lo, p.x);
    mine_box.hi = max(mine_box.hi, p.x);
  }
  const auto boxes = comm_.allgatherv(std::vector<RankBox>{mine_box});

  ex.let_mp_counts.assign(p_ranks, 0);
  ex.let_p_counts.assign(p_ranks, 0);
  if (p_ranks > 1) {
    std::vector<std::vector<Multipole>> mp_for(p_ranks);
    std::vector<std::vector<TreeParticle>> p_for(p_ranks);
    const auto& nodes = ex.tree->nodes();
    for (int r = 0; r < p_ranks; ++r) {
      if (r == rank || ex.tree->particles().empty()) continue;
      std::vector<std::int32_t> stack = {0};
      while (!stack.empty()) {
        const Node& node = nodes[stack.back()];
        stack.pop_back();
        const double dmin = std::sqrt(
            box_distance2(node.mp.center, boxes[r].lo, boxes[r].hi));
        if (node.box_size <= config_.theta * dmin && node.count > 1) {
          mp_for[r].push_back(node.mp);
        } else if (node.leaf) {
          for (std::int32_t i = node.first; i < node.first + node.count; ++i)
            p_for[r].push_back(ex.tree->particles()[i]);
        } else {
          for (int c = 0; c < 8; ++c)
            if (node.child[c] >= 0) stack.push_back(node.child[c]);
        }
      }
      timings.let_sent += mp_for[r].size() + p_for[r].size();
    }
    comm_.compute(static_cast<double>(timings.let_sent) * cost.t_tree_node);

    // Counts allgather: every rank learns which sources will post a
    // payload (empty ones don't, so the drain loop must not wait on them).
    std::vector<std::uint64_t> my_counts(2 * p_ranks, 0);
    for (int r = 0; r < p_ranks; ++r) {
      my_counts[2 * r] = mp_for[r].size();
      my_counts[2 * r + 1] = p_for[r].size();
    }
    const auto all_counts = comm_.allgatherv(my_counts);
    for (int src = 0; src < p_ranks; ++src) {
      ex.let_mp_counts[src] = all_counts[2 * p_ranks * src + 2 * rank];
      ex.let_p_counts[src] = all_counts[2 * p_ranks * src + 2 * rank + 1];
    }

    // Post the non-empty payloads point-to-point and return without
    // waiting; they ride the network while the caller computes.
    for (int r = 0; r < p_ranks; ++r) {
      if (r == rank) continue;
      if (!mp_for[r].empty()) comm_.send(r, kTagLetMp, mp_for[r]);
      if (!p_for[r].empty()) comm_.send(r, kTagLetP, p_for[r]);
    }
  }
  timings.let_exchange += comm_.clock().now() - t3;
  post_span.end();
  scope.add("tree.let.sent", timings.let_sent);
  return ex;
}

void ParallelTree::receive_let(Exchanged& ex, SolveTimings& timings) {
  const obs::Scope scope = comm_.obs_scope();
  obs::Span wait_span = scope.span("tree.let_wait");
  const double t0 = comm_.clock().now();
  // Drain ascending by source rank: deterministic import order, so the
  // overlapped path accumulates imports in exactly the order the old
  // alltoallv produced.
  for (int src = 0; src < comm_.size(); ++src) {
    if (ex.let_mp_counts[src] > 0) {
      const auto v = comm_.recv<Multipole>(src, kTagLetMp);
      ex.import_mp.insert(ex.import_mp.end(), v.begin(), v.end());
    }
    if (ex.let_p_counts[src] > 0) {
      const auto v = comm_.recv<TreeParticle>(src, kTagLetP);
      ex.import_p.insert(ex.import_p.end(), v.begin(), v.end());
    }
  }
  timings.let_exchange += comm_.clock().now() - t0;
  wait_span.end();
  ex.let_span.end();
}

template <typename Terms>
std::vector<typename Terms::Value> ParallelTree::solve(
    const std::vector<TreeParticle>& local,
    const typename Terms::Kernel& kernel, SolveTimings& timings) {
  Exchanged ex = exchange(local, timings);
  const auto& cost = comm_.cost();

  // ---- traversal, overlapped with the LET exchange -------------------------
  // Cell-blocked engine: one MAC walk per Morton-contiguous leaf group
  // (against the group's bounding box), batched SoA evaluation of the
  // interaction lists. The local half (near source ranges + local far
  // nodes) runs while the LET payloads posted by exchange() are still in
  // flight; the imports are applied after the drain. The traversal span
  // therefore overlaps the still-open tree.let_exchange span in traces.
  const obs::Scope scope = comm_.obs_scope();
  obs::Span traversal_span = scope.span("tree.traversal");
  const double t4 = comm_.clock().now();
  const BlockedEvaluator evaluator(
      *ex.tree, {config_.theta, config_.group_size, config_.pool});
  Accumulators<Terms> acc = evaluator.begin<Terms>(kernel);
  comm_.compute((acc.near_count * cost.t_near_batched +
                 acc.far_count * cost.t_far_batched) /
                std::max(1, config_.model_threads));
  timings.traversal += comm_.clock().now() - t4;

  receive_let(ex, timings);

  const double t6 = comm_.clock().now();
  const std::uint64_t local_near = acc.near_count, local_far = acc.far_count;
  acc = evaluator.finish<Terms>(kernel, std::move(acc),
                                std::span(ex.import_mp),
                                std::span(ex.import_p));
  timings.near = acc.near_count;
  timings.far = acc.far_count;
  scope.add("tree.eval.near", timings.near);
  scope.add("tree.eval.far", timings.far);
  comm_.compute(((timings.near - local_near) * cost.t_near_batched +
                 (timings.far - local_far) * cost.t_far_batched) /
                std::max(1, config_.model_threads));
  timings.traversal += comm_.clock().now() - t6;
  traversal_span.end();

  // ---- route results back to the callers' layout ---------------------------
  using Value = typename Terms::Value;
  const auto& order = ex.tree->order();
  std::vector<std::vector<Routed<Value>>> back(comm_.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const Origin& from = ex.origin[order[i]];
    back[from.rank].push_back({from.index, acc.value[i]});
  }
  std::vector<Value> out(local.size());
  for (const auto& w : alltoallv(comm_, back)) out[w.index] = w.value;
  return out;
}

VortexForces ParallelTree::solve_vortex(
    const std::vector<TreeParticle>& local,
    const kernels::AlgebraicKernel& kernel) {
  VortexForces out;
  VortexTerms::split(solve<VortexTerms>(local, kernel, out.timings), out.u,
                     out.grad);
  return out;
}

CoulombForces ParallelTree::solve_coulomb(
    const std::vector<TreeParticle>& local,
    const kernels::CoulombKernel& kernel) {
  CoulombForces out;
  CoulombTerms::split(solve<CoulombTerms>(local, kernel, out.timings),
                      out.phi, out.e);
  return out;
}

}  // namespace stnb::tree
