#include "tree/interaction_list.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <unordered_map>

namespace stnb::tree {

namespace {

/// |[a0, a1) ∩ [b0, b1)| — number of self-pairs a source range skips
/// inside a target group.
std::int64_t range_overlap(std::int32_t a0, std::int32_t a1, std::int32_t b0,
                           std::int32_t b1) {
  return std::max(0, std::min(a1, b1) - std::max(a0, b0));
}

/// Imported (LET) particles as an SoA source mirror, plus the rare id
/// collisions with local particles: `matches` holds (import index, local
/// sorted index) pairs, ascending by import index. In practice imports
/// come from other ranks and never collide, but the per-particle path
/// excludes by id, so the blocked path must too.
struct Imports {
  SourceSoA src;
  std::vector<std::pair<std::size_t, std::int32_t>> matches;

  Imports(std::span<const TreeParticle> import_p,
          const std::vector<TreeParticle>& local)
      : src(import_p) {
    if (import_p.empty()) return;
    // stnb-analyze: allow(det-unordered-iter) lookup-only: populated by
    // keyed emplace, read back via find() below; never iterated, so the
    // bucket order cannot reach matches/forces.
    std::unordered_map<std::uint32_t, std::int32_t> id_to_sorted;
    id_to_sorted.reserve(local.size());
    for (std::size_t i = 0; i < local.size(); ++i)
      id_to_sorted.emplace(local[i].id, static_cast<std::int32_t>(i));
    for (std::size_t j = 0; j < import_p.size(); ++j) {
      const auto it = id_to_sorted.find(import_p[j].id);
      if (it != id_to_sorted.end()) matches.emplace_back(j, it->second);
    }
  }
};

/// Runs `batch(first_import, count, self_shift)` over [0, m) split around
/// the imports whose id matches a target in [g_first, g_first + nt): the
/// matching import is evaluated alone with its target skipped, everything
/// else in maximal runs with no skip (self_shift = nt puts the skip out of
/// range). Returns the number of pair evaluations.
template <typename BatchFn>
std::uint64_t run_import_batches(const Imports& imp, std::int32_t g_first,
                                 std::int32_t nt, BatchFn&& batch) {
  const std::size_t m = imp.src.x.size();
  if (m == 0) return 0;
  std::size_t start = 0;
  std::uint64_t skipped = 0;
  for (const auto& [j, sorted_idx] : imp.matches) {
    if (sorted_idx < g_first || sorted_idx >= g_first + nt) continue;
    if (j > start) batch(start, j - start, static_cast<std::int64_t>(nt));
    batch(j, 1, static_cast<std::int64_t>(sorted_idx - g_first));
    ++skipped;
    start = j + 1;
  }
  if (start < m)
    batch(start, m - start, static_cast<std::int64_t>(nt));
  return static_cast<std::uint64_t>(m) * nt - skipped;
}

/// Sizes `batch` for group g's targets, gathers their positions from the
/// SoA mirror and zeroes the accumulators.
template <typename Batch>
void load_targets(const SourceSoA& src, const LeafGroup& g, Batch& batch) {
  batch.resize(static_cast<std::size_t>(g.count));
  std::copy_n(src.x.data() + g.first, g.count, batch.x.data());
  std::copy_n(src.y.data() + g.first, g.count, batch.y.data());
  std::copy_n(src.z.data() + g.first, g.count, batch.z.data());
  batch.zero();
}

/// Runs body(gi) for every leaf group, on the pool when there is one.
/// Named after ThreadPool::parallel_for so stnb-analyze applies its
/// parallel_for rules (det-fp-reduce, fiber-tls) to the group bodies.
template <typename Body>
void parallel_for(ThreadPool* pool, std::size_t n_groups, Body&& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, n_groups, body);
  } else {
    for (std::size_t gi = 0; gi < n_groups; ++gi) body(gi);
  }
}

}  // namespace

SourceSoA::SourceSoA(std::span<const TreeParticle> ps) {
  for (auto* v : {&x, &y, &z, &q, &ax, &ay, &az}) v->resize(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    x[i] = ps[i].x.x;
    y[i] = ps[i].x.y;
    z[i] = ps[i].x.z;
    q[i] = ps[i].q;
    ax[i] = ps[i].a.x;
    ay[i] = ps[i].a.y;
    az[i] = ps[i].a.z;
  }
}

std::vector<LeafGroup> build_leaf_groups(const Octree& tree, int group_size) {
  std::vector<LeafGroup> groups;
  const auto& particles = tree.particles();
  if (particles.empty()) return groups;
  const std::int32_t cap = std::max(1, group_size);
  // Leaves appear in ascending `first` order (DFS pre-order) and tile
  // [0, n); greedily pack consecutive whole leaves up to `cap` particles.
  LeafGroup current{};
  bool open = false;
  for (const Node& node : tree.nodes()) {
    if (!node.leaf || node.count == 0) continue;
    if (open && current.count + node.count > cap) {
      groups.push_back(current);
      open = false;
    }
    if (!open) {
      current = LeafGroup{node.first, 0, {}, {}};
      open = true;
    }
    current.count += node.count;
  }
  if (open) groups.push_back(current);

  for (LeafGroup& g : groups) {
    Vec3 lo = particles[g.first].x, hi = lo;
    for (std::int32_t p = g.first + 1; p < g.first + g.count; ++p) {
      lo = min(lo, particles[p].x);
      hi = max(hi, particles[p].x);
    }
    g.lo = lo;
    g.hi = hi;
  }
  return groups;
}

void collect_interactions(const Octree& tree, const LeafGroup& group,
                          double theta, InteractionList& out) {
  out.clear();
  const Node* base = tree.nodes().data();
  tree.walk_box(
      group.lo, group.hi, theta,
      [&](const Node& node) {
        out.far.push_back(static_cast<std::int32_t>(&node - base));
      },
      [&](std::int32_t first, std::int32_t count) {
        if (!out.near.empty() &&
            out.near.back().first + out.near.back().count == first) {
          out.near.back().count += count;
        } else {
          out.near.push_back({first, count});
        }
      });
}

BlockedEvaluator::BlockedEvaluator(const Octree& tree, Config config)
    : tree_(tree),
      config_(config),
      groups_(build_leaf_groups(tree, config.group_size)),
      src_(tree.particles()) {}

template <typename Terms>
Accumulators<Terms> BlockedEvaluator::begin(
    const typename Terms::Kernel& kernel, FarFieldMode mode) const {
  const std::size_t n = tree_.particles().size();
  Accumulators<Terms> acc;
  acc.mode = mode;
  acc.value.assign(n, {});
  acc.far.assign(n, {});
  acc.group_far.assign(groups_.size(), 0);
  if (n == 0) return acc;

  std::atomic<std::uint64_t> near{0}, far{0};

  parallel_for(config_.pool, groups_.size(), [&](std::size_t gi) {
    const LeafGroup& g = groups_[gi];
    const std::int32_t nt = g.count;
    // Pool-owned workspace, not thread_local: under the fiber scheduler a
    // work item can suspend and resume on a different OS thread, so the
    // scratch must travel with the work item (fiber-tls, tools/stnb-analyze).
    auto ws = std::get<Pool<Terms>>(workspaces_).acquire();
    typename Terms::Batch& batch = ws->batch;
    InteractionList& il = ws->il;
    load_targets(src_, g, batch);
    collect_interactions(tree_, g, config_.theta, il);

    std::uint64_t my_near = 0;
    for (const SourceRange& r : il.near) {
      // Sources and targets index the same sorted array, so the self pair
      // of source r.first + s is target (r.first + s) - g.first: a fixed
      // shift, resolved inside the batch by index comparison.
      Terms::near(kernel, src_, static_cast<std::size_t>(r.first),
                  static_cast<std::size_t>(r.count),
                  static_cast<std::int64_t>(r.first) - g.first, batch);
      my_near += static_cast<std::uint64_t>(r.count) * nt -
                 range_overlap(r.first, r.first + r.count, g.first,
                               g.first + nt);
    }

    // Local far field, node-major into a separate SoA accumulator block.
    const std::size_t n_far =
        mode == FarFieldMode::kSkip ? 0 : il.far.size();
    typename Terms::Batch& far_batch = ws->far_batch;
    if (n_far > 0) {
      load_targets(src_, g, far_batch);
      for (const std::int32_t node_idx : il.far)
        Terms::far(kernel, tree_.nodes()[node_idx].mp, far_batch);
    }

    // Snapshot the accumulators (lossless double copies; finish reloads
    // them and continues accumulating in the same order).
    for (std::int32_t t = 0; t < nt; ++t) {
      acc.value[g.first + t] = Terms::load(batch, t);
      if (n_far > 0) acc.far[g.first + t] = Terms::load(far_batch, t);
    }
    acc.group_far[gi] = static_cast<std::int32_t>(n_far);
    near.fetch_add(my_near, std::memory_order_relaxed);
    far.fetch_add(static_cast<std::uint64_t>(n_far) * nt,
                  std::memory_order_relaxed);
  });
  acc.near_count = near.load();
  acc.far_count = far.load();
  return acc;
}

template <typename Terms>
Accumulators<Terms> BlockedEvaluator::finish(
    const typename Terms::Kernel& kernel, Accumulators<Terms> acc,
    std::span<const Multipole> import_mp,
    std::span<const TreeParticle> import_p) const {
  const auto& ps = tree_.particles();
  const FarFieldMode mode = acc.mode;
  if (ps.empty()) return acc;

  const Imports imp(import_p, ps);
  std::atomic<std::uint64_t> near{0}, far{0};

  parallel_for(config_.pool, groups_.size(), [&](std::size_t gi) {
    const LeafGroup& g = groups_[gi];
    const std::int32_t nt = g.count;
    auto ws = std::get<Pool<Terms>>(workspaces_).acquire();
    typename Terms::Batch& batch = ws->batch;
    // Reload the local near-field accumulators and continue with the
    // imports on top: the same accumulation order as a one-shot pass.
    load_targets(src_, g, batch);
    for (std::int32_t t = 0; t < nt; ++t)
      Terms::store(acc.value[g.first + t], batch, t);

    const std::uint64_t my_near = run_import_batches(
        imp, g.first, nt,
        [&](std::size_t first, std::size_t count, std::int64_t self_shift) {
          Terms::near(kernel, imp.src, first, count, self_shift, batch);
        });

    // Far field: local node subtotals (already accumulated by begin) plus
    // the imported multipoles, in that order.
    const std::size_t n_far =
        mode == FarFieldMode::kSkip
            ? 0
            : static_cast<std::size_t>(acc.group_far[gi]) + import_mp.size();
    typename Terms::Batch& far_batch = ws->far_batch;
    if (n_far > 0) {
      load_targets(src_, g, far_batch);
      for (std::int32_t t = 0; t < nt; ++t)
        Terms::store(acc.far[g.first + t], far_batch, t);
      for (const Multipole& mp : import_mp) Terms::far(kernel, mp, far_batch);
    }
    for (std::int32_t t = 0; t < nt; ++t) {
      const std::int32_t idx = g.first + t;
      typename Terms::Value v = Terms::load(batch, t);
      if (n_far > 0) {
        // Guarded by n_far > 0 so a far-free group (e.g. theta = 0)
        // stays bit-identical to the batch accumulators.
        const typename Terms::Value fv = Terms::load(far_batch, t);
        if (mode == FarFieldMode::kCombined) {
          Terms::add(v, fv);
        } else {
          acc.far[idx] = fv;
        }
      }
      acc.value[idx] = v;
    }
    near.fetch_add(my_near, std::memory_order_relaxed);
    if (mode != FarFieldMode::kSkip)
      far.fetch_add(static_cast<std::uint64_t>(import_mp.size()) * nt,
                    std::memory_order_relaxed);
  });
  acc.near_count += near.load();
  acc.far_count += far.load();
  return acc;
}

template Accumulators<VortexTerms> BlockedEvaluator::begin<VortexTerms>(
    const kernels::AlgebraicKernel&, FarFieldMode) const;
template Accumulators<VortexTerms> BlockedEvaluator::finish<VortexTerms>(
    const kernels::AlgebraicKernel&, Accumulators<VortexTerms>,
    std::span<const Multipole>, std::span<const TreeParticle>) const;
template Accumulators<CoulombTerms> BlockedEvaluator::begin<CoulombTerms>(
    const kernels::CoulombKernel&, FarFieldMode) const;
template Accumulators<CoulombTerms> BlockedEvaluator::finish<CoulombTerms>(
    const kernels::CoulombKernel&, Accumulators<CoulombTerms>,
    std::span<const Multipole>, std::span<const TreeParticle>) const;

VortexField BlockedEvaluator::evaluate_vortex(
    const kernels::AlgebraicKernel& kernel, FarFieldMode mode,
    std::span<const Multipole> import_mp,
    std::span<const TreeParticle> import_p) const {
  const Accumulators<VortexTerms> acc = finish<VortexTerms>(
      kernel, begin<VortexTerms>(kernel, mode), import_mp, import_p);
  VortexField out;
  VortexTerms::split(acc.value, out.u, out.grad);
  if (mode == FarFieldMode::kSeparate)
    VortexTerms::split(acc.far, out.far_u, out.far_grad);
  out.near = acc.near_count;
  out.far = acc.far_count;
  return out;
}

CoulombField BlockedEvaluator::evaluate_coulomb(
    const kernels::CoulombKernel& kernel, std::span<const Multipole> import_mp,
    std::span<const TreeParticle> import_p) const {
  const Accumulators<CoulombTerms> acc = finish<CoulombTerms>(
      kernel, begin<CoulombTerms>(kernel), import_mp, import_p);
  CoulombField out;
  CoulombTerms::split(acc.value, out.phi, out.e);
  out.near = acc.near_count;
  out.far = acc.far_count;
  return out;
}

}  // namespace stnb::tree
