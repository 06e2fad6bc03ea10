#include "tree/octree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace stnb::tree {

Octree::Octree(std::vector<TreeParticle> particles, const Domain& domain,
               Config config)
    : domain_(domain), config_(config) {
  for (auto& p : particles) {
    if (!domain_.contains(p.x))
      throw std::invalid_argument("particle outside tree domain");
    p.key = particle_key(p.x, domain_);
  }
  // Sort a permutation and gather: std::sort makes the same comparisons
  // either way, so this is the particle order a direct sort gives (ties
  // included), and order_ maps it back to the input.
  order_.resize(particles.size());
  std::iota(order_.begin(), order_.end(), 0);
  std::sort(order_.begin(), order_.end(),
            [&particles](std::int32_t a, std::int32_t b) {
              return particles[a].key < particles[b].key;
            });
  particles_.reserve(particles.size());
  for (const std::int32_t i : order_) particles_.push_back(particles[i]);
  nodes_.reserve(2 * particles_.size() / std::max(1, config_.leaf_capacity) +
                 64);
  build_recursive(kRootKey, 0, static_cast<std::int32_t>(particles_.size()),
                  0);
  config_.obs.add("tree.build.nodes", static_cast<std::uint64_t>(nodes_.size()));
}

std::int32_t Octree::build_recursive(std::uint64_t key, std::int32_t first,
                                     std::int32_t count, int level) {
  const std::int32_t index = static_cast<std::int32_t>(nodes_.size());
  nodes_.emplace_back();
  {
    Node& node = nodes_.back();
    node.key = key;
    node.first = first;
    node.count = count;
    const Domain box = key_domain(key, domain_);
    node.box_size = static_cast<float>(box.size);
  }

  const bool is_leaf =
      count <= config_.leaf_capacity || level >= config_.max_level;
  if (is_leaf) {
    Node& node = nodes_[index];
    node.leaf = true;
    CenterAccumulator acc;
    for (std::int32_t p = first; p < first + count; ++p)
      acc.add(particles_[p].x, std::abs(particles_[p].q) +
                                   norm(particles_[p].a));
    node.mp.center = acc.center(key_domain(key, domain_).center());
    for (std::int32_t p = first; p < first + count; ++p)
      node.mp.add_particle(particles_[p].x, particles_[p].q, particles_[p].a);
    return index;
  }

  // Partition the sorted slice into octants via the key bits of the next
  // level; children are contiguous subranges.
  const int shift = 3 * (kMaxLevel - level - 1);
  std::array<std::int32_t, 9> bounds;
  bounds[0] = first;
  for (int oct = 0; oct < 8; ++oct) {
    // upper bound of keys whose octant bits at this level are <= oct
    const auto it = std::upper_bound(
        particles_.begin() + bounds[oct], particles_.begin() + first + count,
        oct, [shift](int value, const TreeParticle& p) {
          return value < static_cast<int>((p.key >> shift) & 7);
        });
    bounds[oct + 1] = static_cast<std::int32_t>(it - particles_.begin());
  }

  std::array<std::int32_t, 8> children;
  children.fill(-1);
  for (int oct = 0; oct < 8; ++oct) {
    const std::int32_t c_count = bounds[oct + 1] - bounds[oct];
    if (c_count > 0) {
      children[oct] =
          build_recursive(key_child(key, oct), bounds[oct], c_count,
                          level + 1);
    }
  }

  // Note: nodes_ may have reallocated during recursion; re-take the ref.
  Node& node = nodes_[index];
  node.leaf = false;
  node.child = children;

  CenterAccumulator acc;
  for (int oct = 0; oct < 8; ++oct)
    if (children[oct] >= 0)
      acc.add(nodes_[children[oct]].mp.center, nodes_[children[oct]].mp.weight);
  node.mp.center = acc.center(key_domain(key, domain_).center());
  for (int oct = 0; oct < 8; ++oct)
    if (children[oct] >= 0) node.mp.add_shifted(nodes_[children[oct]].mp);
  return index;
}

std::vector<std::int32_t> Octree::branch_nodes(std::uint64_t range_min,
                                               std::uint64_t range_max) const {
  std::vector<std::int32_t> result;
  if (particles_.empty()) return result;
  std::vector<std::int32_t> stack = {0};
  while (!stack.empty()) {
    const std::int32_t idx = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    const KeyRange cover = key_coverage(node.key);
    if ((cover.min >= range_min && cover.max <= range_max) || node.leaf) {
      // Fully inside the rank's key interval — coarsest covering node.
      // Leaves at the interval boundary are accepted as-is (their
      // particles are all local; coverage granularity is the leaf box).
      result.push_back(idx);
    } else {
      for (int c = 0; c < 8; ++c)
        if (node.child[c] >= 0) stack.push_back(node.child[c]);
    }
  }
  return result;
}

}  // namespace stnb::tree
