// stnb_e2e: host-timed end-to-end benchmark over four fixed, seeded
// workloads (README.md beside this file explains each one and every
// metric). One process runs one workload through the library's public
// API only:
//
//   stnb_e2e --workload spacetime_sheet [--seed 42] [--reps 10]
//            [--seconds 0] [--trace DIR]
//
// Untraced (the default), obs is off. Each repetition regenerates the
// inputs from the seed and slices them per rank (timed as setup_s), runs
// the solve (timed as solve_s with std::chrono::steady_clock) and checks
// it: every output finite, the FNV-1a digest equal to the first
// repetition's of the same input instance, and rel_err against an untimed
// theta = 0 reference under the workload's limit. The vortex workloads
// cycle through 4 input instances per seed. One untimed warm-up comes
// first; timed repetitions continue until --reps and --seconds are
// reached and the last cycle over the instances is whole.
//
// With --trace DIR the repetitions alternate untraced and traced. A
// traced one attaches an obs::Registry (the in-program counters and
// virtual spans) and opens host spans around the driver's own calls into
// each layer; its per-layer numbers, medians over the traced repetitions,
// go to DIR/W.layers.json beside DIR/W.virtual.trace.json and
// DIR/W.host.trace.json. Host spans inside a rank include the time its
// fiber waits for peers: they are rank-seconds including waiting.
//
// The result document goes to stdout. Exit status: 0 when every check
// passed, 1 on a usage error or any failed check.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.hpp"
#include "kernels/coulomb.hpp"
#include "mpsim/comm.hpp"
#include "obs/obs.hpp"
#include "ode/nodes.hpp"
#include "ode/sdc.hpp"
#include "pfasst/controller.hpp"
#include "simd/dispatch.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "tree/interaction_list.hpp"
#include "tree/parallel.hpp"
#include "vortex/rhs_parallel.hpp"
#include "vortex/rhs_tree.hpp"

using namespace stnb;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Quartiles as Python's statistics.quantiles(v, n=4) computes them (the
/// default "exclusive" method), so the driver and the scripts agree.
std::pair<double, double> quartiles(std::vector<double> v) {
  if (v.size() < 2) {
    const double x = v.empty() ? 0.0 : v.front();
    return {x, x};
  }
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  const auto cut = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp(i * m / 4, 1L, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4.0;
  };
  return {cut(1), cut(3)};
}

/// FNV-1a over the raw bytes: the bit-determinism check across reps.
std::uint64_t fnv1a(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(double); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Peak resident set (VmHWM) since the last reset_peak_rss(). Not
/// getrusage's ru_maxrss: Linux carries that across execve, so a child
/// started from a larger parent (the Python runner) would report the
/// parent's peak, and it cannot be reset.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  return std::numeric_limits<double>::quiet_NaN();
}

/// Hands the heap memory freed so far back to the system and restarts
/// VmHWM from the current resident set (writing 5 to clear_refs), so the
/// next peak is one repetition's own and does not depend on what earlier
/// work left in the allocator, which varies from process to process
/// (README.md, peak_rss_mb).
void reset_peak_rss() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream("/proc/self/clear_refs") << "5";
}

// ---- host spans -------------------------------------------------------------

/// Host-clock spans the driver opens around its own calls into each layer,
/// one track per simulated rank. A track is appended to only by its own
/// rank's fiber and read after Runtime::run has joined every rank.
class HostTrace {
 public:
  explicit HostTrace(int tracks) : tracks_(tracks) {}

  /// RAII span on one track; inert when `trace` is null (obs off).
  class Span {
   public:
    Span(HostTrace* trace, int track, const char* name)
        : trace_(trace), track_(track), name_(name) {
      if (trace_ != nullptr) begin_ = Clock::now();
    }
    ~Span() {
      if (trace_ != nullptr)
        trace_->tracks_[track_].push_back({name_, begin_, Clock::now()});
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    HostTrace* trace_;
    int track_;
    const char* name_;
    Clock::time_point begin_{};
  };

  /// Summed duration of every span called `name` (rank-seconds).
  double total(std::string_view name) const {
    double s = 0.0;
    for (const auto& track : tracks_)
      for (const auto& e : track)
        if (name == e.name) s += seconds_between(e.begin, e.end);
    return s;
  }

  double count(std::string_view name) const {
    double c = 0.0;
    for (const auto& track : tracks_)
      for (const auto& e : track) c += name == e.name ? 1.0 : 0.0;
    return c;
  }

  /// Chrome trace-event JSON: one tid per rank, "X" events sorted by start.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    JsonWriter w(os);
    w.begin_object().key("traceEvents").begin_array();
    for (std::size_t t = 0; t < tracks_.size(); ++t) {
      w.begin_object()
          .member("name", "thread_name")
          .member("ph", "M")
          .member("pid", 0)
          .member("tid", t);
      w.key("args")
          .begin_object()
          .member("name", "rank " + std::to_string(t))
          .end_object()
          .end_object();
      auto events = tracks_[t];
      std::sort(events.begin(), events.end(),
                [](const Event& a, const Event& b) {
                  return a.begin != b.begin ? a.begin < b.begin
                                            : a.end > b.end;
                });
      for (const auto& e : events)
        w.begin_object()
            .member("name", e.name)
            .member("ph", "X")
            .member("pid", 0)
            .member("tid", t)
            .member("ts", us(e.begin))
            .member("dur", us(e.end) - us(e.begin))
            .end_object();
    }
    w.end_array().member("displayTimeUnit", "ms").end_object();
    os << '\n';
    return static_cast<bool>(os);
  }

 private:
  struct Event {
    const char* name;
    Clock::time_point begin, end;
  };
  Clock::time_point origin_ = Clock::now();
  std::vector<std::vector<Event>> tracks_;
};

/// Everything one traced repetition records.
struct Trace {
  explicit Trace(int tracks) : host(tracks) {}
  obs::Registry registry;
  HostTrace host;
};

/// Wraps an RHS so each call is a host span on the rank's track.
ode::RhsFn traced_rhs(ode::RhsFn inner, HostTrace* host, int track,
                      const char* name) {
  if (host == nullptr) return inner;
  return [inner = std::move(inner), host, track, name](
             double t, const ode::State& u, ode::State& f) {
    HostTrace::Span span(host, track, name);
    inner(t, u, f);
  };
}

// ---- per-layer metrics ------------------------------------------------------

using Layers = std::map<std::string, double>;

struct LayerSpec {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, reported by every workload (0 where the layer
/// does not run). "modeled_s" are virtual seconds of the modeled machine.
constexpr LayerSpec kLayers[] = {
    {"probe.tree.nodes", "count"},
    {"probe.tree.build_s", "s"},
    {"probe.tree.build_ns_per_node", "ns"},
    {"probe.tree.walk_s.fine", "s"},
    {"probe.tree.walk_s.coarse", "s"},
    {"probe.tree.near_s.fine", "s"},
    {"probe.tree.near_s.coarse", "s"},
    {"probe.tree.far_s.fine", "s"},
    {"probe.tree.far_s.coarse", "s"},
    {"probe.tree.eval_s.fine", "s"},
    {"probe.tree.eval_s.coarse", "s"},
    {"probe.tree.near_pairs.fine", "count"},
    {"probe.tree.near_pairs.coarse", "count"},
    {"probe.tree.far_evals.fine", "count"},
    {"probe.tree.far_evals.coarse", "count"},
    {"probe.kernels.near_ns_per_pair.fine", "ns"},
    {"probe.kernels.near_ns_per_pair.coarse", "ns"},
    {"probe.kernels.far_ns_per_eval.fine", "ns"},
    {"probe.kernels.far_ns_per_eval.coarse", "ns"},
    {"tree.near_pairs", "count"},
    {"tree.far_evals", "count"},
    {"tree.let_sent", "count"},
    {"tree.branches", "count"},
    {"tree.near_useful_ratio.fine", "1"},
    {"tree.near_useful_ratio.coarse", "1"},
    {"tree.solve_coulomb.calls", "count"},
    {"tree.solve_coulomb.span_s", "s"},
    {"vortex.rhs.fine.calls", "count"},
    {"vortex.rhs.coarse.calls", "count"},
    {"vortex.rhs.fine.span_s", "s"},
    {"vortex.rhs.coarse.span_s", "s"},
    {"pfasst.run.span_s", "s"},
    {"pfasst.self_s", "s"},
    {"pfasst.forward_sends", "count"},
    {"ode.sdc.span_s", "s"},
    {"ode.sweep.self_s", "s"},
    {"mpsim.p2p_messages", "count"},
    {"mpsim.p2p_bytes", "B"},
    {"mpsim.collective_bytes", "B"},
    {"virtual.mpsim.alltoallv_s", "modeled_s"},
    {"virtual.mpsim.broadcast_s", "modeled_s"},
    {"virtual.mpsim.recv_s", "modeled_s"},
    {"sched.context_switches", "count"},
    {"rank.span_s", "s"},
    {"virtual.tree.domain_s", "modeled_s"},
    {"virtual.tree.build_s", "modeled_s"},
    {"virtual.tree.branch_exchange_s", "modeled_s"},
    {"virtual.tree.let_exchange_s", "modeled_s"},
    {"virtual.tree.traversal_s", "modeled_s"},
    {"virtual.pfasst.sweep_fine_s", "modeled_s"},
    {"virtual.pfasst.sweep_coarse_s", "modeled_s"},
    {"obs.overhead", "1"},
};

struct Output {
  std::vector<double> values;  // final state (vortex) or fields (Coulomb)
  /// Modeled seconds: the largest of Runtime::run's times, or for the
  /// serial workload its one-rank modeled baseline.
  double virtual_s = 0.0;
};

/// The per-layer numbers of one traced repetition.
Layers layers_of(const Trace& trace) {
  const obs::Registry& reg = trace.registry;
  const HostTrace& host = trace.host;
  const auto counter = [&](const char* name) {
    return static_cast<double>(reg.counter_total(name));
  };
  const auto modeled = [&](const char* span) {
    return reg.span_total(span).total;
  };
  Layers m;
  m["tree.near_pairs"] = counter("tree.eval.near");
  m["tree.far_evals"] = counter("tree.eval.far");
  m["tree.let_sent"] = counter("tree.let.sent");
  m["tree.branches"] = counter("tree.branches");
  m["tree.solve_coulomb.calls"] = host.count("tree.solve_coulomb");
  m["tree.solve_coulomb.span_s"] = host.total("tree.solve_coulomb");
  const double fine = host.total("vortex.rhs.fine");
  const double coarse = host.total("vortex.rhs.coarse");
  m["vortex.rhs.fine.calls"] = host.count("vortex.rhs.fine");
  m["vortex.rhs.coarse.calls"] = host.count("vortex.rhs.coarse");
  m["vortex.rhs.fine.span_s"] = fine;
  m["vortex.rhs.coarse.span_s"] = coarse;
  const double pfasst = host.total("pfasst.run");
  m["pfasst.run.span_s"] = pfasst;
  m["pfasst.self_s"] = pfasst > 0.0 ? pfasst - fine - coarse : 0.0;
  m["pfasst.forward_sends"] = counter("pfasst.forward_sends");
  const double sdc = host.total("ode.sdc");
  m["ode.sdc.span_s"] = sdc;
  m["ode.sweep.self_s"] = sdc > 0.0 ? sdc - fine : 0.0;
  m["mpsim.p2p_messages"] = counter("mpsim.p2p.messages");
  m["mpsim.p2p_bytes"] = counter("mpsim.p2p.bytes_sent");
  m["mpsim.collective_bytes"] = counter("mpsim.collective.bytes");
  m["virtual.mpsim.alltoallv_s"] = modeled("mpsim.alltoallv");
  m["virtual.mpsim.broadcast_s"] = modeled("mpsim.broadcast");
  m["virtual.mpsim.recv_s"] = modeled("mpsim.recv");
  m["sched.context_switches"] = counter("sched.context_switches");
  m["rank.span_s"] = host.total("rank");
  m["virtual.tree.domain_s"] = modeled("tree.domain");
  m["virtual.tree.build_s"] = modeled("tree.build");
  m["virtual.tree.branch_exchange_s"] = modeled("tree.branch_exchange");
  m["virtual.tree.let_exchange_s"] = modeled("tree.let_exchange");
  m["virtual.tree.traversal_s"] = modeled("tree.traversal");
  m["virtual.pfasst.sweep_fine_s"] = modeled("pfasst.sweep.fine");
  m["virtual.pfasst.sweep_coarse_s"] = modeled("pfasst.sweep.coarse");
  return m;
}

// ---- single-thread probes ---------------------------------------------------

constexpr int kProbeReps = 5;

template <typename Fn>
double probe_seconds(Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < kProbeReps; ++r) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_between(t0, Clock::now()));
  }
  return median(samples);
}

tree::Domain domain_of(const std::vector<tree::TreeParticle>& ps) {
  Vec3 lo = ps.front().x, hi = lo;
  for (const auto& p : ps) {
    lo = min(lo, p.x);
    hi = max(hi, p.x);
  }
  return tree::Domain::bounding_cube(lo, hi);
}

/// Tree build on the workload's initial particles, the same leaf capacity
/// the solvers use. Returns the tree for the walk/evaluation probes.
std::unique_ptr<tree::Octree> probe_build(
    const std::vector<tree::TreeParticle>& ps, Layers& m) {
  const tree::Domain domain = domain_of(ps);
  const tree::Octree::Config config{8, tree::kMaxLevel};
  const double build = probe_seconds([&] {
    const tree::Octree octree(ps, domain, config);
    (void)octree;
  });
  auto octree = std::make_unique<tree::Octree>(ps, domain, config);
  const double nodes = static_cast<double>(octree->nodes().size());
  m["probe.tree.nodes"] = nodes;
  m["probe.tree.build_s"] = build;
  m["probe.tree.build_ns_per_node"] = 1e9 * build / nodes;
  return octree;
}

double probe_walk(const tree::Octree& octree,
                  const tree::BlockedEvaluator& evaluator, double theta) {
  tree::InteractionList il;
  return probe_seconds([&] {
    for (const auto& group : evaluator.groups())
      tree::collect_interactions(octree, group, theta, il);
  });
}

// ---- workloads --------------------------------------------------------------

mpsim::SchedConfig fibers(int threads) {
  return {.mode = mpsim::SchedMode::kFiber, .workers = threads};
}

std::vector<std::size_t> slice_bounds(std::size_t n, int ranks) {
  std::vector<std::size_t> b(ranks + 1);
  for (int r = 0; r <= ranks; ++r) b[r] = n * r / ranks;
  return b;
}

class Workload {
 public:
  explicit Workload(int threads) : threads_(threads) {}
  virtual ~Workload() = default;

  /// Distinct inputs one seed gives; timed repetition i runs instance
  /// i % instances().
  virtual int instances() const { return 1; }
  /// Generates the inputs of one instance from the seed and slices them
  /// per rank: the work timed as setup_s. solve, compute_reference and
  /// error act on the instance set up last.
  virtual void setup(int instance) = 0;
  /// The work timed as solve_s; `trace` is null when obs is off.
  virtual Output solve(Trace* trace) = 0;
  /// The untimed theta = 0 reference the outputs are checked against.
  virtual void compute_reference(ThreadPool& pool) = 0;
  /// rel_err of one output against the reference.
  virtual double error(const Output& out) const = 0;
  virtual double error_limit() const = 0;
  /// Particle-steps (Coulomb: particle-solves) of one solve.
  virtual double work() const = 0;
  virtual int tracks() const = 0;
  /// Single-thread probes on the initial particles plus the distributed
  /// near-pair usefulness probe.
  virtual void probe(Layers& m) = 0;

 protected:
  const int threads_;
};

/// The spherical vortex sheet shared by the three vortex workloads. A seed
/// gives kInstances sheets, each its lattice rotated by another angle
/// (sheet seeds seed * kInstances + k). The rotation moves the solve time
/// of one sheet by up to +-5 % on spacetime_wide; cycling through several
/// keeps a run's medians from hanging on one rotation.
class Sheet : public Workload {
 public:
  static constexpr std::size_t kN = 4000;
  static constexpr double kDt = 0.5;
  static constexpr int kSteps = 8;
  static constexpr int kSdcSweeps = 4;
  static constexpr int kInstances = 4;

  Sheet(std::uint64_t seed, int space_ranks, int threads)
      : Workload(threads),
        seed_(seed),
        space_ranks_(space_ranks),
        kernel_(config().kernel_order, config().sigma()),
        reference_(kInstances) {}

  int instances() const override { return kInstances; }

  void setup(int instance) override {
    instance_ = instance;
    initial_ = vortex::spherical_vortex_sheet(config());
    const int ranks = std::max(1, space_ranks_);
    bounds_ = slice_bounds(kN, ranks);
    slices_.assign(ranks, {});
    for (int r = 0; r < ranks; ++r)
      slices_[r].assign(initial_.begin() + 6 * bounds_[r],
                        initial_.begin() + 6 * bounds_[r + 1]);
  }

  /// Serial SDC(4) on 3 Lobatto nodes with a theta = 0 TreeRhs: the
  /// exact-far-field trajectory at the same dt and step count.
  void compute_reference(ThreadPool& pool) override {
    vortex::TreeRhs::Config cfg;
    cfg.theta = 0.0;
    vortex::TreeRhs rhs(kernel_, cfg, &pool);
    ode::SdcSweeper sweeper(lobatto(3), initial_.size());
    reference_[instance_] = ode::sdc_integrate(
        sweeper, rhs.as_fn(), initial_, 0.0, kDt, kSteps, kSdcSweeps);
  }

  double error(const Output& out) const override {
    const ode::State& reference = reference_[instance_];
    if (out.values.size() != reference.size())
      return std::numeric_limits<double>::infinity();
    return bench::rel_max_position_error(out.values, reference);
  }
  double error_limit() const override { return 1e-4; }
  double work() const override { return static_cast<double>(kN * kSteps); }

  void probe(Layers& m) override {
    std::vector<tree::TreeParticle> ps(kN);
    for (std::size_t p = 0; p < kN; ++p) {
      ps[p].x = vortex::position(initial_, p);
      ps[p].a = vortex::strength(initial_, p);
      ps[p].id = static_cast<std::uint32_t>(p);
    }
    const auto octree = probe_build(ps, m);
    for (const auto& [level, theta] : kLevels) {
      const tree::BlockedEvaluator evaluator(*octree, {theta, 8, nullptr});
      const double walk = probe_walk(*octree, evaluator, theta);
      tree::VortexField skip, combined;
      const double t_skip = probe_seconds([&] {
        skip = evaluator.evaluate_vortex(kernel_, tree::FarFieldMode::kSkip);
      });
      const double t_combined = probe_seconds([&] {
        combined =
            evaluator.evaluate_vortex(kernel_, tree::FarFieldMode::kCombined);
      });
      const double near = t_skip - walk, far = t_combined - t_skip;
      const std::string sfx = std::string(".") + level;
      m["probe.tree.walk_s" + sfx] = walk;
      m["probe.tree.near_s" + sfx] = near;
      m["probe.tree.far_s" + sfx] = far;
      m["probe.tree.eval_s" + sfx] = t_combined;
      m["probe.tree.near_pairs" + sfx] = static_cast<double>(skip.near);
      m["probe.tree.far_evals" + sfx] = static_cast<double>(combined.far);
      m["probe.kernels.near_ns_per_pair" + sfx] =
          1e9 * near /
          static_cast<double>(std::max<std::uint64_t>(1, skip.near));
      m["probe.kernels.far_ns_per_eval" + sfx] =
          1e9 * far /
          static_cast<double>(std::max<std::uint64_t>(1, combined.far));
      // Serial near pairs over the distributed tree's near pairs on the
      // same initial state (1 when no distributed tree runs).
      m["tree.near_useful_ratio" + sfx] =
          space_ranks_ == 0 ? 1.0
                            : static_cast<double>(skip.near) /
                                  distributed_near(theta);
    }
  }

 protected:
  static constexpr std::pair<const char*, double> kLevels[] = {
      {"fine", 0.3}, {"coarse", 0.6}};

  static std::vector<double> lobatto(int count) {
    return ode::collocation_nodes(ode::NodeType::kGaussLobatto, count);
  }

  vortex::SheetConfig config() const {
    vortex::SheetConfig cfg;
    cfg.n_particles = kN;
    cfg.seed = seed_ * kInstances + static_cast<std::uint64_t>(instance_);
    return cfg;
  }

  /// Sum over space ranks of one ParallelTreeRhs evaluation's near pairs
  /// on the initial slices.
  double distributed_near(double theta) const {
    std::vector<std::uint64_t> near(space_ranks_, 0);
    mpsim::Runtime rt;
    rt.set_sched(fibers(threads_));
    rt.run(space_ranks_, [&](mpsim::Comm& space) {
      tree::ParallelConfig cfg;
      cfg.theta = theta;
      vortex::ParallelTreeRhs rhs(space, kernel_, cfg, bounds_[space.rank()]);
      const ode::State& u = slices_[space.rank()];
      ode::State f(u.size());
      rhs(0.0, u, f);
      near[space.rank()] = rhs.last_timings().near;
    });
    double sum = 0.0;
    for (auto v : near) sum += static_cast<double>(v);
    return sum;
  }

  const std::uint64_t seed_;
  const int space_ranks_;  // 0: serial, no Runtime
  int instance_ = 0;       // before kernel_, which reads config()
  const kernels::AlgebraicKernel kernel_;
  ode::State initial_;
  std::vector<ode::State> reference_;  // [instance]
  std::vector<std::size_t> bounds_;
  std::vector<ode::State> slices_;
};

/// 2-level PFASST (2 iterations; 3/2 Lobatto nodes; 1 fine, 2 coarse
/// sweeps) with theta 0.3/0.6 ParallelTreeRhs on P_T x P_S fiber ranks,
/// 2 windows of P_T steps. The rank body mirrors
/// examples/spacetime_vortex.cpp.
class SpacetimeSheet : public Sheet {
 public:
  static constexpr int kPt = 4;

  SpacetimeSheet(std::uint64_t seed, int ps, int threads)
      : Sheet(seed, ps, threads) {}

  int tracks() const override { return kPt * space_ranks_; }

  Output solve(Trace* trace) override {
    HostTrace* host = trace != nullptr ? &trace->host : nullptr;
    const int ps = space_ranks_;
    Output out;
    mpsim::Runtime rt;
    rt.set_sched(fibers(threads_));
    if (trace != nullptr) rt.set_registry(&trace->registry);
    const auto times = rt.run(kPt * ps, [&](mpsim::Comm& world) {
      HostTrace::Span rank_span(host, world.rank(), "rank");
      const int time_slice = world.rank() / ps;
      const int space_rank = world.rank() % ps;
      mpsim::Comm space = world.split(time_slice, space_rank);
      mpsim::Comm time = world.split(space_rank, time_slice);
      ode::State u = slices_[space_rank];

      tree::ParallelConfig fine_cfg, coarse_cfg;
      fine_cfg.theta = 0.3;
      coarse_cfg.theta = 0.6;
      const std::size_t offset = bounds_[space_rank];
      vortex::ParallelTreeRhs fine(space, kernel_, fine_cfg, offset);
      vortex::ParallelTreeRhs coarse(space, kernel_, coarse_cfg, offset);
      std::vector<pfasst::Level> levels = {
          {lobatto(3),
           traced_rhs(fine.as_fn(), host, world.rank(), "vortex.rhs.fine"),
           1},
          {lobatto(2),
           traced_rhs(coarse.as_fn(), host, world.rank(),
                      "vortex.rhs.coarse"),
           2},
      };
      pfasst::Config pcfg;
      pcfg.iterations = 2;
      pfasst::Pfasst controller(time, levels, pcfg);
      for (int w = 0; w < kSteps / kPt; ++w) {
        HostTrace::Span run_span(host, world.rank(), "pfasst.run");
        u = controller.run(u, w * kPt * kDt, kDt, kPt).u_end;
      }
      // u_end is identical on every time rank; one space group's gather
      // reassembles the global state.
      const auto full = space.allgatherv(u);
      if (world.rank() == 0) out.values = full;
    });
    out.virtual_s = *std::max_element(times.begin(), times.end());
    return out;
  }
};

/// Serial SDC(4) on 3 Lobatto nodes with a theta 0.3 TreeRhs: one thread,
/// no Runtime.
class SerialSheet : public Sheet {
 public:
  SerialSheet(std::uint64_t seed, int threads)
      : Sheet(seed, 0, threads), modeled_s_(kInstances, 0.0) {}

  int tracks() const override { return 1; }

  /// The serial solve runs on no modeled clock. Its virtual_s is the same
  /// SDC(4) solve's modeled time on one simulated rank (ParallelTreeRhs at
  /// theta 0.3): fig8_speedup's serial baseline at P_S = 1. It is computed
  /// here, untimed, beside the reference.
  void compute_reference(ThreadPool& pool) override {
    Sheet::compute_reference(pool);
    mpsim::Runtime rt;
    rt.set_sched(fibers(1));
    const auto times = rt.run(1, [&](mpsim::Comm& comm) {
      tree::ParallelConfig cfg;
      cfg.theta = 0.3;
      vortex::ParallelTreeRhs rhs(comm, kernel_, cfg, 0);
      ode::SdcSweeper sweeper(lobatto(3), initial_.size());
      ode::sdc_integrate(sweeper, rhs.as_fn(), initial_, 0.0, kDt, kSteps,
                         kSdcSweeps);
    });
    modeled_s_[instance_] = times.front();
  }

  Output solve(Trace* trace) override {
    HostTrace* host = trace != nullptr ? &trace->host : nullptr;
    HostTrace::Span rank_span(host, 0, "rank");
    vortex::TreeRhs::Config cfg;
    cfg.theta = 0.3;
    if (trace != nullptr) cfg.obs = trace->registry.scope(0);
    vortex::TreeRhs rhs(kernel_, cfg);
    ode::SdcSweeper sweeper(lobatto(3), slices_[0].size());
    HostTrace::Span sdc_span(host, 0, "ode.sdc");
    Output out;
    out.values = ode::sdc_integrate(
        sweeper, traced_rhs(rhs.as_fn(), host, 0, "vortex.rhs.fine"),
        slices_[0], 0.0, kDt, kSteps, kSdcSweeps);
    out.virtual_s = modeled_s_[instance_];
    return out;
  }

 private:
  std::vector<double> modeled_s_;  // [instance]
};

/// Fig. 5's homogeneous neutral Coulomb cube: kClouds one-shot
/// ParallelTree::solve_coulomb calls on distinct clouds (seeds
/// seed * kClouds + i, so no two --seed values share a cloud; the same in
/// every rep) over kRanks fiber ranks.
class CoulombCube : public Workload {
 public:
  static constexpr std::size_t kN = 20000;
  static constexpr int kClouds = 20;
  static constexpr int kRanks = 16;
  static constexpr double kTheta = 0.6;

  CoulombCube(std::uint64_t seed, int threads)
      : Workload(threads), seed_(seed), kernel_(1e-4) {}

  void setup(int /*instance*/) override {
    const auto bounds = slice_bounds(kN, kRanks);
    slices_.assign(kClouds, std::vector<Cloud>(kRanks));
    Cloud all(kN);
    for (int c = 0; c < kClouds; ++c) {
      Rng rng(seed_ * kClouds + static_cast<std::uint64_t>(c));
      for (std::size_t i = 0; i < kN; ++i) {
        all[i].x = rng.uniform_in_box({0, 0, 0}, {1, 1, 1});
        all[i].q = i % 2 == 0 ? 1.0 : -1.0;  // neutral system
        all[i].id = static_cast<std::uint32_t>(i);
      }
      for (int r = 0; r < kRanks; ++r)
        slices_[c][r].assign(all.begin() + bounds[r],
                             all.begin() + bounds[r + 1]);
    }
  }

  int tracks() const override { return kRanks; }

  Output solve(Trace* trace) override {
    HostTrace* host = trace != nullptr ? &trace->host : nullptr;
    // Per cloud and particle: phi, ex, ey, ez. Ranks write disjoint ranges.
    Output out;
    out.values.assign(kClouds * kN * 4, 0.0);
    const auto bounds = slice_bounds(kN, kRanks);
    mpsim::Runtime rt;
    rt.set_sched(fibers(threads_));
    if (trace != nullptr) rt.set_registry(&trace->registry);
    const auto times = rt.run(kRanks, [&](mpsim::Comm& comm) {
      HostTrace::Span rank_span(host, comm.rank(), "rank");
      for (int c = 0; c < kClouds; ++c) {
        HostTrace::Span solve_span(host, comm.rank(), "tree.solve_coulomb");
        tree::ParallelConfig cfg;
        cfg.theta = kTheta;
        tree::ParallelTree solver(comm, cfg);
        const auto f = solver.solve_coulomb(slices_[c][comm.rank()], kernel_);
        double* dst = out.values.data() + (c * kN + bounds[comm.rank()]) * 4;
        for (std::size_t i = 0; i < f.phi.size(); ++i) {
          dst[4 * i] = f.phi[i];
          dst[4 * i + 1] = f.e[i].x;
          dst[4 * i + 2] = f.e[i].y;
          dst[4 * i + 3] = f.e[i].z;
        }
      }
    });
    out.virtual_s = *std::max_element(times.begin(), times.end());
    return out;
  }

  /// theta = 0 BlockedEvaluator field of every cloud (direct summation).
  void compute_reference(ThreadPool& pool) override {
    reference_.assign(kClouds, std::vector<Vec3>(kN));
    for (int c = 0; c < kClouds; ++c) {
      const Cloud all = cloud(c);
      const tree::Octree octree(all, domain_of(all), {8, tree::kMaxLevel});
      const tree::BlockedEvaluator evaluator(octree, {0.0, 8, &pool});
      const auto field = evaluator.evaluate_coulomb(kernel_);
      for (std::size_t i = 0; i < kN; ++i)
        reference_[c][octree.particles()[i].id] = field.e[i];
    }
  }

  /// Mean over every particle of every cloud of |E - E_ref| / |E_ref|.
  /// A cloud's relative L2 error is not used: its denominator is dominated
  /// by the few closest pairs, so it swings by ~20 % from seed to seed.
  double error(const Output& out) const override {
    if (out.values.size() != kClouds * kN * 4)
      return std::numeric_limits<double>::infinity();
    double sum = 0.0;
    for (int c = 0; c < kClouds; ++c) {
      for (std::size_t i = 0; i < kN; ++i) {
        const double* e = out.values.data() + (c * kN + i) * 4 + 1;
        const Vec3& r = reference_[c][i];
        sum += std::sqrt(norm2(Vec3{e[0], e[1], e[2]} - r) /
                         std::max(norm2(r), 1e-300));
      }
    }
    return sum / static_cast<double>(kClouds * kN);
  }
  double error_limit() const override { return 1e-2; }
  double work() const override { return static_cast<double>(kN * kClouds); }

  void probe(Layers& m) override {
    const Cloud all = cloud(0);
    const auto octree = probe_build(all, m);
    const tree::BlockedEvaluator evaluator(*octree, {kTheta, 8, nullptr});
    tree::CoulombField field;
    m["probe.tree.walk_s.fine"] = probe_walk(*octree, evaluator, kTheta);
    m["probe.tree.eval_s.fine"] =
        probe_seconds([&] { field = evaluator.evaluate_coulomb(kernel_); });
    m["probe.tree.near_pairs.fine"] = static_cast<double>(field.near);
    m["probe.tree.far_evals.fine"] = static_cast<double>(field.far);

    std::vector<std::uint64_t> near(kRanks, 0);
    mpsim::Runtime rt;
    rt.set_sched(fibers(threads_));
    rt.run(kRanks, [&](mpsim::Comm& comm) {
      tree::ParallelConfig cfg;
      cfg.theta = kTheta;
      tree::ParallelTree solver(comm, cfg);
      near[comm.rank()] =
          solver.solve_coulomb(slices_[0][comm.rank()], kernel_).timings.near;
    });
    double distributed = 0.0;
    for (auto v : near) distributed += static_cast<double>(v);
    m["tree.near_useful_ratio.fine"] =
        static_cast<double>(field.near) / distributed;
  }

 private:
  using Cloud = std::vector<tree::TreeParticle>;

  Cloud cloud(int c) const {
    Cloud all;
    for (const auto& slice : slices_[c])
      all.insert(all.end(), slice.begin(), slice.end());
    return all;
  }

  const std::uint64_t seed_;
  const kernels::CoulombKernel kernel_;
  std::vector<std::vector<Cloud>> slices_;  // [cloud][rank]
  std::vector<std::vector<Vec3>> reference_;  // [cloud][particle id]
};

constexpr const char* kWorkloadNames[] = {"spacetime_sheet", "spacetime_wide",
                                          "serial_sheet", "coulomb_cube"};

std::unique_ptr<Workload> make_workload(std::string_view name,
                                        std::uint64_t seed, int threads) {
  if (name == "spacetime_sheet")
    return std::make_unique<SpacetimeSheet>(seed, 4, threads);
  if (name == "spacetime_wide")
    return std::make_unique<SpacetimeSheet>(seed, 16, threads);
  if (name == "serial_sheet")
    return std::make_unique<SerialSheet>(seed, threads);
  if (name == "coulomb_cube")
    return std::make_unique<CoulombCube>(seed, threads);
  return nullptr;
}

// ---- repetitions ------------------------------------------------------------

struct Tally {
  int attempted = 0;
  int failed = 0;
  std::map<int, std::uint64_t> digests;  // per instance, its first rep's
  std::vector<std::string> failures;
  std::vector<double> setup_s, solve_s, traced_solve_s, rel_err, virtual_s,
      peak_rss;
  std::vector<Layers> layers;     // one per traced rep
  std::unique_ptr<Trace> last;    // the last traced rep's records
};

/// One repetition of one instance: setup, solve, checks. `timed` reps feed
/// the end-to-end samples; a traced rep feeds the per-layer samples instead.
void repetition(Workload& w, int instance, bool timed, bool traced,
                Tally& tally) {
  const int rep = tally.attempted++;
  std::string failure;
  try {
    auto trace = traced ? std::make_unique<Trace>(w.tracks()) : nullptr;
    if (timed) reset_peak_rss();
    const auto t0 = Clock::now();
    w.setup(instance);
    const auto t1 = Clock::now();
    const Output out = w.solve(trace.get());
    const auto t2 = Clock::now();

    const std::uint64_t digest = fnv1a(out.values);
    const std::uint64_t first =
        tally.digests.emplace(instance, digest).first->second;
    const double err = w.error(out);
    if (!std::all_of(out.values.begin(), out.values.end(),
                     [](double v) { return std::isfinite(v); }))
      failure = "non-finite output";
    else if (digest != first)
      failure = "digest " + hex(digest) + " != " + hex(first);
    else if (!(err <= w.error_limit()))
      failure = "rel_err " + std::to_string(err) + " over the limit";

    if (traced) {
      tally.traced_solve_s.push_back(seconds_between(t1, t2));
      tally.layers.push_back(layers_of(*trace));
      tally.last = std::move(trace);
    } else if (timed) {
      tally.setup_s.push_back(seconds_between(t0, t1));
      tally.solve_s.push_back(seconds_between(t1, t2));
      tally.rel_err.push_back(err);
      tally.virtual_s.push_back(out.virtual_s);
      tally.peak_rss.push_back(peak_rss_mb());
    }
  } catch (const std::exception& e) {
    failure = std::string("threw: ") + e.what();
  }
  if (!failure.empty()) {
    ++tally.failed;
    tally.failures.push_back("rep " + std::to_string(rep) + ": " + failure);
    std::fprintf(stderr, "stnb_e2e: rep %d failed: %s\n", rep,
                 failure.c_str());
  }
}

/// Opens `"name": {"value": ..., "unit": ...` and leaves the object open
/// for extra members.
JsonWriter& begin_metric(JsonWriter& w, std::string_view name, double value,
                         const char* unit) {
  return w.key(name).begin_object().member("value", value).member("unit",
                                                                   unit);
}

/// A median with its quartiles and sample count.
void write_sampled(JsonWriter& w, const char* name, const char* unit,
                   const std::vector<double>& samples) {
  const auto [q1, q3] = quartiles(samples);
  begin_metric(w, name, median(samples), unit)
      .member("q1", q1)
      .member("q3", q3)
      .member("n", samples.size())
      .end_object();
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

int run(int argc, char** argv) {
  Cli cli;
  cli.add("workload", "",
          "spacetime_sheet | spacetime_wide | serial_sheet | coulomb_cube");
  cli.add("seed", "42", "input seed; the library sees only generated inputs");
  cli.add("reps", "10", "minimum timed (traced: traced) repetitions");
  cli.add("seconds", "0", "minimum seconds of repetitions");
  cli.add("trace", "",
          "traced run: write W.layers.json, W.virtual.trace.json and "
          "W.host.trace.json into this directory");
  if (!cli.parse(argc, argv)) return 1;

  const std::string name = cli.get<std::string>("workload");
  long seed = 0, reps = 0;
  double seconds = 0.0;
  try {
    seed = cli.get<long>("seed");
    reps = cli.get<long>("reps");
    seconds = cli.get<double>("seconds");
  } catch (const std::exception&) {
    std::fprintf(stderr, "--seed, --reps and --seconds take numbers\n");
    return 1;
  }
  const std::string trace_dir = cli.get<std::string>("trace");
  const bool traced = !trace_dir.empty();

  const int threads = std::clamp<int>(
      static_cast<int>(std::thread::hardware_concurrency()), 1, 4);
  auto workload =
      make_workload(name, static_cast<std::uint64_t>(seed), threads);
  if (!workload) {
    std::fprintf(stderr, "unknown --workload '%s' (expected one of:",
                 name.c_str());
    for (const char* w : kWorkloadNames) std::fprintf(stderr, " %s", w);
    std::fprintf(stderr, ")\n");
    return 1;
  }
  if (seed < 0 || reps < 1 || !std::isfinite(seconds) || seconds < 0.0) {
    std::fprintf(stderr, "need --seed >= 0, --reps >= 1, --seconds >= 0\n");
    return 1;
  }
  // The trace directory is checked before the measurement, not after it.
  const std::string prefix = trace_dir + "/" + name;
  if (traced && !std::ofstream(prefix + ".layers.json")) {
    std::fprintf(stderr, "cannot write %s.layers.json\n", prefix.c_str());
    return 1;
  }
  const char* backend = simd::backend_name(simd::active_backend());

  {
    ThreadPool pool(static_cast<std::size_t>(threads - 1));
    for (int k = 0; k < workload->instances(); ++k) {
      workload->setup(k);
      workload->compute_reference(pool);
    }
  }
  Tally tally;
  // Warm-up, untimed.
  repetition(*workload, 0, /*timed=*/false, /*traced=*/false, tally);
  // Whole cycles over the instances, so each weighs the same in a median.
  const int cycle = workload->instances();
  const auto start = Clock::now();
  for (long done = 0; done < reps || done % cycle != 0 ||
                      seconds_between(start, Clock::now()) < seconds;
       ++done) {
    const int instance = static_cast<int>(done % cycle);
    repetition(*workload, instance, /*timed=*/true, /*traced=*/false, tally);
    if (traced)
      repetition(*workload, instance, /*timed=*/false, /*traced=*/true, tally);
  }

  const bool correct = tally.failed == 0;
  Layers layers;
  if (traced) {
    Layers probes;
    workload->setup(0);
    workload->probe(probes);
    for (const auto& [layer, unit] : kLayers) {
      std::vector<double> samples;
      for (const auto& rep : tally.layers)
        if (auto it = rep.find(layer); it != rep.end())
          samples.push_back(it->second);
      layers[layer] = samples.empty() ? 0.0 : median(samples);
    }
    for (const auto& [layer, value] : probes) layers[layer] = value;
    layers["obs.overhead"] =
        tally.solve_s.empty() || tally.traced_solve_s.empty()
            ? 0.0
            : median(tally.traced_solve_s) / median(tally.solve_s) - 1.0;
  }

  const auto write_layers = [&](JsonWriter& w) {
    w.key("layers").begin_object();
    for (const auto& [layer, unit] : kLayers)
      begin_metric(w, layer, layers[layer], unit).end_object();
    w.end_object();
  };

  JsonWriter w(std::cout);
  w.begin_object()
      .member("workload", name)
      .member("seed", seed)
      .member("traced", traced)
      .member("correct", correct)
      .member("attempted", tally.attempted)
      .member("failed", tally.failed)
      .member("failed_frac", static_cast<double>(tally.failed) /
                                 static_cast<double>(tally.attempted))
      .member("digest",
              tally.digests.count(0) != 0 ? hex(tally.digests[0]) : "");
  w.key("failures").begin_array();
  for (const auto& f : tally.failures) w.value(f);
  w.end_array();
  w.key("host")
      .begin_object()
      .member("nproc", std::thread::hardware_concurrency())
      .member("threads", threads)
      .member("simd", backend)
      .member("compiler", compiler())
      .member("build_type", STNB_E2E_BUILD_TYPE)
      .end_object();
  w.key("metrics").begin_object();
  if (!tally.solve_s.empty()) {
    std::vector<double> rate;
    for (double s : tally.solve_s) rate.push_back(workload->work() / s);
    write_sampled(w, "solve_s", "s", tally.solve_s);
    write_sampled(w, "particle_steps_per_s", "1/s", rate);
    write_sampled(w, "setup_s", "s", tally.setup_s);
    begin_metric(w, "rel_err", median(tally.rel_err), "1").end_object();
    begin_metric(w, "virtual_s", median(tally.virtual_s), "modeled_s")
        .end_object();
    write_sampled(w, "peak_rss_mb", "MB", tally.peak_rss);
  }
  w.end_object();
  if (traced) write_layers(w);
  w.end_object();
  std::cout << std::endl;

  if (traced) {
    std::ofstream layers_file(prefix + ".layers.json");
    JsonWriter lw(layers_file);
    lw.begin_object().member("workload", name);
    write_layers(lw);
    lw.end_object();
    layers_file << '\n';
    const bool ok =
        static_cast<bool>(layers_file) && tally.last != nullptr &&
        tally.last->registry.write_chrome_trace(prefix +
                                                ".virtual.trace.json") &&
        tally.last->host.write_chrome_trace(prefix + ".host.trace.json");
    if (!ok) {
      std::fprintf(stderr, "cannot write the traces under %s\n",
                   trace_dir.c_str());
      return 1;
    }
  }
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stnb_e2e: %s\n", e.what());
    return 1;
  }
}
