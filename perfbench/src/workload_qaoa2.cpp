// qaoa2_sim and qaoa2_classic: one client solves a fixed set of graphs back
// to back (closed loop) through Qaoa2Driver::solve, cache off.
//
// The graph set is fixed per workload (its own master seed) so every run
// times the same instances; --seed drives the Qaoa2Driver seed (partition
// fallback, QAOA restart angles, GW slicings) and the solve order. The run
// measures whole passes over the set so every graph carries equal weight
// in the medians.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "maxcut/cut.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/generators.hpp"
#include "replay.hpp"
#include "sdp/gw.hpp"
#include "timed_solver.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using qq::graph::Graph;
using qq::qaoa2::Qaoa2Driver;
using qq::qaoa2::Qaoa2Options;
using qq::qaoa2::Qaoa2Result;

struct Qaoa2Workload {
  const char* name;
  qq::graph::NodeId nodes;
  double edge_p;
  int set_size;
  std::uint64_t set_seed;
  const char* sub_spec;
  const char* deeper_spec;
  const char* merge_spec;
  int quantum_slots;
  int classical_slots;
  bool qaoa_leaves;
  int layers;
};

// Fig. 4 "QAOA"-style hybrid: QAOA leaves with batched lockstep restarts on
// one simulated device, GW below level 0. Nearly all time is qsim/qaoa/optim.
constexpr Qaoa2Workload kSim{"qaoa2_sim", 300, 0.08, 8, 0x51a0300,
                             "qaoa:p=3,restarts=4", "gw", "qaoa", 1, 3,
                             true, 3};
// Fig. 4 "Classic": GW everywhere; time is partition / extraction / merge /
// engine coordination, qsim does no work. The engine needs >= 1 slot per
// kind; no task here is quantum, so the device slot stays idle.
constexpr Qaoa2Workload kClassic{"qaoa2_classic", 1000, 0.1, 4, 0xc1a551c,
                                 "gw", "gw", "gw", 1, 4, false, 3};

Qaoa2Options make_options(const Qaoa2Workload& w, std::uint64_t seed,
                          bool timed) {
  auto spec = [timed](const char* s) {
    return timed ? timed_spec(s) : std::string(s);
  };
  Qaoa2Options o;
  o.max_qubits = 16;
  o.sub_solver_spec = spec(w.sub_spec);
  o.deeper_solver_spec = spec(w.deeper_spec);
  o.merge_solver_spec = spec(w.merge_spec);
  o.engine.quantum_slots = w.quantum_slots;
  o.engine.classical_slots = w.classical_slots;
  o.seed = seed;
  return o;
}

std::vector<Graph> make_graphs(const Qaoa2Workload& w) {
  qq::util::Rng rng = stream(w.set_seed, 1);
  std::vector<Graph> graphs;
  for (int i = 0; i < w.set_size; ++i) {
    graphs.push_back(qq::graph::erdos_renyi(w.nodes, w.edge_p, rng));
  }
  return graphs;
}

struct Solved {
  int graph = 0;
  double seconds = 0.0;
  Qaoa2Result result;
};

/// Verifies one solve: the reported cut is recounted on its own graph, and
/// every solve of the same graph in this run returns the same value.
class CutChecker {
 public:
  explicit CutChecker(const std::vector<Graph>& graphs) : graphs_(graphs) {}

  void verify(const std::string& what, int gi, const Qaoa2Result& r,
              Report& report) {
    const Graph& g = graphs_[static_cast<std::size_t>(gi)];
    const bool sized = r.cut.assignment.size() ==
                       static_cast<std::size_t>(g.num_nodes());
    const double recount = sized ? qq::maxcut::cut_value(g, r.cut.assignment)
                                 : -1.0;
    if (!sized || recount != r.cut.value) {
      report.check(what + " cut recount", false,
                   "graph " + std::to_string(gi) + ": reported " +
                       std::to_string(r.cut.value) + ", recounted " +
                       std::to_string(recount));
      ok_ = false;
    }
    auto [it, inserted] = first_.emplace(gi, r.cut.value);
    if (!inserted && it->second != r.cut.value) {
      report.check(what + " cut repeatable", false,
                   "graph " + std::to_string(gi) + ": " +
                       std::to_string(it->second) + " then " +
                       std::to_string(r.cut.value));
      ok_ = false;
    }
  }

  bool ok() const noexcept { return ok_; }
  const std::map<int, double>& cuts() const noexcept { return first_; }

 private:
  const std::vector<Graph>& graphs_;
  std::map<int, double> first_;
  bool ok_ = true;
};

/// Runs passes over the graph set (in a seed-shuffled order per pass)
/// until `seconds` are spent, stopping only at a pass boundary; `solve`
/// is called with each graph's index. Returns the seconds spent.
template <class SolveOne>
double run_passes(int set_size, std::uint64_t seed, double seconds,
                  SolveOne&& solve) {
  qq::util::Rng rng = stream(seed, 2);
  std::vector<int> order(static_cast<std::size_t>(set_size));
  std::iota(order.begin(), order.end(), 0);
  const double start = now_s();
  int passes = 0;
  for (;;) {
    std::shuffle(order.begin(), order.end(), rng);
    for (const int gi : order) solve(gi);
    ++passes;
    const double elapsed = now_s() - start;
    // Stop when another pass would end further past the deadline than
    // stopping now falls short of it.
    if (elapsed + 0.5 * elapsed / passes >= seconds) return elapsed;
  }
}

std::vector<double> seconds_of(const std::vector<Solved>& solves) {
  std::vector<double> out;
  for (const Solved& s : solves) out.push_back(s.seconds);
  return out;
}

template <class F>
std::vector<double> per_solve(const std::vector<Solved>& solves, F&& f) {
  std::vector<double> out;
  for (const Solved& s : solves) out.push_back(f(s));
  return out;
}

/// QAOA^2 cut / full-graph GW cut, averaged over the set. The GW
/// references are computed here, outside every timed region.
double cut_ratio(const std::vector<Graph>& graphs,
                 const std::map<int, double>& cuts, Report& report) {
  double sum = 0.0;
  for (const auto& [gi, cut] : cuts) {
    const double gw =
        qq::sdp::goemans_williamson(graphs[static_cast<std::size_t>(gi)])
            .best.value;
    sum += cut / gw;
    report.cut(std::to_string(gi), cut);
  }
  return cuts.empty() ? 0.0 : sum / static_cast<double>(cuts.size());
}

void run(const Qaoa2Workload& w, const Args& args, Report& report) {
  const std::vector<Graph> graphs = make_graphs(w);
  CutChecker checker(graphs);

  // Set-up: driver construction and one warm-up solve, which pays every
  // lazy initialization (thread pool, SIMD dispatch, solver registry).
  const double setup_start = now_s();
  if (args.trace) register_timed_solver();
  const Qaoa2Driver driver(make_options(w, args.seed, false));
  std::optional<Qaoa2Driver> timed;
  if (args.trace) timed.emplace(make_options(w, args.seed, true));
  checker.verify("warm-up", 0, driver.solve(graphs[0]), report);
  const double setup_s = now_s() - setup_start;
  report.info("setup_s", setup_s);
  if (args.setup_only) {
    report.metric("setup_s", setup_s);
    return;
  }

  std::vector<Solved> plain, traced;
  auto solve = [&](int gi, bool with_trace) {
    ++report.attempted;
    const double t0 = now_s();
    std::int64_t root = -1;
    if (with_trace) {
      root = tracer().open("qaoa2.solve", t0, -1, report.attempted);
      set_active_parent({root, report.attempted});
    }
    try {
      Qaoa2Result r = (with_trace ? *timed : driver)
                          .solve(graphs[static_cast<std::size_t>(gi)]);
      const double t1 = now_s();
      if (with_trace) tracer().close(root, t1);
      checker.verify(with_trace ? "traced" : "untraced", gi, r, report);
      (with_trace ? traced : plain).push_back({gi, t1 - t0, std::move(r)});
    } catch (const std::exception& e) {
      if (with_trace) tracer().close(root, now_s());
      ++report.failed;
      std::fprintf(stderr, "%s: solve of graph %d failed: %s\n", w.name, gi,
                   e.what());
    }
  };

  double elapsed = 0.0;
  if (!args.trace) {
    elapsed = run_passes(w.set_size, args.seed, args.seconds,
                         [&](int gi) { solve(gi, false); });
  } else {
    // Untraced and traced solves of each graph alternate (which goes first
    // flips every graph) so both see the same machine state; equal cuts
    // prove the timing wrapper does not change results.
    bool traced_first = false;
    elapsed = run_passes(w.set_size, args.seed, args.seconds, [&](int gi) {
      traced_first = !traced_first;
      solve(gi, traced_first);
      solve(gi, !traced_first);
    });
  }
  report.check("every solve recounted and repeatable", checker.ok());
  const double ratio = cut_ratio(graphs, checker.cuts(), report);

  const std::vector<double> times = seconds_of(plain);
  const Tail tail = tail_of(times);
  report.info("solves", static_cast<double>(plain.size()));
  report.info("tail_percentile", tail.percentile);
  report.info("fail_frac", report.attempted ? static_cast<double>(report.failed) /
                                                  report.attempted
                                            : 0.0);
  if (!args.trace) {
    report.metric("setup_s", setup_s);
    report.metric("solve_p50_s", median(times));
    report.metric("solve_tail_s", tail.value);
    report.metric("req_p50_s", median(times));
    report.metric("req_tail_s", tail.value);
    report.metric("goodput_rps", static_cast<double>(plain.size()) / elapsed);
    report.metric("cut_ratio", ratio);
    report.metric("peak_rss_mb", peak_rss_mb());
    return;
  }

  // ---- traced run: per-layer metrics ----
  const std::vector<double> traced_times = seconds_of(traced);
  report.metric("trace.overhead_s", median(traced_times) - median(times));
  report.info("trace.untraced_p50_s", median(times));
  report.info("trace.traced_p50_s", median(traced_times));

  std::vector<double> leaf_s;
  std::map<std::int64_t, double> busy;
  std::map<std::int64_t, double> evals;
  for (const Span& s : tracer().spans()) {
    if (s.name.rfind("solver.", 0) != 0) continue;
    leaf_s.push_back(s.end - s.start);
    busy[s.request] += s.end - s.start;
    evals[s.request] += static_cast<double>(s.count);
  }
  auto values = [](const std::map<std::int64_t, double>& m) {
    std::vector<double> out;
    for (const auto& [k, v] : m) out.push_back(v);
    return out;
  };
  report.metric("solver.leaf_s", mean(leaf_s));
  report.metric("solver.leaf_busy_s", median(values(busy)));
  report.metric("optim.evals", median(values(evals)));
  report.metric("qaoa2.self_s", median(tracer().self_times("qaoa2.solve")));
  report.metric("qaoa2.subgraphs", median(per_solve(plain, [](const Solved& s) {
                  return static_cast<double>(s.result.subgraphs_total);
                })));
  report.metric("qaoa2.levels", median(per_solve(plain, [](const Solved& s) {
                  return static_cast<double>(s.result.levels);
                })));
  report.metric("sched.queue_wait_s", median(per_solve(plain, [](const Solved& s) {
                  return s.result.queue_wait_seconds;
                })));
  report.metric("sched.coordination_s",
                median(per_solve(plain, [](const Solved& s) {
                  return s.result.coordination_seconds;
                })));
  report.metric("sched.tasks", median(per_solve(plain, [](const Solved& s) {
                  return static_cast<double>(s.result.engine_tasks);
                })));
  const double slots = w.quantum_slots + w.classical_slots;
  report.metric("sched.slot_util", median(per_solve(plain, [&](const Solved& s) {
                  return s.result.solve_seconds / (s.seconds * slots);
                })));
  for (const char* name :
       {"cache.hit_ratio", "cache.hits", "cache.misses", "cache.coalesced",
        "cache.inserts", "service.submit_s", "service.queue_wait_s.interactive",
        "service.queue_wait_s.batch", "service.busy_s.interactive",
        "service.busy_s.batch", "service.rejected", "gen.lag_s"}) {
    report.metric(name, 0.0);  // cache off, no service in this workload
  }

  ReplayPlan plan;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, graphs.size()); ++i) {
    plan.graphs.push_back(&graphs[i]);
  }
  plan.max_qubits = 16;
  plan.seed = args.seed;
  plan.qaoa_leaves = w.qaoa_leaves;
  plan.qaoa.layers = w.layers;
  plan.kernel_qubits = 16;
  replay_layers(plan, report);
}

}  // namespace

void run_qaoa2_sim(const Args& args, Report& report) { run(kSim, args, report); }

void run_qaoa2_classic(const Args& args, Report& report) {
  run(kClassic, args, report);
}

}  // namespace perfbench
