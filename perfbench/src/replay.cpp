#include "replay.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <vector>

#include "cache/fingerprint.hpp"
#include "maxcut/cut.hpp"
#include "qaoa/cost_table.hpp"
#include "qaoa2/merge.hpp"
#include "qgraph/partition.hpp"
#include "qsim/batched.hpp"
#include "qsim/measure.hpp"
#include "qsim/statevector.hpp"
#include "sdp/gw.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using qq::graph::Graph;
using qq::graph::NodeId;

/// Bytes of one complex<double> amplitude and of one cut-table entry.
constexpr double kAmpBytes = 16.0;
constexpr double kTableBytes = 8.0;

/// How many of the largest leaves get a full QaoaSolver::optimize replay.
constexpr std::size_t kOptimizeLeaves = 4;

/// Used when the C library cannot report the last-level cache size.
constexpr std::size_t kFallbackLlcBytes = std::size_t{300} << 20;

/// Induced subgraph on the first `n` nodes of `g`: a leaf-sized graph with
/// the workload's own edge density.
Graph prefix_subgraph(const Graph& g, int n) {
  std::vector<NodeId> nodes(static_cast<std::size_t>(n));
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  return g.induced(nodes).graph;
}

qq::circuit::QaoaAngles ramp_angles(int layers) {
  qq::circuit::QaoaAngles angles;
  for (int l = 0; l < layers; ++l) {
    const double t = (l + 0.5) / layers;
    angles.gammas.push_back(0.7 * t);
    angles.betas.push_back(0.7 * (1.0 - t));
  }
  return angles;
}

/// Seconds per call of `f`: the median over `batches` batches of `reps`
/// back-to-back calls each.
template <class F>
double per_call(const char* name, std::int64_t parent, int batches, int reps,
                F&& f) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    samples.push_back(timed_span(name, parent, [&] {
                        for (int r = 0; r < reps; ++r) f();
                      }) /
                      reps);
  }
  return median(samples);
}

/// memcpy bandwidth over a footprint of 4x the last-level cache (source and
/// destination 2x LLC each), counting the bytes read plus the bytes written.
void copy_probe(std::int64_t parent, Report& report) {
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const std::size_t llc_bytes =
      llc > 0 ? static_cast<std::size_t>(llc) : kFallbackLlcBytes;
  const std::size_t bytes = std::min<std::size_t>(2 * llc_bytes, std::size_t{1} << 30);
  std::vector<char> src(bytes, 1);
  std::vector<char> dst(bytes, 0);
  std::vector<double> gbps;
  for (int r = 0; r < 3; ++r) {
    const double s = timed_span("mem.copy", parent, [&] {
      std::memcpy(dst.data(), src.data(), bytes);
    });
    gbps.push_back(2.0 * static_cast<double>(bytes) / s / 1e9);
  }
  report.metric("mem.copy_gbps", median(gbps));
  report.info("mem.llc_bytes", static_cast<double>(llc_bytes));
  report.info("mem.copy_array_bytes", static_cast<double>(bytes));
}

void kernel_probe(const Graph& g, int n, std::int64_t parent, Report& report) {
  const std::vector<double> table =
      qq::qaoa::build_cut_table(prefix_subgraph(g, n));
  const double amps = static_cast<double>(std::size_t{1} << n);
  // ~64 MiB of amplitude traffic per batch keeps every batch well above
  // the clock resolution at any leaf size.
  const int reps = std::max(4, static_cast<int>((64.0 * (1 << 20)) / (amps * kAmpBytes)));
  constexpr int kBatches = 7;

  qq::sim::StateVector sv = qq::sim::StateVector::plus_state(n);
  const double diag = per_call("qsim.apply_diagonal_phase", parent, kBatches,
                               reps, [&] { sv.apply_diagonal_phase(table, 0.3); });
  const double mixer = per_call("qsim.apply_rx_layer", parent, kBatches, reps,
                                [&] { sv.apply_rx_layer(0.4); });
  double sink = 0.0;  // keeps the expectation calls observable
  const double expect = per_call("qsim.expectation_diagonal", parent, kBatches,
                                 reps, [&] {
                                   sink += qq::sim::expectation_diagonal(sv, table);
                                 });
  qq::sim::BatchedStateVector batched(n, 4);
  batched.reset_to_plus();
  const std::vector<double> thetas = {0.1, 0.2, 0.3, 0.4};
  const double batched_mixer =
      per_call("qsim.batched_apply_rx_layer", parent, kBatches,
               std::max(1, reps / 4), [&] { batched.apply_rx_layer(thetas); });

  // Computed, not measured: compulsory traffic of one call from 2^n and
  // the element widths. The diagonal phase reads and writes every
  // amplitude and reads its table entry; each amplitude update is one
  // e^{-i scale value} evaluation and one complex multiply.
  const double diag_bytes = amps * (2.0 * kAmpBytes + kTableBytes);
  report.metric("qsim.diag_phase_s", diag);
  report.metric("qsim.mixer_s", mixer);
  report.metric("qsim.batched_mixer_s", batched_mixer);
  report.metric("qsim.expectation_s", expect);
  report.metric("qsim.diag_phase_bytes", diag_bytes);
  report.metric("qsim.diag_phase_ops", amps);
  report.metric("qsim.mixer_bytes", 2.0 * amps * kAmpBytes);
  report.metric("qsim.expectation_bytes", amps * (kAmpBytes + kTableBytes));
  report.metric("qsim.diag_phase_gbps", diag_bytes / diag / 1e9);
  report.info("qsim.kernel_qubits", n);
  report.info("qsim.expectation_checksum", sink);
}

void zero_qaoa_metrics(Report& report) {
  for (const char* name :
       {"qsim.diag_phase_s", "qsim.mixer_s", "qsim.batched_mixer_s",
        "qsim.expectation_s", "qsim.diag_phase_bytes", "qsim.diag_phase_ops",
        "qsim.mixer_bytes", "qsim.expectation_bytes", "qsim.diag_phase_gbps",
        "qaoa.cut_table_s", "qaoa.eval_14q_s", "qaoa.eval_16q_s",
        "qaoa.optimize_r4_s", "qaoa.optimize_r1_s"}) {
    report.metric(name, 0.0);
  }
}

}  // namespace

void replay_layers(const ReplayPlan& plan, Report& report) {
  const std::int64_t root = tracer().open("replay", now_s());
  // Results the timed calls produce are folded in here so no call can be
  // optimized away.
  double sink = 0.0;
  std::vector<double> partition_s, induced_s, gw_s, merge_s;
  std::vector<Graph> leaves;
  for (const Graph* g : plan.graphs) {
    qq::graph::PartitionOptions popts;
    popts.max_nodes = plan.max_qubits;
    popts.seed = plan.seed;  // Qaoa2Driver's level-0 partition seed
    std::vector<std::vector<NodeId>> parts;
    partition_s.push_back(timed_span("qgraph.partition_max_size", root, [&] {
      parts = qq::graph::partition_max_size(*g, popts);
    }));
    std::vector<qq::graph::Subgraph> subs;
    induced_s.push_back(timed_span("qgraph.induced_batch", root, [&] {
      subs = qq::graph::induced_batch(*g, parts);
    }));
    std::vector<qq::maxcut::Assignment> locals;
    for (const qq::graph::Subgraph& sub : subs) {
      qq::sdp::GwResult gw;
      gw_s.push_back(timed_span("sdp.goemans_williamson", root, [&] {
        gw = qq::sdp::goemans_williamson(sub.graph);
      }));
      locals.push_back(gw.best.assignment);
      leaves.push_back(sub.graph);
    }
    Graph coarse;
    const double build_s = timed_span("qaoa2.build_merge_graph", root, [&] {
      coarse = qq::qaoa2::build_merge_graph(*g, parts, locals);
    });
    const qq::maxcut::Assignment coarse_cut =
        qq::sdp::goemans_williamson(coarse).best.assignment;
    qq::maxcut::Assignment merged;
    const double flips_s = timed_span("qaoa2.apply_flips", root, [&] {
      merged = qq::qaoa2::apply_flips(g->num_nodes(), parts, locals, coarse_cut);
    });
    merge_s.push_back(build_s + flips_s);
    report.check("replay merge covers every node",
                 merged.size() == static_cast<std::size_t>(g->num_nodes()));
  }
  report.metric("qgraph.partition_s", median(partition_s));
  report.metric("qgraph.induced_s", median(induced_s));
  report.metric("sdp.gw_leaf_s", mean(gw_s));
  report.metric("qaoa2.merge_s", median(merge_s));

  if (plan.qaoa_leaves && !plan.graphs.empty()) {
    std::vector<double> table_s;
    for (const Graph& leaf : leaves) {
      table_s.push_back(timed_span("qaoa.build_cut_table", root, [&] {
        sink += qq::qaoa::build_cut_table(leaf).back();
      }));
    }
    report.metric("qaoa.cut_table_s", mean(table_s));

    const Graph& g0 = *plan.graphs.front();
    const qq::circuit::QaoaAngles angles = ramp_angles(plan.qaoa.layers);
    for (const int n : {14, 16}) {
      const Graph sub = prefix_subgraph(g0, n);
      const qq::qaoa::QaoaSolver solver(sub);
      qq::qaoa::QaoaSolver::EvalWorkspace workspace(n);
      const double s = per_call("qaoa.expectation", root, 5, 8, [&] {
        sink += solver.expectation(angles, workspace);
      });
      report.metric(n == 14 ? "qaoa.eval_14q_s" : "qaoa.eval_16q_s", s);
    }

    // The largest leaves dominate a solve's time (cost grows as 2^n), and
    // only leaves of lockstep_min_qubits or more take the batched path.
    std::vector<const Graph*> by_size;
    for (const Graph& leaf : leaves) by_size.push_back(&leaf);
    std::stable_sort(by_size.begin(), by_size.end(),
                     [](const Graph* a, const Graph* b) {
                       return a->num_nodes() > b->num_nodes();
                     });
    by_size.resize(std::min(by_size.size(), kOptimizeLeaves));
    std::vector<double> r4, r1;
    std::uint64_t salt = 0;
    for (const Graph* leaf : by_size) {
      const qq::qaoa::QaoaSolver solver(*leaf);
      qq::qaoa::QaoaOptions opts = plan.qaoa;
      opts.seed = plan.seed + ++salt;
      opts.restarts = 4;
      r4.push_back(timed_span("qaoa.optimize.restarts4", root,
                              [&] { solver.optimize(opts); }));
      opts.restarts = 1;
      r1.push_back(timed_span("qaoa.optimize.restarts1", root,
                              [&] { solver.optimize(opts); }));
    }
    report.metric("qaoa.optimize_r4_s", median(r4));
    report.metric("qaoa.optimize_r1_s", median(r1));
    kernel_probe(g0, plan.kernel_qubits, root, report);
  } else {
    zero_qaoa_metrics(report);
  }

  std::vector<const Graph*> to_fingerprint = plan.fingerprint_graphs;
  if (to_fingerprint.empty()) {
    for (const Graph& leaf : leaves) to_fingerprint.push_back(&leaf);
  }
  std::vector<double> fp_s;
  for (const Graph* g : to_fingerprint) {
    fp_s.push_back(timed_span("cache.fingerprint_graph", root, [&] {
      sink += static_cast<double>(qq::cache::fingerprint_graph(*g).key & 1);
    }));
  }
  report.metric("cache.fingerprint_s", median(fp_s));

  copy_probe(root, report);
  report.info("replay.checksum", sink);
  tracer().close(root, now_s());
}

}  // namespace perfbench
