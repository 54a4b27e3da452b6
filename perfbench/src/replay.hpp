#pragma once
// Replay phase of the traced run: on the workload's own graphs, call each
// layer's public stage functions directly — partition, induced extraction,
// per-leaf GW, QaoaSolver build / evaluation / optimization, merge + flips,
// the qsim kernels at the workload's leaf size, fingerprinting — and the
// memcpy bandwidth probe, each timed in its own span. Emits the
// layer-level metrics into the report.

#include <cstdint>
#include <vector>

#include "common.hpp"
#include "qaoa/qaoa.hpp"
#include "qgraph/graph.hpp"

namespace perfbench {

struct ReplayPlan {
  /// Graphs the pipeline partitions (the workload's own inputs).
  std::vector<const qq::graph::Graph*> graphs;
  int max_qubits = 16;
  std::uint64_t seed = 0;
  /// True when the workload solves its leaves with QAOA; false leaves the
  /// qsim / qaoa metrics at 0 (that layer does no work in the workload).
  bool qaoa_leaves = true;
  /// The workload's leaf QAOA configuration (layers; restarts are replayed
  /// at 4 and at 1).
  qq::qaoa::QaoaOptions qaoa;
  /// Leaf size the kernels are timed at.
  int kernel_qubits = 16;
  /// Graphs fingerprinted for cache.fingerprint_s; empty = the leaves.
  std::vector<const qq::graph::Graph*> fingerprint_graphs;
};

void replay_layers(const ReplayPlan& plan, Report& report);

}  // namespace perfbench
