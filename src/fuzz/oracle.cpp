#include "fuzz/oracle.hpp"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "cache/fingerprint.hpp"
#include "cache/solve_cache.hpp"
#include "maxcut/cut.hpp"
#include "maxcut/exact.hpp"
#include "qaoa2/qaoa2.hpp"
#include "solver/registry.hpp"
#include "util/thread_pool.hpp"

namespace qq::fuzz {

namespace {

using graph::Graph;
using graph::NodeId;

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void add(std::vector<Violation>& out, std::string oracle, std::string details) {
  out.push_back(Violation{std::move(oracle), std::move(details)});
}

/// Assignment is structurally valid and its recount matches the reported
/// value. Shared by every probe and every oracle that re-solves.
void check_cut(const Graph& g, const maxcut::CutResult& cut,
               const std::string& context, std::vector<Violation>& out) {
  if (cut.assignment.size() != static_cast<std::size_t>(g.num_nodes())) {
    add(out, "recount",
        context + ": assignment has " + std::to_string(cut.assignment.size()) +
            " entries for a " + std::to_string(g.num_nodes()) + "-node graph");
    return;
  }
  for (std::size_t i = 0; i < cut.assignment.size(); ++i) {
    if (cut.assignment[i] > 1) {
      add(out, "recount",
          context + ": assignment[" + std::to_string(i) + "] = " +
              std::to_string(static_cast<int>(cut.assignment[i])) +
              " is not a side in {0,1}");
      return;
    }
  }
  if (!std::isfinite(cut.value)) {
    add(out, "recount", context + ": cut value " + fmt(cut.value) +
                            " is not finite");
    return;
  }
  const double recount = maxcut::cut_value(g, cut.assignment);
  if (std::abs(recount - cut.value) > cut_tolerance(g)) {
    add(out, "recount", context + ": reported " + fmt(cut.value) +
                            " but the assignment recounts to " + fmt(recount));
  }
}

/// Random permutation of [0, n) derived from the scenario's solve seed.
std::vector<NodeId> relabeling(const Scenario& s) {
  std::vector<NodeId> perm(static_cast<std::size_t>(s.graph.num_nodes()));
  std::iota(perm.begin(), perm.end(), NodeId{0});
  util::Rng rng(s.solve_seed ^ 0x9e1abe1ULL);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[util::uniform_u64(rng, i)]);
  }
  return perm;
}

Graph permuted_graph(const Graph& g, const std::vector<NodeId>& perm) {
  Graph h(g.num_nodes());
  for (const graph::Edge& e : g.edges()) {
    h.add_edge(perm[static_cast<std::size_t>(e.u)],
               perm[static_cast<std::size_t>(e.v)], e.w);
  }
  return h;
}

maxcut::Assignment map_back(const maxcut::Assignment& permuted,
                            const std::vector<NodeId>& perm) {
  maxcut::Assignment original(permuted.size());
  for (std::size_t u = 0; u < perm.size(); ++u) {
    original[u] = permuted[static_cast<std::size_t>(perm[u])];
  }
  return original;
}

bool exact_oracle_applies(const Scenario& s, const OracleOptions& opts) {
  return s.graph.num_nodes() >= 2 &&
         s.graph.num_nodes() <= opts.exact_max_nodes &&
         s.graph.num_edges() > 0;
}

/// Shared post-solve oracles: exact bound and relabel self-consistency.
/// `resolve` re-runs the scenario's solve on an arbitrary graph and returns
/// the cut, so the same logic serves both probe kinds.
template <typename Resolve>
void check_exact_and_relabel(const Scenario& s, const OracleOptions& opts,
                             const maxcut::CutResult& cut, Resolve resolve,
                             std::vector<Violation>& out) {
  const Graph& g = s.graph;
  if (exact_oracle_applies(s, opts)) {
    const maxcut::CutResult exact = maxcut::solve_exact(g);
    check_cut(g, exact, "exact reference", out);
    if (cut.value > exact.value + cut_tolerance(g)) {
      add(out, "exact_bound",
          "heuristic value " + fmt(cut.value) + " exceeds the exact optimum " +
              fmt(exact.value));
    }
    if (opts.check_relabel) {
      const auto perm = relabeling(s);
      const maxcut::CutResult exact_perm =
          maxcut::solve_exact(permuted_graph(g, perm));
      if (std::abs(exact_perm.value - exact.value) > cut_tolerance(g)) {
        add(out, "relabel", "exact optimum changed under relabeling: " +
                                fmt(exact.value) + " vs " +
                                fmt(exact_perm.value));
      }
    }
  }
  if (opts.check_relabel && g.num_nodes() > 0) {
    const auto perm = relabeling(s);
    const Graph h = permuted_graph(g, perm);
    try {
      const maxcut::CutResult permuted = resolve(h);
      check_cut(h, permuted, "relabeled solve", out);
      if (permuted.assignment.size() ==
          static_cast<std::size_t>(g.num_nodes())) {
        const double mapped_back =
            maxcut::cut_value(g, map_back(permuted.assignment, perm));
        if (std::abs(mapped_back - permuted.value) > cut_tolerance(g)) {
          add(out, "relabel",
              "assignment mapped back through the permutation recounts to " +
                  fmt(mapped_back) + " on the original graph, but the "
                  "relabeled solve reported " + fmt(permuted.value));
        }
      }
    } catch (const std::exception& e) {
      add(out, "relabel",
          std::string("solve on the relabeled graph threw: ") + e.what());
    }
  }
}

// --------------------------------------------------- solver probes ----

void check_solver_scenario(const Scenario& s, const OracleOptions& opts,
                           std::vector<Violation>& out) {
  const Graph& g = s.graph;
  solver::SolverPtr solver;
  try {
    solver = solver::SolverRegistry::global().make(s.spec);
  } catch (const std::exception& e) {
    add(out, "spec_construct",
        "valid-by-construction spec '" + s.spec + "' failed to build: " +
            e.what());
    return;
  }

  solver::SolveRequest request;
  request.graph = &g;
  request.seed = s.solve_seed;
  solver::SolveReport report;
  try {
    report = solver->solve(request);
  } catch (const std::exception& e) {
    add(out, "solve_throws", "spec '" + s.spec + "' threw: " + e.what());
    return;
  } catch (...) {
    add(out, "solve_throws", "spec '" + s.spec + "' threw a non-std exception");
    return;
  }

  check_cut(g, report.cut, "spec '" + s.spec + "'", out);

  // Report bookkeeping invariants.
  const auto [q, c] = solver->solve_counts();
  if (report.quantum_solves != q || report.classical_solves != c) {
    add(out, "counts",
        "per-kind solve counts (" + std::to_string(report.quantum_solves) +
            "q, " + std::to_string(report.classical_solves) + "c) != " +
            "Solver::solve_counts (" + std::to_string(q) + "q, " +
            std::to_string(c) + "c)");
  }
  if (report.solver != solver->name()) {
    add(out, "counts", "report.solver '" + report.solver +
                           "' != solver name '" + std::string(solver->name()) +
                           "'");
  }
  if (!std::isfinite(report.wall_seconds) || report.wall_seconds < 0.0 ||
      report.evaluations < 0) {
    add(out, "counts", "non-finite or negative wall/evaluations");
  }

  if (opts.check_determinism) {
    const solver::SolveReport again = solver->solve(request);
    if (again.cut.value != report.cut.value ||
        again.cut.assignment != report.cut.assignment ||
        again.evaluations != report.evaluations) {
      add(out, "determinism",
          "spec '" + s.spec + "' at seed " + std::to_string(s.solve_seed) +
              " is not reproducible: " + fmt(report.cut.value) + " then " +
              fmt(again.cut.value));
    }
    // A separately constructed instance of the same spec must agree too.
    const solver::SolveReport fresh =
        solver::SolverRegistry::global().make(s.spec)->solve(request);
    if (fresh.cut.value != report.cut.value ||
        fresh.cut.assignment != report.cut.assignment) {
      add(out, "determinism",
          "freshly constructed '" + s.spec + "' disagrees with the original "
          "instance at the same seed");
    }
  }

  if (opts.check_cache_coherence && g.num_nodes() >= 2 && g.num_edges() > 0) {
    // Fresh seed-sensitive cache, warm starts off (the defaults): every
    // cache-routed result must be bit-identical to the uncached one.
    cache::SolveCache cache;
    try {
      const solver::SolveReport miss =
          cache.solve_through(*solver, request, s.spec);
      if (miss.cut.value != report.cut.value ||
          miss.cut.assignment != report.cut.assignment ||
          miss.evaluations != report.evaluations) {
        add(out, "cache_coherence",
            "cache-routed solve of '" + s.spec + "' (" + fmt(miss.cut.value) +
                ") differs from the uncached solve (" + fmt(report.cut.value) +
                ")");
      }
      const solver::SolveReport hit =
          cache.solve_through(*solver, request, s.spec);
      if (cache.stats().hits < 1) {
        add(out, "cache_coherence",
            "repeating the identical request did not hit the cache");
      }
      if (hit.cut.value != report.cut.value ||
          hit.cut.assignment != report.cut.assignment ||
          hit.evaluations != report.evaluations) {
        add(out, "cache_coherence",
            "cache hit (" + fmt(hit.cut.value) +
                ") is not bit-identical to the original solve (" +
                fmt(report.cut.value) + ")");
      }
      // Isomorphic-hit probe: when the canonicalizer fully labels both the
      // graph and a relabeled copy, a read-only lookup on the copy must hit
      // the entry filled above, and the cached assignment mapped through
      // the stored permutation must be a valid equal-value cut of the copy.
      const auto perm = relabeling(s);
      const Graph h = permuted_graph(g, perm);
      const cache::Fingerprint fp_g = cache::fingerprint_graph(g);
      const cache::Fingerprint fp_h = cache::fingerprint_graph(h);
      if (fp_g.canonical && fp_h.canonical) {
        cache::CachePolicy readonly;
        readonly.mode = cache::CacheMode::kReadOnly;
        solver::SolveRequest r2;
        r2.graph = &h;
        r2.seed = s.solve_seed;
        const std::uint64_t hits_before = cache.stats().hits;
        const solver::SolveReport iso =
            cache.solve_through(*solver, r2, s.spec, readonly);
        if (cache.stats().hits != hits_before + 1) {
          add(out, "cache_coherence",
              "read-only lookup of an isomorphic relabeled copy missed the "
              "cached entry");
        } else {
          check_cut(h, iso.cut, "isomorphic cache hit", out);
          if (std::abs(iso.cut.value - report.cut.value) > cut_tolerance(g)) {
            add(out, "cache_coherence",
                "isomorphic cache hit recounts to " + fmt(iso.cut.value) +
                    " but the original solve found " + fmt(report.cut.value));
          }
        }
      }
    } catch (const std::exception& e) {
      add(out, "cache_coherence",
          std::string("cache-routed solve threw: ") + e.what());
    }
  }

  check_exact_and_relabel(
      s, opts, report.cut,
      [&](const Graph& h) {
        solver::SolveRequest r2;
        r2.graph = &h;
        r2.seed = s.solve_seed;
        return solver->solve(r2).cut;
      },
      out);
}

// ---------------------------------------------------- qaoa2 probes ----

/// Process-lifetime engine pools of the QAOA^2 probes: every probe runs on
/// the width-8 pool, and the schedule-parity re-solve on the width-1 pool,
/// so the two runs see different task interleavings.
util::ThreadPool& wide_pool() {
  static util::ThreadPool pool(8);
  return pool;
}

util::ThreadPool& narrow_pool() {
  static util::ThreadPool pool(1);
  return pool;
}

qaoa2::Qaoa2Options qaoa2_options(const Scenario& s,
                                  util::ThreadPool& pool = wide_pool()) {
  qaoa2::Qaoa2Options opts;
  opts.max_qubits = s.max_qubits;
  opts.sub_solver_spec = s.spec;
  opts.deeper_solver_spec = s.deeper_spec;
  opts.merge_solver_spec = s.merge_spec;
  // Keep the base defaults that specs refine cheap: the fuzzer's job is
  // coverage, not solution quality.
  opts.qaoa.layers = 1;
  opts.qaoa.max_iterations = 8;
  opts.qaoa.shots = 64;
  opts.gw.slicings = 6;
  opts.seed = s.solve_seed;
  opts.engine.pool = &pool;
  return opts;
}

void check_qaoa2_counts(const Graph& g, const qaoa2::Qaoa2Result& r,
                        std::vector<Violation>& out) {
  int parts = 0;
  for (const qaoa2::LevelStats& ls : r.level_stats) parts += ls.num_parts;
  if (parts != r.subgraphs_total) {
    add(out, "counts",
        "sum of per-level num_parts " + std::to_string(parts) +
            " != subgraphs_total " + std::to_string(r.subgraphs_total));
  }
  if (static_cast<int>(r.level_stats.size()) != r.levels) {
    add(out, "counts",
        "levels " + std::to_string(r.levels) + " != level_stats size " +
            std::to_string(r.level_stats.size()));
  }
  for (std::size_t i = 1; i < r.level_stats.size(); ++i) {
    if (r.level_stats[i].level <= r.level_stats[i - 1].level) {
      add(out, "counts", "level_stats not strictly ascending");
      break;
    }
  }
  if (!r.level_stats.empty()) {
    if (r.level_stats.front().level != 0) {
      add(out, "counts", "first level_stats entry is not level 0");
    } else if (std::abs(r.level_stats.front().level_cut - r.cut.value) >
               cut_tolerance(g)) {
      // Level 0's graph is the input graph (aggregated over components), so
      // its post-merge cut is the final cut.
      add(out, "counts",
          "level-0 cut " + fmt(r.level_stats.front().level_cut) +
              " != final cut " + fmt(r.cut.value));
    }
  }
  const auto components = graph::connected_components(g);
  if (g.num_nodes() > 0 &&
      r.components != static_cast<int>(components.size())) {
    add(out, "counts",
        "reported components " + std::to_string(r.components) + " != " +
            std::to_string(components.size()));
  }
  if (r.quantum_solves < 0 || r.classical_solves < 0 || r.engine_tasks < 0 ||
      r.subgraphs_total < 0) {
    add(out, "counts", "negative counter in Qaoa2Result");
  }
  if (g.num_nodes() >= 1 &&
      r.quantum_solves + r.classical_solves < r.subgraphs_total) {
    add(out, "counts",
        "fewer solves (" +
            std::to_string(r.quantum_solves + r.classical_solves) +
            ") than subgraphs (" + std::to_string(r.subgraphs_total) + ")");
  }
  if (!std::isfinite(r.solve_seconds) || r.solve_seconds < 0.0 ||
      !std::isfinite(r.queue_wait_seconds) || r.queue_wait_seconds < 0.0) {
    add(out, "counts", "non-finite or negative timing in Qaoa2Result");
  }
}

bool same_result(const qaoa2::Qaoa2Result& a, const qaoa2::Qaoa2Result& b) {
  if (a.cut.value != b.cut.value || a.cut.assignment != b.cut.assignment ||
      a.levels != b.levels || a.subgraphs_total != b.subgraphs_total ||
      a.quantum_solves != b.quantum_solves ||
      a.classical_solves != b.classical_solves ||
      a.components != b.components ||
      a.level_stats.size() != b.level_stats.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.level_stats.size(); ++i) {
    if (a.level_stats[i].level != b.level_stats[i].level ||
        a.level_stats[i].num_parts != b.level_stats[i].num_parts ||
        a.level_stats[i].level_cut != b.level_stats[i].level_cut) {
      return false;
    }
  }
  return true;
}

void check_qaoa2_scenario(const Scenario& s, const OracleOptions& opts,
                          std::vector<Violation>& out) {
  const Graph& g = s.graph;
  qaoa2::Qaoa2Result main_run;
  try {
    main_run = qaoa2::solve_qaoa2(g, qaoa2_options(s));
  } catch (const std::exception& e) {
    add(out, "solve_throws", std::string("qaoa2 threw: ") + e.what());
    return;
  } catch (...) {
    add(out, "solve_throws", "qaoa2 threw a non-std exception");
    return;
  }

  check_cut(g, main_run.cut, "qaoa2", out);
  check_qaoa2_counts(g, main_run, out);

  if (opts.check_schedule_parity) {
    try {
      const qaoa2::Qaoa2Result serial =
          qaoa2::solve_qaoa2(g, qaoa2_options(s, narrow_pool()));
      if (!same_result(main_run, serial)) {
        add(out, "schedule_parity",
            "width-8 (" + fmt(main_run.cut.value) + ") and width-1 (" +
                fmt(serial.cut.value) +
                ") engine pools disagree (value, assignment, or stats)");
      }
    } catch (const std::exception& e) {
      add(out, "schedule_parity",
          std::string("width-1 pool threw where width 8 succeeded: ") +
              e.what());
    }
  }

  if (opts.check_determinism) {
    const qaoa2::Qaoa2Result again = qaoa2::solve_qaoa2(g, qaoa2_options(s));
    if (!same_result(main_run, again)) {
      add(out, "determinism",
          "same-seed qaoa2 runs disagree: " + fmt(main_run.cut.value) +
              " then " + fmt(again.cut.value));
    }
  }

  if (opts.check_cache_coherence) {
    // Routing every leaf/coarse solve through a seed-sensitive cache must
    // not perturb the pipeline: the cold (filling) run and the warm
    // (hit-serving) rerun both match the uncached result bit-for-bit.
    cache::SolveCache cache;
    qaoa2::Qaoa2Options copts = qaoa2_options(s);
    copts.solve_cache = &cache;
    try {
      const qaoa2::Qaoa2Result cold = qaoa2::solve_qaoa2(g, copts);
      if (!same_result(main_run, cold)) {
        add(out, "cache_coherence",
            "cache-enabled qaoa2 (" + fmt(cold.cut.value) +
                ") differs from the uncached run (" +
                fmt(main_run.cut.value) + ")");
      }
      const qaoa2::Qaoa2Result warm = qaoa2::solve_qaoa2(g, copts);
      if (!same_result(main_run, warm)) {
        add(out, "cache_coherence",
            "hit-serving cache-enabled qaoa2 (" + fmt(warm.cut.value) +
                ") differs from the uncached run (" +
                fmt(main_run.cut.value) + ")");
      }
    } catch (const std::exception& e) {
      add(out, "cache_coherence",
          std::string("cache-enabled qaoa2 threw: ") + e.what());
    }
  }

  check_exact_and_relabel(
      s, opts, main_run.cut,
      [&](const Graph& h) { return qaoa2::solve_qaoa2(h, qaoa2_options(s)).cut; },
      out);
}

}  // namespace

double cut_tolerance(const graph::Graph& g) {
  double scale = 1.0;
  for (const graph::Edge& e : g.edges()) scale += std::abs(e.w);
  return 1e-9 * scale;
}

std::vector<Violation> check_scenario(const Scenario& scenario,
                                      const OracleOptions& options) {
  std::vector<Violation> out;
  if (scenario.kind == ProbeKind::kSolver) {
    check_solver_scenario(scenario, options, out);
  } else {
    check_qaoa2_scenario(scenario, options, out);
  }
  return out;
}

std::vector<Violation> check_malformed_spec(const std::string& spec) {
  std::vector<Violation> out;
  // Overlong/deep-nest probes can be thousands of characters; keep the
  // diagnostics readable.
  const std::string shown =
      spec.size() <= 80
          ? spec
          : spec.substr(0, 80) + "...(" + std::to_string(spec.size()) +
                " chars)";
  try {
    const solver::SolverPtr solver =
        solver::SolverRegistry::global().make(spec);
    add(out, "spec_guard",
        "malformed spec '" + shown + "' built solver '" +
            std::string(solver ? solver->name() : "<null>") +
            "' instead of throwing");
  } catch (const std::invalid_argument&) {
    // expected
  } catch (const std::exception& e) {
    add(out, "spec_guard",
        "malformed spec '" + shown + "' threw " + e.what() +
            " instead of std::invalid_argument");
  } catch (...) {
    add(out, "spec_guard",
        "malformed spec '" + shown + "' threw a non-std exception");
  }
  return out;
}

std::string format_violations(const std::vector<Violation>& violations) {
  std::ostringstream os;
  for (const Violation& v : violations) {
    os << "  [" << v.oracle << "] " << v.details << '\n';
  }
  return os.str();
}

}  // namespace qq::fuzz
