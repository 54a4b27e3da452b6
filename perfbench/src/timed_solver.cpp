#include "timed_solver.hpp"

#include <atomic>
#include <memory>
#include <utility>

#include "solver/registry.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

thread_local SpanParent t_bound;
std::atomic<std::int64_t> g_active_span{-1};
std::atomic<std::int64_t> g_active_request{-1};

class TimedSolver final : public qq::solver::Solver {
 public:
  TimedSolver(qq::solver::SolverPtr inner, SpanParent bound)
      : inner_(std::move(inner)),
        span_name_("solver." + std::string(inner_->name())),
        bound_(bound) {}

  std::string_view name() const noexcept override { return inner_->name(); }
  qq::sched::ResourceKind resource_kind() const noexcept override {
    return inner_->resource_kind();
  }
  std::pair<int, int> solve_counts() const override {
    return inner_->solve_counts();
  }
  int warm_start_dimension() const noexcept override {
    return inner_->warm_start_dimension();
  }

 protected:
  // Evaluations are charged to the request context by both this wrapper's
  // and the inner solver's Solver::solve; harmless here because no
  // benchmark workload arms an evaluation budget.
  qq::solver::SolveReport do_solve(
      const qq::solver::SolveRequest& request) const override {
    SpanParent parent = bound_;
    if (parent.span < 0) {
      parent.span = g_active_span.load(std::memory_order_relaxed);
      parent.request = g_active_request.load(std::memory_order_relaxed);
    }
    const std::int64_t id =
        tracer().open(span_name_, now_s(), parent.span, parent.request);
    qq::solver::SolveReport report = inner_->solve(request);
    tracer().close(id, now_s(), report.evaluations);
    return report;
  }

 private:
  qq::solver::SolverPtr inner_;
  std::string span_name_;
  SpanParent bound_;
};

}  // namespace

void register_timed_solver() {
  auto& registry = qq::solver::SolverRegistry::global();
  if (registry.contains(kTimedSolver)) return;
  registry.register_solver(
      std::string(kTimedSolver),
      "benchmark timing wrapper: records a span around the wrapped spec",
      {{"<spec>", "the solver spec to wrap"}},
      [](const qq::solver::SolverRegistry& reg, std::string_view params,
         const qq::solver::SolverDefaults& defaults) -> qq::solver::SolverPtr {
        return std::make_unique<TimedSolver>(reg.make(params, defaults),
                                             t_bound);
      });
}

std::string timed_spec(std::string_view spec) {
  return std::string(kTimedSolver) + ":" + std::string(spec);
}

void bind_constructed_solvers(SpanParent parent) { t_bound = parent; }

void set_active_parent(SpanParent parent) {
  g_active_span.store(parent.span, std::memory_order_relaxed);
  g_active_request.store(parent.request, std::memory_order_relaxed);
}

}  // namespace perfbench
