#pragma once
// "perfbench-timed:<spec>" — a solver-registry entry that builds the real
// solver from <spec> and records a trace span around every
// Solver::solve call, so the traced run sees each leaf / coarse solve
// inside the unmodified QAOA^2 pipeline and solve service. The wrapper
// forwards name, resource kind, solve counts and warm-start dimension, so
// the pipeline schedules it exactly like the solver it wraps.

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

inline constexpr std::string_view kTimedSolver = "perfbench-timed";

/// Registers kTimedSolver with SolverRegistry::global() (idempotent).
void register_timed_solver();

/// `spec` wrapped in the timing solver.
std::string timed_spec(std::string_view spec);

/// Where the wrapper's spans attach: the root span and the request id.
struct SpanParent {
  std::int64_t span = -1;
  std::int64_t request = -1;
};

/// Wrappers constructed on THIS thread from now on attach to `parent`
/// (the service builds a request's solvers inside submit(), on the
/// submitting thread).
void bind_constructed_solvers(SpanParent parent);

/// Wrappers constructed unbound attach to the parent current at solve
/// time (closed loop: exactly one solve is in flight).
void set_active_parent(SpanParent parent);

}  // namespace perfbench
