#pragma once
// In-memory span recorder of the traced run. Spans are measured from
// OUTSIDE the library: around Qaoa2Driver::solve / SolveService requests
// (roots), inside the solver-registry timing wrapper (children), and around
// every stage call of the replay phase. Nothing is written until the run
// ends; write_chrome_trace exports Chrome trace-event JSON that
// chrome://tracing and Perfetto open.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Index of the parent span; -1 for a root.
  std::int64_t parent = -1;
  /// Solve / request id the span belongs to; -1 for none.
  std::int64_t request = -1;
  /// A count the span carries (solver spans: objective evaluations).
  std::int64_t count = 0;
  int thread = 0;
};

class Tracer {
 public:
  /// Start a span at time `start`; returns its index. Thread-safe.
  std::int64_t open(std::string name, double start, std::int64_t parent = -1,
                    std::int64_t request = -1);
  /// End span `id` at time `end`. Thread-safe.
  void close(std::int64_t id, double end, std::int64_t count = 0);
  std::vector<Span> spans() const;

  /// Per root span named `root`: its duration minus the part of it that
  /// its direct children cover (children may overlap — they run on
  /// several engine slots — so the covered part is their union).
  std::vector<double> self_times(const std::string& root) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// The process-wide recorder.
Tracer& tracer();

/// Small stable id of the calling thread (trace `tid`).
int thread_index();

/// Times `f`, records it as span `name` under `parent`, returns seconds.
template <class F>
double timed_span(const char* name, std::int64_t parent, F&& f) {
  const double start = now_s();
  const std::int64_t id = tracer().open(name, start, parent);
  f();
  const double end = now_s();
  tracer().close(id, end);
  return end - start;
}

}  // namespace perfbench
