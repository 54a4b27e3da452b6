#pragma once
// Recorded whole-result pins of the QAOA^2 pipeline and the helpers that
// check a result against them through both entries: the synchronous
// `solve_qaoa2` and `Qaoa2Driver::solve_async` on a caller-owned engine.
// The values were captured from the level-barrier recursive pipeline (one
// engine drain per level) before it was deleted; every seed is a pure
// function of (component, level, part), so the streaming pipeline must
// reproduce them bit-for-bit at any engine pool width.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "maxcut/cut.hpp"
#include "qaoa2/qaoa2.hpp"
#include "qgraph/graph.hpp"
#include "sched/engine.hpp"
#include "util/mutex.hpp"

namespace qq::testing {

struct LevelPin {
  int level;
  int num_parts;
  double level_cut;
};

struct Qaoa2Pin {
  double value;
  std::uint64_t bits;  ///< maxcut::bits_from_assignment of the cut
  int levels;
  int subgraphs_total;
  int quantum_solves;
  int classical_solves;
  std::vector<LevelPin> level_stats;
};

inline void expect_matches_pin(const qaoa2::Qaoa2Result& r,
                               const Qaoa2Pin& pin, const std::string& label) {
  EXPECT_EQ(r.cut.value, pin.value) << label;
  EXPECT_EQ(maxcut::bits_from_assignment(r.cut.assignment), pin.bits)
      << label;
  EXPECT_EQ(r.levels, pin.levels) << label;
  EXPECT_EQ(r.subgraphs_total, pin.subgraphs_total) << label;
  EXPECT_EQ(r.quantum_solves, pin.quantum_solves) << label;
  EXPECT_EQ(r.classical_solves, pin.classical_solves) << label;
  ASSERT_EQ(r.level_stats.size(), pin.level_stats.size()) << label;
  for (std::size_t i = 0; i < pin.level_stats.size(); ++i) {
    EXPECT_EQ(r.level_stats[i].level, pin.level_stats[i].level) << label;
    EXPECT_EQ(r.level_stats[i].num_parts, pin.level_stats[i].num_parts)
        << label << " level " << i;
    EXPECT_EQ(r.level_stats[i].level_cut, pin.level_stats[i].level_cut)
        << label << " level " << i;
  }
}

/// `solve_async` on a caller-owned engine built from `opts.engine`, waited
/// for the way a service waits: through the done callback, not drain()
/// (the last settle, which fires the callback, may run after drain()
/// returns). Rethrows the solve's error.
inline qaoa2::Qaoa2Result solve_async_and_wait(const graph::Graph& g,
                                               const qaoa2::Qaoa2Options& opts) {
  struct Outcome {
    util::Mutex mu;
    util::CondVar cv;
    bool done QQ_GUARDED_BY(mu) = false;
    qaoa2::Qaoa2Result result QQ_GUARDED_BY(mu);
    std::exception_ptr error QQ_GUARDED_BY(mu);
  };
  // Shared with the callback, so it outlives the callback's last access.
  const auto outcome = std::make_shared<Outcome>();
  const qaoa2::Qaoa2Driver driver(opts);
  sched::WorkflowEngine engine(opts.engine);
  driver.solve_async(engine, g, qaoa2::SolveTags{},
                     [outcome](qaoa2::Qaoa2Result r, std::exception_ptr err) {
                       util::MutexLock lock(outcome->mu);
                       outcome->result = std::move(r);
                       outcome->error = err;
                       outcome->done = true;
                       outcome->cv.notify_all();
                     });
  engine.drain();  // donate this thread to the solve
  util::MutexLock lock(outcome->mu);
  while (!outcome->done) outcome->cv.wait(lock);
  if (outcome->error) std::rethrow_exception(outcome->error);
  return std::move(outcome->result);
}

/// Check `pin` through both entries into the pipeline.
inline void expect_both_entries_match_pin(const graph::Graph& g,
                                          const qaoa2::Qaoa2Options& opts,
                                          const Qaoa2Pin& pin,
                                          const std::string& label) {
  expect_matches_pin(qaoa2::solve_qaoa2(g, opts), pin, label + " solve");
  expect_matches_pin(solve_async_and_wait(g, opts), pin,
                     label + " solve_async");
}

}  // namespace qq::testing
