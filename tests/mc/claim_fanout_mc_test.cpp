// Model-check of the claimed chunk fan-out: the batch protocol of
// exec::ParallelQueryEngine (DESIGN.md §13.1).  The submitter and two
// claim tasks share one batch of three chunks; the model and what it
// counts as a lost wakeup are described at ClaimFanout in
// broken_variants.hpp.  Proven here, exhaustively at a small preemption
// bound and by random walks beyond it:
//   * every chunk runs exactly once (claim cursor),
//   * the fold reads each chunk's output race-free (release publish of
//     the chunk state, acquire settle),
//   * no wakeup is lost, on a chunk or on the join (help-while-wait
//     settle and join on the WakeupGate),
//   * a no-deadline collect never returns with a claim task still live.
// broken_variants_test.cpp shows the checker catches the
// notify-only-on-the-last-chunk variant of the same protocol.

#include <gtest/gtest.h>

#include "broken_variants.hpp"
#include "mc/model_checker.hpp"

namespace stash {
namespace {

using mc_tests::claim_fanout_scenario;

TEST(ModelCheckClaimFanoutTest, ChunksRunOnceAndNoWakeupIsLost) {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_executions = 400000;
  o.max_steps = 5000;
  const mc::Result r = mc::ModelChecker(o).run(claim_fanout_scenario(false));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "executions=" << r.executions;
  EXPECT_GT(r.executions, 1000u);
}

TEST(ModelCheckClaimFanoutTest, RandomWalksBeyondThePreemptionBound) {
  mc::Options o;
  o.preemption_bound = -1;
  o.random = true;
  o.random_iterations = 5000;
  o.seed = 20261022;
  o.max_steps = 5000;
  const mc::Result r = mc::ModelChecker(o).run(claim_fanout_scenario(false));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_GT(r.executions, 1u);
}

}  // namespace
}  // namespace stash
