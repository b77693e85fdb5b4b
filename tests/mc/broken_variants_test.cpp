// Self-validation of the model checker against seeded bugs.
//
// For every broken flavour in broken_variants.hpp the checker must find
// the bug within a bounded schedule budget and the failing schedule must
// replay deterministically from its printed "<seed>:<choices>" token; the
// correct twin must survive an exhaustive search at the same bound.  This
// is the calibration that makes a clean check of the real primitives
// (mpmc_ring_mc_test.cpp, graph_guard_mc_test.cpp) evidence rather than
// absence of evidence.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "broken_variants.hpp"
#include "mc/model_checker.hpp"

namespace stash {
namespace {

using mc_tests::AbaStack;
using mc_tests::claim_fanout_scenario;
using mc_tests::Publish;
using mc_tests::Seqlock;

mc::Options budget_opts() {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_executions = 50000;  // the bounded budget every bug must fit in
  o.max_steps = 5000;
  return o;
}

/// Asserts that a failing result replays deterministically: same bug, and
/// byte-identical traces across two replays from the printed token.
void expect_deterministic_replay(const std::function<mc::Execution()>& make,
                                 const mc::Result& r) {
  ASSERT_TRUE(r.bug_found);
  ASSERT_FALSE(r.schedule_string().empty());
  const mc::Result a = mc::ModelChecker::replay(make, r.schedule_string());
  const mc::Result b = mc::ModelChecker::replay(make, r.schedule_string());
  ASSERT_TRUE(a.bug_found) << "replay lost the bug: " << r.schedule_string();
  EXPECT_EQ(a.bug, r.bug);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_FALSE(a.trace.empty());
}

// ---------------------------------------------------------------------------
// 1. Missing-release publish.
// ---------------------------------------------------------------------------
std::function<mc::Execution()> publish_scenario(bool broken) {
  return [broken] {
    auto st = std::make_shared<Publish>(broken);
    mc::Execution e;
    e.threads.push_back([st] { st->write(); });
    e.threads.push_back([st] { (void)st->read(); });
    return e;
  };
}

TEST(ModelCheckBrokenVariantsTest, MissingReleasePublishIsCaught) {
  const auto make = publish_scenario(/*broken=*/true);
  const mc::Result r = mc::ModelChecker(budget_opts()).run(make);
  ASSERT_TRUE(r.bug_found) << "checker missed the missing-release publish";
  EXPECT_NE(r.bug.find("race"), std::string::npos) << r.bug;
  EXPECT_LE(r.executions, budget_opts().max_executions);
  expect_deterministic_replay(make, r);
}

TEST(ModelCheckBrokenVariantsTest, ReleasePublishPasses) {
  const mc::Result r =
      mc::ModelChecker(budget_opts()).run(publish_scenario(/*broken=*/false));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete);
}

// ---------------------------------------------------------------------------
// 2. ABA pop.  Ownership conservation: every index popped and not pushed
//    back is owned by exactly one thread; the untagged CAS breaks this by
//    handing the same node to two owners.
// ---------------------------------------------------------------------------
struct AbaScenario {
  explicit AbaScenario(bool tagged) : stack(tagged) {}
  AbaStack stack;
  std::int32_t t1 = AbaStack::kGaveUp;
  std::int32_t a = AbaStack::kGaveUp;
  std::int32_t b = AbaStack::kGaveUp;
};

std::function<mc::Execution()> aba_scenario(bool tagged) {
  return [tagged] {
    auto st = std::make_shared<AbaScenario>(tagged);
    mc::Execution e;
    e.threads.push_back([st] { st->t1 = st->stack.pop(); });
    e.threads.push_back([st] {
      st->a = st->stack.pop();
      st->b = st->stack.pop();
      if (st->a >= 0) st->stack.push(st->a);  // the "A" coming back: ABA
    });
    e.finally = [st] {
      std::vector<std::int32_t> owned;
      if (st->t1 >= 0) owned.push_back(st->t1);
      if (st->b >= 0) owned.push_back(st->b);
      // st->a was pushed back, so it is not owned; drain what remains.
      for (int i = 0; i < AbaStack::kNodes + 1; ++i) {
        const std::int32_t v = st->stack.pop();
        if (v < 0) break;
        owned.push_back(v);
      }
      std::set<std::int32_t> distinct(owned.begin(), owned.end());
      MC_ASSERT_MSG(distinct.size() == owned.size(),
                    "node owned twice (ABA double pop)");
      for (const std::int32_t v : owned) {
        MC_ASSERT_MSG(v >= 0 && v < AbaStack::kNodes, "index out of pool");
      }
    };
    return e;
  };
}

TEST(ModelCheckBrokenVariantsTest, UntaggedPopAbaIsCaught) {
  const auto make = aba_scenario(/*tagged=*/false);
  const mc::Result r = mc::ModelChecker(budget_opts()).run(make);
  ASSERT_TRUE(r.bug_found) << "checker missed the ABA double pop";
  EXPECT_NE(r.bug.find("ABA"), std::string::npos) << r.bug;
  EXPECT_LE(r.executions, budget_opts().max_executions);
  expect_deterministic_replay(make, r);
}

TEST(ModelCheckBrokenVariantsTest, TaggedPopPasses) {
  const mc::Result r =
      mc::ModelChecker(budget_opts()).run(aba_scenario(/*tagged=*/true));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete);
}

// ---------------------------------------------------------------------------
// 3. Torn seqlock read.
// ---------------------------------------------------------------------------
std::function<mc::Execution()> seqlock_scenario(bool broken_reader) {
  return [broken_reader] {
    struct State {
      Seqlock s;
      std::optional<std::pair<std::uint32_t, std::uint32_t>> got;
    };
    auto st = std::make_shared<State>();
    mc::Execution e;
    e.threads.push_back([st] { st->s.write(1); });
    e.threads.push_back([st, broken_reader] {
      st->got = broken_reader ? st->s.read_torn() : st->s.read();
    });
    e.finally = [st] {
      if (st->got.has_value()) {
        MC_ASSERT_MSG(st->got->first == st->got->second, "torn seqlock read");
        MC_ASSERT(st->got->first <= 1);
      }
    };
    return e;
  };
}

TEST(ModelCheckBrokenVariantsTest, TornSeqlockReadIsCaught) {
  const auto make = seqlock_scenario(/*broken_reader=*/true);
  const mc::Result r = mc::ModelChecker(budget_opts()).run(make);
  ASSERT_TRUE(r.bug_found) << "checker missed the torn seqlock read";
  EXPECT_NE(r.bug.find("torn"), std::string::npos) << r.bug;
  EXPECT_LE(r.executions, budget_opts().max_executions);
  expect_deterministic_replay(make, r);
}

TEST(ModelCheckBrokenVariantsTest, ValidatingSeqlockReaderPasses) {
  const mc::Result r = mc::ModelChecker(budget_opts())
                           .run(seqlock_scenario(/*broken_reader=*/false));
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete);
}

// ---------------------------------------------------------------------------
// 4. Claimed chunk fan-out whose chunks ring the gate only when the last
//    one lands.  The correct twin is proven in claim_fanout_mc_test.cpp.
// ---------------------------------------------------------------------------
TEST(ModelCheckBrokenVariantsTest, NotifyOnlyOnLastChunkIsCaught) {
  const auto make = claim_fanout_scenario(/*broken=*/true);
  const mc::Result r = mc::ModelChecker(budget_opts()).run(make);
  ASSERT_TRUE(r.bug_found) << "checker missed the last-chunk-only notify";
  EXPECT_NE(r.bug.find("lost wakeup"), std::string::npos) << r.bug;
  EXPECT_LE(r.executions, budget_opts().max_executions);
  expect_deterministic_replay(make, r);
}

}  // namespace
}  // namespace stash
