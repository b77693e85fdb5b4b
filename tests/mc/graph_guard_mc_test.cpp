// Model-check of the graph guard protocol over RwSpinlock.
//
// exec::ParallelQueryEngine guards its StashGraph with one reader-writer
// spinlock, ParallelQueryEngine::graph_lock_: absorb takes the writer lock
// and updates cells+totals together; chunk tasks take the reader lock and
// must see a consistent pair.  Thread-safety annotations check lock
// acquisition at compile time; this test proves the part they cannot — that
// the lock's acquire/release orders actually create the happens-before
// edges the guard pattern assumes.  The var<T> race detector is the
// oracle: if mutual exclusion or reader/writer ordering were broken, the
// unsynchronised accesses would be reported as data races.

#include <gtest/gtest.h>

#include <memory>

#include "concurrency/rw_spinlock.hpp"
#include "mc/model_checker.hpp"

namespace stash {
namespace {

using concurrency::RwSpinlock;
using concurrency::var;

mc::Options guard_opts() {
  mc::Options o;
  o.preemption_bound = 2;
  o.max_executions = 400000;
  o.max_steps = 5000;
  return o;
}

// A two-field slice of the graph's guarded state.  Bounded try-lock loops
// keep the schedule tree finite; giving up is a legal outcome, the checker
// explores both.
struct GuardedState {
  RwSpinlock mu;
  var<int> cells{0, "graph.cells"};
  var<int> total{0, "graph.total"};
  int absorbed = 0;

  bool try_absorb() {
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (mu.try_lock()) {
        cells.store(cells.load() + 1);
        total.store(total.load() + 1);
        ++absorbed;
        mu.unlock();
        return true;
      }
    }
    return false;
  }

  // Returns false on lock timeout, fails the execution on inconsistency.
  bool try_query() {
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (mu.try_lock_shared()) {
        const int c = cells.load();
        const int t = total.load();
        mu.unlock_shared();
        MC_ASSERT_MSG(c == t, "reader saw torn cells/total pair");
        return true;
      }
    }
    return false;
  }
};

TEST(ModelCheckGraphGuardTest, WriterWriterExclusionHolds) {
  const mc::Result r = mc::ModelChecker(guard_opts()).run([] {
    auto st = std::make_shared<GuardedState>();
    mc::Execution e;
    e.threads.push_back([st] { (void)st->try_absorb(); });
    e.threads.push_back([st] { (void)st->try_absorb(); });
    e.finally = [st] {
      // Each successful absorb is fully applied: no lost updates, and the
      // race detector saw no unordered access on the way here.
      MC_ASSERT(st->cells.load() == st->absorbed);
      MC_ASSERT(st->total.load() == st->absorbed);
    };
    return e;
  });
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "executions=" << r.executions;
}

TEST(ModelCheckGraphGuardTest, ReaderSeesConsistentGuardedPair) {
  const mc::Result r = mc::ModelChecker(guard_opts()).run([] {
    auto st = std::make_shared<GuardedState>();
    mc::Execution e;
    e.threads.push_back([st] { (void)st->try_absorb(); });
    e.threads.push_back([st] { (void)st->try_query(); });
    return e;
  });
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
  EXPECT_TRUE(r.complete) << "executions=" << r.executions;
}

TEST(ModelCheckGraphGuardTest, RaiiGuardsCreateTheSameEdges) {
  const mc::Result r = mc::ModelChecker(guard_opts()).run([] {
    auto st = std::make_shared<GuardedState>();
    mc::Execution e;
    // Writer uses the RAII guard over the blocking lock: safe here because
    // the reader side never blocks, so the writer's spin is bounded.
    e.threads.push_back([st] {
      concurrency::RwSpinWriterLock l(st->mu);
      st->cells.store(st->cells.load() + 1);
      st->total.store(st->total.load() + 1);
    });
    e.threads.push_back([st] { (void)st->try_query(); });
    e.finally = [st] {
      MC_ASSERT(st->cells.load() == 1);
      MC_ASSERT(st->total.load() == 1);
    };
    return e;
  });
  EXPECT_FALSE(r.bug_found) << r.bug << "\n" << r.trace;
}

// Sensitivity check: the same oracle must catch an access that skips the
// guard.  This is what "audited the graph guards" means — the pass above
// is meaningful because this fails.
TEST(ModelCheckGraphGuardTest, UnguardedReadIsCaught) {
  const mc::Result r = mc::ModelChecker(guard_opts()).run([] {
    auto st = std::make_shared<GuardedState>();
    mc::Execution e;
    e.threads.push_back([st] { (void)st->try_absorb(); });
    e.threads.push_back([st] { (void)st->cells.load(); });  // no lock
    return e;
  });
  ASSERT_TRUE(r.bug_found) << "unguarded read was not detected";
  EXPECT_NE(r.bug.find("data race"), std::string::npos) << r.bug;
  EXPECT_NE(r.bug.find("graph.cells"), std::string::npos) << r.bug;
}

}  // namespace
}  // namespace stash
