// Engine behind mc::ModelChecker: a token-passing scheduler over a pool of
// real OS threads, a stateless DFS/random search over (schedule, read
// choice) decisions, and the hook implementations the catomic shim calls.
//
// Exactly one thread ever runs at a time — the "token" — so engine state
// needs no locking of its own; the token handoff (an atomic flag plus a
// mutex/condvar sleep fallback) provides the happens-before edges.  The
// handoff fast path spins briefly because an execution performs dozens of
// switches and the explorer runs up to hundreds of thousands of
// executions; parking on every switch would dominate the runtime.
//
// stash-lint: allow-file(raw-atomic, relaxed-order) -- the checker runtime
// sits *below* the catomic shim; its own token flags cannot be
// model-checked state, and their orderings are local to the handoff.
#include "mc/model_checker.hpp"

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "mc/hooks.hpp"
#include "mc/memory_model.hpp"

namespace stash::mc {

namespace {

/// Unwinds a model-checked thread when the execution ends early (bug found
/// or step cap hit).  Never escapes the engine.
struct Bailout {};

[[nodiscard]] const char* order_name(std::memory_order o) {
  switch (o) {
    case std::memory_order_relaxed: return "relaxed";
    case std::memory_order_consume: return "consume";
    case std::memory_order_acquire: return "acquire";
    case std::memory_order_release: return "release";
    case std::memory_order_acq_rel: return "acq_rel";
    case std::memory_order_seq_cst: return "seq_cst";
  }
  return "?";
}

[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Engine;
Engine* g_engine = nullptr;  // written only while all workers are parked
thread_local ThreadId tls_tid = kControllerThread;

/// One pooled OS thread.  go/exit form the token: set-then-notify on the
/// signalling side, spin-then-sleep on the waiting side.
struct WorkerSlot {
  std::thread th;
  std::mutex m;
  std::condition_variable cv;
  std::atomic<bool> go{false};
  std::atomic<bool> exit{false};
};

struct Decision {
  std::uint32_t n = 0;       // options at this point
  std::uint32_t base = 0;    // DFS counter (pre-rotation)
  std::uint32_t actual = 0;  // option actually taken
};

enum class Mode { kDfs, kRandom, kReplay };

class Engine {
 public:
  Engine(const Options& opts, Mode mode,
         std::vector<std::uint32_t> replay_schedule)
      : opts_(opts),
        mode_(mode),
        replay_schedule_(std::move(replay_schedule)),
        rng_(opts.seed) {}

  ~Engine() {
    for (std::size_t i = 0; i < n_workers_; ++i) {
      workers_[i]->exit.store(true, std::memory_order_relaxed);
      signal(*workers_[i]);
    }
    for (std::size_t i = 0; i < n_workers_; ++i)
      if (workers_[i]->th.joinable()) workers_[i]->th.join();
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Result explore(const std::function<Execution()>& make) {
    Result res;
    res.seed = opts_.seed;
    res.preemption_bound = opts_.preemption_bound;
    const std::uint64_t budget =
        mode_ == Mode::kReplay
            ? 1
            : (mode_ == Mode::kRandom ? opts_.random_iterations
                                      : opts_.max_executions);
    for (std::uint64_t i = 0; i < budget; ++i) {
      run_one(make);
      ++res.executions;
      if (abandoned_) ++res.abandoned;
      if (bug_found_) {
        res.bug_found = true;
        res.bug = bug_msg_;
        res.schedule = actuals_;
        break;
      }
      if (mode_ == Mode::kDfs && !dfs_backtrack()) {
        res.complete = true;
        break;
      }
    }
    if (mode_ == Mode::kReplay) {
      res.trace = render_trace();
      res.schedule = actuals_;
    }
    return res;
  }

  void enable_tracing() { tracing_ = true; }

  // ---- called from hooks (token holder only) ----

  void sched_point() {
    if (tls_tid == kControllerThread) return;
    // Hooks run inside destructors during Bailout unwinding (RAII lock
    // guards releasing on the way out); throwing there would terminate.
    // Let the in-flight exception finish — the execution is over anyway.
    const bool unwinding = std::uncaught_exceptions() > 0;
    if (bailing_) {
      if (unwinding) return;
      throw Bailout{};
    }
    if (++steps_ > opts_.max_steps) {
      abandoned_ = true;
      bailing_ = true;
      if (unwinding) return;
      throw Bailout{};
    }
    const ThreadId me = tls_tid;
    std::uint32_t options[kMaxModelThreads];
    std::uint32_t n = 0;
    options[n++] = me;  // staying put is always option 0
    const bool can_preempt =
        opts_.preemption_bound < 0 ||
        preemptions_ < static_cast<std::uint64_t>(opts_.preemption_bound);
    if (can_preempt) {
      for (std::uint32_t t = 0; t < n_threads_; ++t)
        if (t != me && !done_[t]) options[n++] = t;
    }
    const std::uint32_t pick = n == 1 ? 0 : decide(n);
    const ThreadId next = options[pick];
    if (next != me) {
      ++preemptions_;
      pass_token(next);
      wait_token(*workers_[me]);
      if (bailing_) throw Bailout{};
    }
  }

  std::uint32_t decide(std::uint32_t n) {
    std::uint32_t actual = 0;
    switch (mode_) {
      case Mode::kReplay: {
        if (depth_ >= replay_schedule_.size() || replay_schedule_[depth_] >= n)
          die("replay schedule does not match this scenario");
        actual = replay_schedule_[depth_];
        break;
      }
      case Mode::kRandom: {
        actual = static_cast<std::uint32_t>(rng_.next_below(n));
        break;
      }
      case Mode::kDfs: {
        if (depth_ < stack_.size()) {
          if (stack_[depth_].n != n)
            die("model-checked scenario is nondeterministic: decision "
                "fan-out changed between executions (wall clock or unseeded "
                "RNG in the test?)");
        } else {
          stack_.push_back(Decision{n, 0, 0});
        }
        const std::uint32_t rot =
            static_cast<std::uint32_t>(splitmix64(opts_.seed ^ depth_) % n);
        actual = (stack_[depth_].base + rot) % n;
        stack_[depth_].actual = actual;
        break;
      }
    }
    actuals_.push_back(actual);
    ++depth_;
    return actual;
  }

  void report_bug(const std::string& msg) {
    if (!bug_found_) {
      bug_found_ = true;
      bug_msg_ = msg;
    }
    bailing_ = true;
  }

  [[nodiscard]] ThreadId current() const { return tls_tid; }
  [[nodiscard]] bool bailing() const { return bailing_; }
  MemoryModel& model() { return model_; }
  [[nodiscard]] bool tracing() const { return tracing_; }

  void trace_line(const std::string& line) {
    trace_.push_back("  #" + std::to_string(trace_.size()) + " " + line);
  }

  [[nodiscard]] std::string thread_label() const {
    if (tls_tid == kControllerThread) return "C ";
    std::string label = "T";
    label += std::to_string(tls_tid);
    return label;
  }

 private:
  [[noreturn]] static void die(const char* what) {
    std::fprintf(stderr, "stash::mc::ModelChecker: %s\n", what);
    std::abort();
  }

  void run_one(const std::function<Execution()>& make) {
    model_.reset(kMaxModelThreads);
    depth_ = 0;
    steps_ = 0;
    preemptions_ = 0;
    bug_found_ = false;
    bailing_ = false;
    abandoned_ = false;
    bug_msg_.clear();
    actuals_.clear();
    trace_.clear();

    g_engine = this;
    Execution exec;
    try {
      exec = make();
    } catch (const Bailout&) {
    }
    if (exec.threads.size() > kMaxModelThreads)
      die("too many threads in scenario (kMaxModelThreads)");
    n_threads_ = static_cast<std::uint32_t>(exec.threads.size());
    exec_ = &exec;
    done_.assign(n_threads_, 0);
    ensure_workers(n_threads_);

    if (!bailing_ && n_threads_ > 0) {
      model_.spawn_threads_from_controller();
      // The first runnable thread is itself a scheduling decision.
      const std::uint32_t first =
          n_threads_ == 1 ? 0 : decide(n_threads_);
      finished_ = false;
      pass_token(first);
      std::unique_lock<std::mutex> lk(main_m_);
      main_cv_.wait(lk, [&] { return finished_; });
    }

    if (!bailing_ && exec.finally) {
      model_.join_all_into_controller();
      try {
        exec.finally();
      } catch (const Bailout&) {
      }
    }
    exec_ = nullptr;
    // Destroy thread closures (and the shared state they own) before
    // deactivating: var<T> teardown is hook-free either way.
    exec = Execution{};
    g_engine = nullptr;
  }

  bool dfs_backtrack() {
    while (!stack_.empty() && stack_.back().base + 1 >= stack_.back().n)
      stack_.pop_back();
    if (stack_.empty()) return false;
    ++stack_.back().base;
    return true;
  }

  void ensure_workers(std::uint32_t n) {
    // The slot must be fully installed before its thread starts: the worker
    // dereferences workers_[idx] immediately, and a push-into-vector here
    // would race slot installation (and buffer reallocation) against
    // earlier workers already parked on their own slots.
    while (n_workers_ < n) {
      const std::uint32_t idx = static_cast<std::uint32_t>(n_workers_);
      workers_[idx] = std::make_unique<WorkerSlot>();
      workers_[idx]->th = std::thread([this, idx] { worker_main(idx); });
      ++n_workers_;
    }
  }

  void worker_main(std::uint32_t idx) {
    tls_tid = idx;
    WorkerSlot& me = *workers_[idx];
    for (;;) {
      wait_token(me);
      if (me.exit.load(std::memory_order_relaxed)) return;
      run_thread(idx);
    }
  }

  void run_thread(std::uint32_t idx) {
    if (!bailing_) {
      try {
        (*exec_).threads[idx]();
      } catch (const Bailout&) {
      } catch (const std::exception& ex) {
        report_bug(std::string("unhandled exception in thread ") +
                   std::to_string(idx) + ": " + ex.what());
      } catch (...) {
        report_bug("unhandled non-std exception in thread " +
                   std::to_string(idx));
      }
    }
    done_[idx] = 1;
    std::uint32_t runnable[kMaxModelThreads];
    std::uint32_t n = 0;
    for (std::uint32_t t = 0; t < n_threads_; ++t)
      if (!done_[t]) runnable[n++] = t;
    if (n == 0) {
      {
        std::lock_guard<std::mutex> lk(main_m_);
        finished_ = true;
      }
      main_cv_.notify_one();
      return;
    }
    // A switch away from a finished thread is free (not a preemption).
    const std::uint32_t next =
        (bailing_ || n == 1) ? runnable[0] : runnable[decide(n)];
    pass_token(next);
  }

  static void signal(WorkerSlot& w) {
    w.go.store(true, std::memory_order_release);
    { std::lock_guard<std::mutex> lk(w.m); }  // orders store before wait check
    w.cv.notify_one();
  }

  void pass_token(std::uint32_t next) { signal(*workers_[next]); }

  static void wait_token(WorkerSlot& me) {
    for (int spin = 0; spin < 4096; ++spin) {
      if (me.go.load(std::memory_order_acquire)) {
        me.go.store(false, std::memory_order_relaxed);
        return;
      }
    }
    std::unique_lock<std::mutex> lk(me.m);
    me.cv.wait(lk, [&] { return me.go.load(std::memory_order_acquire); });
    me.go.store(false, std::memory_order_relaxed);
  }

  [[nodiscard]] std::string render_trace() const {
    std::string out;
    for (const std::string& line : trace_) {
      out += line;
      out += '\n';
    }
    return out;
  }

  const Options opts_;
  const Mode mode_;
  const std::vector<std::uint32_t> replay_schedule_;
  Rng rng_;
  MemoryModel model_;

  std::array<std::unique_ptr<WorkerSlot>, kMaxModelThreads> workers_;
  std::size_t n_workers_ = 0;
  std::vector<char> done_;
  std::uint32_t n_threads_ = 0;
  Execution* exec_ = nullptr;

  std::mutex main_m_;
  std::condition_variable main_cv_;
  bool finished_ = false;

  std::vector<Decision> stack_;
  std::size_t depth_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t preemptions_ = 0;
  bool bug_found_ = false;
  bool bailing_ = false;
  bool abandoned_ = false;
  std::string bug_msg_;
  std::vector<std::uint32_t> actuals_;
  bool tracing_ = false;
  std::vector<std::string> trace_;
};

[[nodiscard]] Engine& require_engine(const char* op) {
  if (g_engine == nullptr) {
    std::fprintf(stderr,
                 "stash::mc: %s outside a ModelChecker execution — construct "
                 "catomic state inside the make() factory\n",
                 op);
    std::abort();
  }
  return *g_engine;
}

}  // namespace

// ---- public API ----

std::string Result::schedule_string() const {
  std::ostringstream os;
  os << seed << ':' << preemption_bound << ':';
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (i != 0) os << ',';
    os << schedule[i];
  }
  return os.str();
}

ModelChecker::ModelChecker(Options opts) : opts_(opts) {}

Result ModelChecker::run(const std::function<Execution()>& make) {
  Result res;
  {
    Engine engine(opts_, opts_.random ? Mode::kRandom : Mode::kDfs, {});
    res = engine.explore(make);
  }
  if (res.bug_found && opts_.trace_failure) {
    Result replayed = replay(make, res);
    res.trace = std::move(replayed.trace);
  }
  return res;
}

Result ModelChecker::replay(const std::function<Execution()>& make,
                            const Result& failure) {
  Options opts;
  opts.seed = failure.seed;
  // The bound is part of the interleaving's identity: it decides which
  // scheduling points branch at all (see Result::preemption_bound).
  opts.preemption_bound = failure.preemption_bound;
  // Step budget must never cut a replay short: the original failing run
  // reached its bug within its own cap, and replay repeats it exactly.
  opts.max_steps = std::numeric_limits<std::uint64_t>::max();
  Engine engine(opts, Mode::kReplay, failure.schedule);
  engine.enable_tracing();
  Result res = engine.explore(make);
  res.seed = failure.seed;
  res.preemption_bound = failure.preemption_bound;
  return res;
}

Result ModelChecker::replay(const std::function<Execution()>& make,
                            const std::string& schedule_string) {
  Result failure;
  failure.seed = 1;
  std::string list = schedule_string;
  const std::size_t c1 = list.find(':');
  if (c1 != std::string::npos) {
    failure.seed = std::strtoull(list.substr(0, c1).c_str(), nullptr, 10);
    list = list.substr(c1 + 1);
    const std::size_t c2 = list.find(':');
    if (c2 != std::string::npos) {
      failure.preemption_bound =
          static_cast<int>(std::strtol(list.substr(0, c2).c_str(), nullptr, 10));
      list = list.substr(c2 + 1);
    }
  }
  std::istringstream is(list);
  std::string tok;
  while (std::getline(is, tok, ','))
    if (!tok.empty())
      failure.schedule.push_back(
          static_cast<std::uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
  return replay(make, failure);
}

void fail(const std::string& message) {
  Engine& e = require_engine("mc::fail");
  e.report_bug(message);
  throw Bailout{};
}

// ---- hooks (see mc/hooks.hpp for the contract) ----

void hook_atomic_init(const void* loc, const char* name, std::uint64_t bits) {
  Engine& e = require_engine("catomic construction");
  e.model().register_atomic(loc, name, bits, e.current());
}

std::uint64_t hook_atomic_load(const void* loc, std::memory_order order) {
  Engine& e = require_engine("catomic load");
  e.sched_point();
  const ThreadId tid = e.current();
  const std::vector<std::size_t> vis =
      e.model().visible_stores(loc, tid, order);
  // The controller (setup/finally) is fully synchronised, so it reads the
  // newest store; explored threads choose — a decision the DFS enumerates.
  std::size_t idx = vis.back();
  if (vis.size() > 1 && tid != kControllerThread)
    idx = vis[e.decide(static_cast<std::uint32_t>(vis.size()))];
  const std::uint64_t v = e.model().commit_load(loc, tid, idx, order);
  if (e.tracing())
    e.trace_line(e.thread_label() + " load  " + e.model().location_name(loc) +
                 "(" + order_name(order) + ") -> " + std::to_string(v) +
                 " [store#" + std::to_string(idx) + "]");
  return v;
}

void hook_atomic_store(const void* loc, std::uint64_t bits,
                       std::memory_order order) {
  Engine& e = require_engine("catomic store");
  e.sched_point();
  e.model().commit_store(loc, e.current(), bits, order);
  if (e.tracing())
    e.trace_line(e.thread_label() + " store " + e.model().location_name(loc) +
                 "(" + order_name(order) + ") <- " + std::to_string(bits));
}

std::uint64_t hook_rmw_begin(const void* loc, std::memory_order order) {
  Engine& e = require_engine("catomic rmw");
  (void)order;
  e.sched_point();
  return e.model().newest_value(loc);
}

void hook_rmw_commit(const void* loc, std::uint64_t bits,
                     std::memory_order order) {
  Engine& e = require_engine("catomic rmw");
  const std::uint64_t old = e.model().commit_rmw(loc, e.current(), bits, order);
  if (e.tracing())
    e.trace_line(e.thread_label() + " rmw   " + e.model().location_name(loc) +
                 "(" + order_name(order) + ") " + std::to_string(old) +
                 " -> " + std::to_string(bits));
}

void hook_rmw_fail(const void* loc, std::memory_order failure_order) {
  Engine& e = require_engine("catomic rmw");
  e.model().fail_rmw(loc, e.current(), failure_order);
  if (e.tracing())
    e.trace_line(e.thread_label() + " cas-fail " +
                 e.model().location_name(loc) + "(" +
                 order_name(failure_order) + ")");
}

void hook_fence(std::memory_order order) {
  Engine& e = require_engine("catomic fence");
  e.sched_point();
  e.model().fence(e.current(), order);
  if (e.tracing())
    e.trace_line(e.thread_label() + " fence(" + order_name(order) + ")");
}

void hook_var_init(const void* loc, const char* name) {
  if (g_engine == nullptr) return;  // var<T> is usable outside executions
  g_engine->model().register_var(loc, name);
}

namespace {
void var_access(const void* loc, bool is_write) {
  if (g_engine == nullptr) return;  // post-run inspection: plain access
  Engine& e = *g_engine;
  e.sched_point();
  if (e.bailing()) return;  // teardown during unwinding: nothing to check
  auto race = is_write ? e.model().var_write(loc, e.current())
                       : e.model().var_read(loc, e.current());
  if (e.tracing())
    e.trace_line(e.thread_label() + (is_write ? " write " : " read  ") +
                 e.model().location_name(loc) + " (non-atomic)");
  if (race.has_value()) {
    fail("data race on " + race->location + ": " + race->prior +
         " is unordered with " + race->current);
  }
}
}  // namespace

void hook_var_read(const void* loc) { var_access(loc, false); }
void hook_var_write(const void* loc) { var_access(loc, true); }

}  // namespace stash::mc
