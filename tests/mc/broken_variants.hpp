// Seeded-bug catalog for validating the model checker itself.
//
// Each primitive here comes in a correct flavour and a deliberately broken
// one, selected by a template/bool parameter.  The checker must FIND the
// bug in every broken flavour within a bounded schedule budget and must
// PASS the correct twin — that pair of obligations is what
// broken_variants_test.cpp asserts, and it is the evidence that a clean
// model-check of the real primitives (mpmc_ring, rw_spinlock) means
// something.
//
// The three bug shapes mirror the classic lock-free failure modes:
//   1. MissingReleasePublish — publication flag stored relaxed, so the
//      reader's acquire load synchronises with nothing: data race.
//   2. AbaStack — Treiber-style index stack whose pop CAS can't tell that
//      the head node was popped and re-pushed underneath it: double pop.
//   3. Seqlock — reader without the validating re-read/acquire fence
//      returns a torn pair.
//   4. ClaimFanout — the wall-clock engine's batch protocol with a chunk
//      that rings the gate only when the last chunk lands: the submitter
//      parked on an earlier chunk sleeps through its completion.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "concurrency/catomic.hpp"
#include "concurrency/wakeup_gate.hpp"
#include "mc/model_checker.hpp"

namespace stash::mc_tests {

using concurrency::catomic;
using concurrency::fence;
using concurrency::var;
using concurrency::WakeupGate;

// ---------------------------------------------------------------------------
// 1. Message-passing publish.  Broken: flag store is relaxed.
// ---------------------------------------------------------------------------
struct Publish {
  explicit Publish(bool broken) : broken_(broken) {}

  void write() {
    data.store(42);
    flag.store(1, broken_ ? std::memory_order_relaxed
                          : std::memory_order_release);
  }

  /// Returns the payload if the flag was observed, nullopt otherwise.
  /// Under the checker, reading `data` without a synchronising edge is
  /// reported as a data race.
  std::optional<int> read() {
    if (flag.load(std::memory_order_acquire) == 1) return data.load();
    return std::nullopt;
  }

  var<int> data{0, "pub.data"};
  catomic<int> flag{0, "pub.flag"};
  const bool broken_;
};

// ---------------------------------------------------------------------------
// 2. Treiber-style stack of pool indices.  Broken: untagged head CAS (ABA).
//    Correct twin packs a modification counter next to the index so a
//    popped-and-repushed head no longer compares equal.
// ---------------------------------------------------------------------------
class AbaStack {
 public:
  static constexpr std::int32_t kNodes = 3;
  static constexpr std::int32_t kEmpty = -1;
  static constexpr std::int32_t kGaveUp = -2;  // bounded retries, not a bug

  explicit AbaStack(bool tagged) : tagged_(tagged) {
    // Initial chain: head -> 2 -> 1 -> 0.
    next_[0].store(kEmpty, std::memory_order_relaxed);
    next_[1].store(0, std::memory_order_relaxed);
    next_[2].store(1, std::memory_order_relaxed);
    head_.store(pack(2, 0), std::memory_order_relaxed);
  }

  std::int32_t pop() {
    for (int attempt = 0; attempt < 6; ++attempt) {
      std::uint64_t h = head_.load(std::memory_order_acquire);
      const std::int32_t idx = index_of(h);
      if (idx == kEmpty) return kEmpty;
      const std::int32_t nxt =
          next_[static_cast<std::size_t>(idx)].load(std::memory_order_relaxed);
      // The ABA window: between the loads above and the CAS below, another
      // thread may pop this node and push it back; without the tag the CAS
      // still succeeds and installs a stale next pointer.
      if (head_.compare_exchange_strong(h, pack(nxt, tag_of(h) + 1),
                                        std::memory_order_acq_rel,
                                        std::memory_order_relaxed))
        return idx;
    }
    return kGaveUp;
  }

  void push(std::int32_t idx) {
    for (int attempt = 0; attempt < 6; ++attempt) {
      std::uint64_t h = head_.load(std::memory_order_relaxed);
      next_[static_cast<std::size_t>(idx)].store(index_of(h),
                                                 std::memory_order_relaxed);
      if (head_.compare_exchange_strong(h, pack(idx, tag_of(h) + 1),
                                        std::memory_order_release,
                                        std::memory_order_relaxed))
        return;
    }
  }

 private:
  [[nodiscard]] std::uint64_t pack(std::int32_t idx, std::uint32_t tag) const {
    // Broken flavour drops the tag — this is the whole bug.
    const std::uint32_t t = tagged_ ? tag : 0;
    return (static_cast<std::uint64_t>(t) << 32) |
           static_cast<std::uint32_t>(idx);
  }
  [[nodiscard]] static std::int32_t index_of(std::uint64_t h) {
    return static_cast<std::int32_t>(static_cast<std::uint32_t>(h));
  }
  [[nodiscard]] static std::uint32_t tag_of(std::uint64_t h) {
    return static_cast<std::uint32_t>(h >> 32);
  }

  catomic<std::uint64_t> head_{0, "stack.head"};
  std::array<catomic<std::int32_t>, kNodes> next_{
      catomic<std::int32_t>{0, "stack.next0"},
      catomic<std::int32_t>{0, "stack.next1"},
      catomic<std::int32_t>{0, "stack.next2"}};
  const bool tagged_;
};

// ---------------------------------------------------------------------------
// 3. Seqlock over a two-word payload (Boehm's fence formulation).
//    Broken reader: single pass, no acquire fence, no validating re-read —
//    it can return a torn (new, old) pair.
// ---------------------------------------------------------------------------
struct Seqlock {
  void write(std::uint32_t generation) {
    const std::uint32_t s = seq.load(std::memory_order_relaxed);
    seq.store(s + 1, std::memory_order_relaxed);  // odd: write in progress
    fence(std::memory_order_release);  // later stores publish the odd seq
    d1.store(generation, std::memory_order_relaxed);
    d2.store(generation, std::memory_order_relaxed);
    seq.store(s + 2, std::memory_order_release);
  }

  /// Correct reader: pair is (gen, gen) or nullopt (writer in flight).
  std::optional<std::pair<std::uint32_t, std::uint32_t>> read() {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint32_t s1 = seq.load(std::memory_order_acquire);
      if ((s1 & 1u) != 0) continue;
      const std::uint32_t a = d1.load(std::memory_order_relaxed);
      const std::uint32_t b = d2.load(std::memory_order_relaxed);
      fence(std::memory_order_acquire);
      const std::uint32_t s2 = seq.load(std::memory_order_relaxed);
      if (s1 == s2) return std::make_pair(a, b);
    }
    return std::nullopt;
  }

  /// Broken reader: trusts the first even sequence it sees.
  std::optional<std::pair<std::uint32_t, std::uint32_t>> read_torn() {
    const std::uint32_t s1 = seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) return std::nullopt;
    const std::uint32_t a = d1.load(std::memory_order_relaxed);
    const std::uint32_t b = d2.load(std::memory_order_relaxed);
    return std::make_pair(a, b);
  }

  catomic<std::uint32_t> seq{0, "seqlock.seq"};
  catomic<std::uint32_t> d1{0, "seqlock.d1"};
  catomic<std::uint32_t> d2{0, "seqlock.d2"};
};

// ---------------------------------------------------------------------------
// 4. Claimed chunk fan-out: the batch protocol of exec::ParallelQueryEngine
//    (fan_out / run_claimed / run_chunk / collect) over kChunks chunks.
//    Claim tasks take chunk indices from a shared cursor and publish each
//    chunk's state with a seq_cst store; the submitter settles the chunks
//    in order, running unclaimed ones itself and parking on the gate only
//    when none are left (prepare / re-check that chunk / commit), then
//    joins on the live claim-task count.
//
//    A real park is modelled as in wakeup_gate_mc_test.cpp: the submitter
//    records what it sleeps on and its ticket, then looks at the epoch
//    once.  Moved: commit_wait returns and it carries on.  Not moved: it
//    stays asleep for good, holding its waiter slot, and the thread ends.
//    Lost wakeup means a sleeper whose condition came true without the
//    epoch moving past its ticket.  It is checked at the notifier that
//    made it true, right after it rang the gate: the chunk the submitter
//    sleeps on, or the last claim task to exit.
//
//    Broken: run_chunk rings the gate only when a remaining-chunk counter
//    reaches 0, which suffices only for a submitter that waits for the
//    whole batch, not for one that waits chunk by chunk.
// ---------------------------------------------------------------------------
class ClaimFanout {
 public:
  static constexpr std::uint32_t kChunks = 3;
  static constexpr std::uint32_t kTasks = 2;
  static constexpr std::uint32_t kPending = 0;
  static constexpr std::uint32_t kDone = 1;
  /// sleeping_on value of a submitter parked in the join.
  static constexpr std::uint32_t kJoin = kChunks;

  explicit ClaimFanout(bool broken) : broken_(broken) {}

  /// A claim task's body: claim until none are left, then exit.
  void claim_task() {
    for (std::uint32_t i = claim(); i < kChunks; i = claim()) run_chunk(i);
    const bool last = live_.fetch_sub(1) == 1;
    ++exited_;
    gate_.notify_all();
    if (last) check_woken(kJoin);  // only the last exit ends the join
  }

  /// The submitter's collect: settle and fold in order, then join.
  void collect() {
    for (std::uint32_t i = 0; i < kChunks; ++i) {
      if (!settle(i)) return;  // asleep for good
      folded_ += output_[i].load();
    }
    while (live_.load() != 0) {
      const WakeupGate::Ticket ticket = gate_.prepare_wait();
      if (live_.load() == 0) {
        gate_.cancel_wait();
        break;
      }
      if (!park(kJoin, ticket)) return;
    }
    MC_ASSERT_MSG(exited_ == kTasks,
                  "evaluate returned with a claim task still live");
    returned_ = true;
  }

  /// Run in the execution's finally, after every thread ended.
  void check_final() const {
    for (std::uint32_t i = 0; i < kChunks; ++i)
      MC_ASSERT_MSG(runs_[i] == 1, "a chunk did not run exactly once");
    if (asleep_) {
      MC_ASSERT_MSG(gate_.epoch_approx() != ticket_,
                    "lost wakeup: the submitter sleeps with nothing left "
                    "to wake it");
    } else {
      MC_ASSERT_MSG(returned_, "submitter neither returned nor parked");
      MC_ASSERT_MSG(folded_ == 1 + 2 + 3, "fold missed a chunk's output");
      MC_ASSERT_MSG(gate_.waiters_approx() == 0, "waiter slot leaked");
    }
  }

 private:
  [[nodiscard]] std::uint32_t claim() {
    const std::uint32_t i = next_.fetch_add(1);
    return i < kChunks ? i : kChunks;
  }

  void run_chunk(std::uint32_t i) {
    MC_ASSERT_MSG(runs_[i] == 0, "chunk claimed twice");
    ++runs_[i];
    output_[i].store(static_cast<int>(i) + 1);
    state_[i].store(kDone);  // seq_cst: the notify's Dekker half
    if (!broken_ || remaining_.fetch_sub(1) == 1) gate_.notify_all();
    check_woken(i);
  }

  /// Chunk i's state is final on return true; false: asleep for good.
  bool settle(std::uint32_t i) {
    for (;;) {
      if (state_[i].load() == kDone) return true;
      if (const std::uint32_t k = claim(); k < kChunks) {
        run_chunk(k);
        continue;
      }
      const WakeupGate::Ticket ticket = gate_.prepare_wait();
      if (state_[i].load() == kDone) {
        gate_.cancel_wait();
        return true;
      }
      if (!park(i, ticket)) return false;
    }
  }

  /// commit_wait(ticket), modelled (see above).
  bool park(std::uint32_t on, WakeupGate::Ticket ticket) {
    asleep_ = true;
    sleeping_on_ = on;
    ticket_ = ticket;
    if (gate_.epoch_approx() == ticket) return false;
    asleep_ = false;
    gate_.commit_wait(ticket);  // returns at once: releases the slot
    return true;
  }

  /// The notifier of `on` just rang the gate: a submitter asleep on it
  /// must be able to wake.  The notifier's own epoch bump is visible to
  /// its relaxed read, so this never misfires on the correct protocol.
  void check_woken(std::uint32_t on) const {
    if (asleep_ && sleeping_on_ == on) {
      MC_ASSERT_MSG(gate_.epoch_approx() != ticket_,
                    "lost wakeup: the chunk the submitter sleeps on landed "
                    "without waking it");
    }
  }

  catomic<std::uint32_t> next_{0, "fanout.next"};
  catomic<std::uint32_t> live_{kTasks, "fanout.live"};
  catomic<std::uint32_t> remaining_{kChunks, "fanout.remaining"};
  std::array<catomic<std::uint32_t>, kChunks> state_{
      catomic<std::uint32_t>{kPending, "fanout.state0"},
      catomic<std::uint32_t>{kPending, "fanout.state1"},
      catomic<std::uint32_t>{kPending, "fanout.state2"}};
  std::array<var<int>, kChunks> output_{var<int>{0, "fanout.out0"},
                                        var<int>{0, "fanout.out1"},
                                        var<int>{0, "fanout.out2"}};
  WakeupGate gate_;
  const bool broken_;

  // Model bookkeeping (plain: the checker runs one thread at a time).
  std::array<int, kChunks> runs_{};
  std::uint32_t exited_ = 0;
  int folded_ = 0;
  bool returned_ = false;
  bool asleep_ = false;
  std::uint32_t sleeping_on_ = 0;
  WakeupGate::Ticket ticket_ = 0;
};

/// The submitter plus kTasks claim tasks over one batch.
inline std::function<mc::Execution()> claim_fanout_scenario(bool broken) {
  return [broken] {
    auto st = std::make_shared<ClaimFanout>(broken);
    mc::Execution e;
    e.threads.push_back([st] { st->collect(); });
    for (std::uint32_t t = 0; t < ClaimFanout::kTasks; ++t)
      e.threads.push_back([st] { st->claim_task(); });
    e.finally = [st] { st->check_final(); };
    return e;
  };
}

}  // namespace stash::mc_tests
