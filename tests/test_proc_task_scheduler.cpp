#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "proc/task_scheduler.hpp"
#include "support/rng.hpp"

namespace peak::proc {
namespace {

using namespace std::chrono_literals;
using TimePoint = TaskScheduler::TimePoint;

/// Fabricated clock readings: the scheduler only compares them.
const TimePoint kT0 = TimePoint{} + 1h;

using Charge = TaskScheduler::Charge;

WorkerFailure failure_of(const std::string& signature) {
  WorkerFailure f;
  f.cls = ExitClass::kSignal;
  f.signature = signature;
  return f;
}

/// A lost worker, as the Supervisor and the Coordinator report it: the
/// task its slot held (if any) fails.
Charge lose(TaskScheduler& sched, std::size_t slot,
            const std::string& signature, TimePoint now) {
  const std::optional<std::size_t> held = sched.held(slot);
  return held ? sched.fail(slot, *held, failure_of(signature), now)
              : Charge::kRejected;
}

std::vector<std::size_t> as_vector(const std::deque<std::size_t>& d) {
  return {d.begin(), d.end()};
}

TEST(TaskScheduler, StaticDealGivesTaskIToSlotIModW) {
  TaskScheduler sched(7, 3, 3);
  EXPECT_EQ(as_vector(sched.queue(0)), (std::vector<std::size_t>{0, 3, 6}));
  EXPECT_EQ(as_vector(sched.queue(1)), (std::vector<std::size_t>{1, 4}));
  EXPECT_EQ(as_vector(sched.queue(2)), (std::vector<std::size_t>{2, 5}));
  EXPECT_TRUE(sched.pool().empty());
  EXPECT_EQ(sched.undecided(), 7u);
  // Each slot starts on the front of its own queue, as attempt 0.
  for (std::size_t s = 0; s < 3; ++s) {
    const auto d = sched.dispatch(s, kT0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->task, s);
    EXPECT_EQ(d->attempt, 0u);
    EXPECT_EQ(sched.held(s), s);
  }
}

TEST(TaskScheduler, WithoutSlotsEveryTaskWaitsInThePoolForAJoiner) {
  TaskScheduler sched(3, 0, 3);
  EXPECT_EQ(as_vector(sched.pool()), (std::vector<std::size_t>{0, 1, 2}));
  const std::size_t slot = sched.join();
  EXPECT_EQ(slot, 0u);
  for (std::size_t task = 0; task < 3; ++task) {
    const auto d = sched.dispatch(slot, kT0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->task, task);
    ASSERT_TRUE(sched.complete(slot, task, "r"));
  }
  EXPECT_FALSE(sched.dispatch(slot, kT0));
  EXPECT_EQ(sched.undecided(), 0u);
}

TEST(TaskScheduler, IdleSlotTakesThePoolThenStealsFromTheLongestQueueBack) {
  // Slot 0: 0 3 6 9, slot 1: 1 4 7 10, slot 2: 2 5 8.
  TaskScheduler sched(11, 3, 3);
  const std::size_t joiner = sched.join();
  ASSERT_EQ(joiner, 3u);
  ASSERT_TRUE(sched.dispatch(2, kT0));  // slot 2 holds task 2
  EXPECT_EQ(lose(sched, 2, "signal:9", kT0), Charge::kRetried);
  EXPECT_EQ(as_vector(sched.pool()), (std::vector<std::size_t>{2}));
  EXPECT_EQ(as_vector(sched.queue(2)), (std::vector<std::size_t>{5, 8}));
  const auto retry = sched.dispatch(joiner, kT0);
  ASSERT_TRUE(retry);
  EXPECT_EQ(retry->task, 2u);
  EXPECT_EQ(retry->attempt, 1u);
  ASSERT_TRUE(sched.complete(joiner, 2, "r"));
  // Pool empty: steal from the back of the longest sibling queue (ties
  // go to the first), never from the front the victim reaches first.
  // The lost worker's queue is stolen like any other.
  for (std::size_t expected : {9u, 10u, 6u, 7u, 3u, 4u, 8u}) {
    const auto stolen = sched.dispatch(joiner, kT0);
    ASSERT_TRUE(stolen);
    EXPECT_EQ(stolen->task, expected);
    ASSERT_TRUE(sched.complete(joiner, expected, "r"));
  }
  EXPECT_EQ(as_vector(sched.queue(0)), (std::vector<std::size_t>{0}));
  EXPECT_EQ(as_vector(sched.queue(1)), (std::vector<std::size_t>{1}));
  EXPECT_EQ(as_vector(sched.queue(2)), (std::vector<std::size_t>{5}));
}

TEST(TaskScheduler, FailedAttemptRequeuesWithTheNextAttemptNumber) {
  TaskScheduler sched(2, 1, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  EXPECT_EQ(sched.fail(0, 0, failure_of("task_error"), kT0 + 5ms),
            Charge::kRetried);
  // The slot's own queue comes before the pool.
  EXPECT_EQ(as_vector(sched.queue(0)), (std::vector<std::size_t>{1}));
  EXPECT_EQ(as_vector(sched.pool()), (std::vector<std::size_t>{0}));
  const auto own = sched.dispatch(0, kT0);
  ASSERT_TRUE(own);
  EXPECT_EQ(own->task, 1u);
  ASSERT_TRUE(sched.complete(0, 1, "one"));
  const auto retry = sched.dispatch(0, kT0);
  ASSERT_TRUE(retry);
  EXPECT_EQ(retry->task, 0u);
  EXPECT_EQ(retry->attempt, 1u);
  ASSERT_TRUE(sched.complete(0, 0, "zero"));
  const std::vector<TaskOutcome> outcomes = sched.take_outcomes();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].payload, "zero");
  EXPECT_EQ(outcomes[0].attempts, 2u);
  ASSERT_EQ(outcomes[0].failures.size(), 1u);
  EXPECT_EQ(outcomes[0].failures[0].task, 0u);
  EXPECT_EQ(outcomes[0].failures[0].attempt, 0u);
  EXPECT_DOUBLE_EQ(outcomes[0].failures[0].burned_wall_us, 5000.0);
  EXPECT_EQ(outcomes[1].attempts, 1u);
}

TEST(TaskScheduler, GivesUpAfterMaxAttemptsWithIdenticalSignatures) {
  TaskScheduler sched(1, 1, 3);
  for (std::size_t attempt = 0; attempt < 3; ++attempt) {
    const auto d = sched.dispatch(0, kT0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->attempt, attempt);
    EXPECT_EQ(lose(sched, 0, "signal:6", kT0),
              attempt < 2 ? Charge::kRetried : Charge::kGaveUp);
  }
  EXPECT_EQ(sched.undecided(), 0u);
  EXPECT_FALSE(sched.undispatched());
  EXPECT_FALSE(sched.dispatch(0, kT0));
  const std::vector<TaskOutcome> outcomes = sched.take_outcomes();
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 3u);
  ASSERT_EQ(outcomes[0].failures.size(), 3u);
  EXPECT_TRUE(outcomes[0].failures_identical());
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_EQ(outcomes[0].failures[i].attempt, i);
}

TEST(TaskScheduler, GivesUpAfterMaxAttemptsWithMixedSignatures) {
  TaskScheduler sched(1, 2, 2);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  EXPECT_EQ(lose(sched, 0, "signal:11", kT0), Charge::kRetried);
  ASSERT_TRUE(sched.dispatch(1, kT0));  // the other slot takes the retry
  EXPECT_EQ(lose(sched, 1, "timeout", kT0), Charge::kGaveUp);
  const std::vector<TaskOutcome> outcomes = sched.take_outcomes();
  EXPECT_FALSE(outcomes[0].ok);
  ASSERT_EQ(outcomes[0].failures.size(), 2u);
  EXPECT_FALSE(outcomes[0].failures_identical());
}

TEST(TaskScheduler, AcceptsAnAnswerOnlyFromTheSlotHoldingTheTask) {
  TaskScheduler sched(4, 2, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));  // slot 0 holds task 0
  EXPECT_FALSE(sched.complete(1, 0, "idle slot"));
  EXPECT_FALSE(sched.complete(0, 2, "queued, not held"));
  EXPECT_FALSE(sched.complete(0, 4, "out of range"));
  EXPECT_FALSE(sched.complete(
      0, std::numeric_limits<std::size_t>::max(), "out of range"));
  EXPECT_EQ(sched.fail(1, 0, failure_of("task_error"), kT0),
            Charge::kRejected);
  EXPECT_EQ(sched.fail(0, 1, failure_of("task_error"), kT0),
            Charge::kRejected);
  EXPECT_EQ(sched.held(0), 0u);
  EXPECT_EQ(sched.undecided(), 4u);
  ASSERT_TRUE(sched.complete(0, 0, "first"));
  EXPECT_FALSE(sched.complete(0, 0, "second"));  // the first result won
  EXPECT_EQ(sched.take_outcomes()[0].payload, "first");
}

TEST(TaskScheduler, StallDetectionComparesTheCallersTimes) {
  TaskScheduler sched(2, 2, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  EXPECT_FALSE(sched.stalled(0, kT0 + 10s, 10s));
  EXPECT_TRUE(sched.stalled(0, kT0 + 10s + 1ns, 10s));
  EXPECT_FALSE(sched.stalled(1, kT0 + 1h, 10s));  // holds nothing
  EXPECT_EQ(lose(sched, 0, "timeout", kT0 + 12s), Charge::kRetried);
  EXPECT_FALSE(sched.stalled(0, kT0 + 1h, 10s));
  const auto own = sched.dispatch(1, kT0 + 13s);
  ASSERT_TRUE(own);
  EXPECT_EQ(own->task, 1u);  // own queue first
  ASSERT_TRUE(sched.complete(1, 1, "r"));
  ASSERT_TRUE(sched.dispatch(1, kT0 + 20s));  // the requeued task 0
  EXPECT_FALSE(sched.stalled(1, kT0 + 25s, 10s));  // timed from re-dispatch
  ASSERT_TRUE(sched.complete(1, 0, "r"));
  EXPECT_DOUBLE_EQ(sched.take_outcomes()[0].failures[0].burned_wall_us,
                   12e6);
}

TEST(TaskScheduler, ALostWorkersQueueIsStolenWhenNoWorkerReplacesIt) {
  TaskScheduler sched(4, 2, 3);  // slot 0: 0 2, slot 1: 1 3
  ASSERT_TRUE(sched.dispatch(1, kT0));
  EXPECT_EQ(lose(sched, 1, "disconnect", kT0), Charge::kRetried);
  for (std::size_t expected : {0u, 2u, 1u, 3u}) {
    const auto d = sched.dispatch(0, kT0);
    ASSERT_TRUE(d);
    EXPECT_EQ(d->task, expected);  // own queue, the pool, then stolen
    ASSERT_TRUE(sched.complete(0, expected, "r"));
  }
  EXPECT_EQ(sched.undecided(), 0u);
}

// The three phases a forked worker can die in. The Supervisor refills a
// slot exactly when undispatched() is true after the loss.
TEST(TaskSchedulerDeath, WhileHoldingATaskChargesAndRequeuesIt) {
  TaskScheduler sched(2, 2, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  ASSERT_TRUE(sched.dispatch(1, kT0));
  EXPECT_EQ(lose(sched, 0, "signal:9", kT0), Charge::kRetried);
  EXPECT_TRUE(sched.undispatched());  // refill the slot
  EXPECT_EQ(as_vector(sched.pool()), (std::vector<std::size_t>{0}));
  const auto retry = sched.dispatch(0, kT0);
  ASSERT_TRUE(retry);
  EXPECT_EQ(retry->task, 0u);
  EXPECT_EQ(retry->attempt, 1u);
}

TEST(TaskSchedulerDeath, BetweenTasksWithWorkLeftChargesNothing) {
  TaskScheduler sched(4, 2, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  ASSERT_TRUE(sched.complete(0, 0, "r"));  // slot 0 still queues task 2
  ASSERT_TRUE(sched.dispatch(1, kT0));
  EXPECT_EQ(lose(sched, 0, "signal:9", kT0), Charge::kRejected);
  EXPECT_TRUE(sched.pool().empty());  // nothing requeued
  EXPECT_TRUE(sched.undispatched());  // refill the slot
  const auto next = sched.dispatch(0, kT0);
  ASSERT_TRUE(next);
  EXPECT_EQ(next->task, 2u);
  EXPECT_EQ(next->attempt, 0u);  // it never ran: no attempt charged
  ASSERT_TRUE(sched.complete(0, 2, "r"));
  EXPECT_TRUE(sched.take_outcomes()[2].failures.empty());
}

TEST(TaskSchedulerDeath, AfterTheLastResultCostsNothing) {
  TaskScheduler sched(2, 2, 3);
  ASSERT_TRUE(sched.dispatch(0, kT0));
  ASSERT_TRUE(sched.dispatch(1, kT0));
  ASSERT_TRUE(sched.complete(0, 0, "r"));
  EXPECT_FALSE(sched.dispatch(0, kT0));  // told to exit
  EXPECT_EQ(lose(sched, 0, "signal:9", kT0), Charge::kRejected);
  EXPECT_FALSE(sched.undispatched());  // no refill
  ASSERT_TRUE(sched.complete(1, 1, "r"));
  const std::vector<TaskOutcome> outcomes = sched.take_outcomes();
  for (const TaskOutcome& outcome : outcomes) {
    EXPECT_TRUE(outcome.ok);
    EXPECT_EQ(outcome.attempts, 1u);
    EXPECT_TRUE(outcome.failures.empty());
  }
}

/// Seeded scripts of join, dispatch, complete, fail (the slot stays),
/// drop (the worker is lost; the slot is refilled or abandoned) and
/// stall events, plus stray answers from slots that hold nothing or
/// something else. After every event each undecided task is in exactly
/// one place (a queue, the pool, or held by one slot); every script then
/// drains to one outcome per task, in task order.
TEST(TaskSchedulerProperty, EveryTaskStaysInExactlyOnePlace) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::uint64_t state = seed;
    auto pick = [&state](std::uint64_t n) {
      return static_cast<std::size_t>(support::splitmix64(state) % n);
    };
    const std::size_t tasks = 1 + pick(24);
    const std::size_t max_attempts = 1 + pick(3);
    std::size_t slots = pick(5);
    TaskScheduler sched(tasks, slots, max_attempts);
    std::vector<char> live(slots, 1);
    std::vector<char> decided(tasks, 0);
    TimePoint now = kT0;

    auto check = [&] {
      std::vector<int> places(tasks, 0);
      for (std::size_t s = 0; s < slots; ++s) {
        for (std::size_t t : sched.queue(s)) ++places.at(t);
        if (const auto held = sched.held(s)) ++places.at(*held);
      }
      for (std::size_t t : sched.pool()) ++places.at(t);
      std::size_t undecided = 0;
      for (std::size_t t = 0; t < tasks; ++t) {
        ASSERT_EQ(places[t] + decided[t], 1) << "task " << t;
        undecided += decided[t] ? 0 : 1;
      }
      ASSERT_EQ(sched.undecided(), undecided);
    };
    auto charged = [&](const std::optional<std::size_t>& held,
                       Charge charge) {
      ASSERT_EQ(charge != Charge::kRejected, held.has_value());
      if (charge == Charge::kGaveUp) decided[*held] = 1;
    };

    for (int step = 0; step < 160; ++step) {
      now += std::chrono::milliseconds(pick(40));
      std::vector<std::size_t> alive;
      for (std::size_t s = 0; s < slots; ++s)
        if (live[s]) alive.push_back(s);
      const std::size_t event = pick(8);
      if (alive.empty() || event == 0) {
        ASSERT_EQ(sched.join(), slots);
        ++slots;
        live.push_back(1);
        check();
        continue;
      }
      const std::size_t s = alive[pick(alive.size())];
      const std::optional<std::size_t> held = sched.held(s);
      switch (event) {
        case 1:
        case 2:
          if (!held) {
            const auto d = sched.dispatch(s, now);
            if (d) {
              ASSERT_FALSE(decided[d->task]);
              ASSERT_EQ(sched.held(s), d->task);
              ASSERT_LT(d->attempt, max_attempts);
            } else {
              ASSERT_FALSE(sched.undispatched());
            }
          }
          break;
        case 3:
          if (held) {
            const std::string payload = "r" + std::to_string(*held);
            ASSERT_TRUE(sched.complete(s, *held, payload));
            decided[*held] = 1;
          }
          break;
        case 4: {
          // Without a held task, fail() names some task and must refuse.
          const std::size_t task = held ? *held : pick(tasks);
          charged(held, sched.fail(s, task, failure_of("err"), now));
          break;
        }
        case 5:
          charged(held, lose(sched, s, "signal:9", now));
          live[s] = static_cast<char>(pick(2));  // refilled, or gone
          break;
        case 6:
          if (sched.stalled(s, now, 60ms)) {
            charged(held, lose(sched, s, "timeout", now));
            live[s] = static_cast<char>(pick(2));
          }
          break;
        default: {
          // A stray answer: any task but the one held, even out of range.
          std::size_t t = pick(tasks + 2);
          if (t == tasks + 1) t = std::numeric_limits<std::size_t>::max();
          if (held && t == *held) break;
          ASSERT_FALSE(sched.complete(s, t, "stray"));
          ASSERT_EQ(sched.fail(s, t, failure_of("stray"), now),
                    Charge::kRejected);
          break;
        }
      }
      check();
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Drain: a live slot must always reach an undecided task.
    if (std::find(live.begin(), live.end(), 1) == live.end()) {
      sched.join();
      ++slots;
      live.push_back(1);
    }
    while (sched.undecided() > 0) {
      bool progressed = false;
      for (std::size_t s = 0; s < slots; ++s) {
        if (!live[s]) continue;
        if (const auto held = sched.held(s)) {
          const std::string payload = "r" + std::to_string(*held);
          ASSERT_TRUE(sched.complete(s, *held, payload));
          decided[*held] = 1;
          progressed = true;
        } else if (sched.dispatch(s, now)) {
          progressed = true;
        }
      }
      ASSERT_TRUE(progressed);
      check();
    }
    const std::vector<TaskOutcome> outcomes = sched.take_outcomes();
    ASSERT_EQ(outcomes.size(), tasks);
    for (std::size_t t = 0; t < tasks; ++t) {
      const TaskOutcome& out = outcomes[t];
      if (out.ok) {
        EXPECT_EQ(out.payload, "r" + std::to_string(t));
        EXPECT_EQ(out.attempts, out.failures.size() + 1);
        EXPECT_LT(out.failures.size(), max_attempts);
      } else {
        EXPECT_EQ(out.failures.size(), max_attempts);
        EXPECT_EQ(out.attempts, max_attempts);
      }
      for (std::size_t a = 0; a < out.failures.size(); ++a) {
        EXPECT_EQ(out.failures[a].task, t);
        EXPECT_EQ(out.failures[a].attempt, a);
      }
    }
  }
}

}  // namespace
}  // namespace peak::proc
