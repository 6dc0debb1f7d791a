// Dedicated suite for service/DispatcherInbox: the arrival lane's FIFO
// order, backpressure and close/drain contract (producers observe the
// close, the consumer drains what was queued), the timed Wait outcomes,
// the shutdown races the dispatcher leans on, and the finished lane's
// wakeups: a finished job wakes the consumer whatever it waits for, an
// arrival only while it takes arrivals.

#include "service/inbox.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace frt {
namespace {

using std::chrono::milliseconds;
using std::chrono::seconds;
using std::chrono::steady_clock;
using Inbox = DispatcherInbox<int, int>;

/// Takes one arrival, waiting at most `timeout`.
InboxTake Take(Inbox& inbox, int* out,
               steady_clock::duration timeout = seconds(10)) {
  std::vector<int> finished;
  const InboxTake took =
      inbox.Wait(steady_clock::now() + timeout, true, &finished, out);
  EXPECT_TRUE(finished.empty());
  return took;
}

TEST(InboxTest, ArrivalsComeOutInFifoOrder) {
  Inbox inbox(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(inbox.Offer(i));
  EXPECT_EQ(inbox.queued(), 5u);
  for (int i = 0; i < 5; ++i) {
    int out = -1;
    ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(inbox.queued(), 0u);
}

TEST(InboxTest, FullLaneBlocksProducerUntilTaken) {
  Inbox inbox(1);
  ASSERT_TRUE(inbox.Offer(1));
  std::atomic<bool> offered{false};
  std::thread producer([&] {
    EXPECT_TRUE(inbox.Offer(2));
    offered = true;
  });
  // The producer must be blocked: capacity is 1 and nothing was taken.
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(offered.load());
  int out = -1;
  ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 1);
  producer.join();
  EXPECT_TRUE(offered.load());
  ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 2);
}

TEST(InboxTest, CloseFreesBlockedProducerWhichSeesFalse) {
  // The shutdown race of a dispatcher aborting mid-stream: a producer
  // blocked in Offer() on a full lane must return false (item dropped,
  // ownership stays with the producer), not hang and not enqueue.
  Inbox inbox(1);
  ASSERT_TRUE(inbox.Offer(1));
  std::atomic<int> result{-1};
  std::thread producer([&] { result = inbox.Offer(2) ? 1 : 0; });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(result.load(), -1);  // still blocked
  inbox.Close();
  producer.join();
  EXPECT_EQ(result.load(), 0);  // observed the close
  // The arrival accepted before the close is still taken, then the end.
  int out = -1;
  ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(Take(inbox, &out), InboxTake::kClosed);
}

TEST(InboxTest, ArrivalsQueuedBeforeCloseAreStillTaken) {
  Inbox inbox(8);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(inbox.Offer(i));
  inbox.Close();
  inbox.Close();  // idempotent
  EXPECT_FALSE(inbox.Offer(4));
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival)
        << "arrival " << i << " lost to the close";
    EXPECT_EQ(out, i);
  }
  // Closed-and-drained beats any wake time.
  int out = -1;
  EXPECT_EQ(Take(inbox, &out, milliseconds(50)), InboxTake::kClosed);
}

TEST(InboxTest, TimedWaitTimesOutOnOpenEmptyLane) {
  Inbox inbox(4);
  int out = -1;
  const auto start = steady_clock::now();
  EXPECT_EQ(Take(inbox, &out, milliseconds(30)), InboxTake::kNone);
  EXPECT_GE(steady_clock::now() - start, milliseconds(30));
}

TEST(InboxTest, TimedWaitReturnsArrivalOfferedBeforeTheWakeTime) {
  Inbox inbox(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    EXPECT_TRUE(inbox.Offer(42));
  });
  int out = -1;
  EXPECT_EQ(Take(inbox, &out, seconds(5)), InboxTake::kArrival);
  EXPECT_EQ(out, 42);
  producer.join();
}

TEST(InboxTest, TimedWaitTellsCloseApartFromTimeout) {
  // A consumer parked on a long wake time must wake promptly on Close()
  // and report kClosed, never kNone — conflating the two would make a
  // dispatcher treat "input over" as "feed slow" and spin forever.
  Inbox inbox(4);
  std::thread closer([&] {
    std::this_thread::sleep_for(milliseconds(10));
    inbox.Close();
  });
  int out = -1;
  const auto start = steady_clock::now();
  EXPECT_EQ(Take(inbox, &out, seconds(60)), InboxTake::kClosed);
  EXPECT_LT(steady_clock::now() - start, seconds(10));
  closer.join();
}

TEST(InboxTest, ManyProducersDrainFullyOnClose) {
  // Every arrival an Offer() accepted is taken exactly once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  Inbox inbox(16);
  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        if (inbox.Offer(p * kPerProducer + i)) accepted.fetch_add(1);
      }
    });
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  std::thread consumer([&] {
    int out = -1;
    while (Take(inbox, &out) == InboxTake::kArrival) ++seen[out];
  });
  for (auto& t : producers) t.join();
  inbox.Close();
  consumer.join();
  EXPECT_EQ(accepted.load(), kProducers * kPerProducer);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "arrival " << i;
  }
  EXPECT_EQ(inbox.queued(), 0u);
}

TEST(InboxTest, CloseRacingProducersLosesNoAcceptedArrival) {
  // Close fires mid-stream while producers are still offering: whatever
  // Offer() accepted must be taken, whatever it refused must not appear.
  // Several rounds shake out interleavings.
  for (int round = 0; round < 20; ++round) {
    Inbox inbox(4);
    std::atomic<int> accepted{0};
    std::vector<std::thread> producers;
    for (int p = 0; p < 3; ++p) {
      producers.emplace_back([&] {
        for (int i = 0; i < 100; ++i) {
          if (inbox.Offer(i)) accepted.fetch_add(1);
        }
      });
    }
    int taken = 0;
    std::thread consumer([&] {
      int out = -1;
      while (Take(inbox, &out) == InboxTake::kArrival) ++taken;
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    inbox.Close();
    for (auto& t : producers) t.join();
    consumer.join();
    EXPECT_EQ(taken, accepted.load()) << "round " << round;
  }
}

TEST(InboxTest, ZeroCapacityBecomesOne) {
  Inbox inbox(0);
  EXPECT_TRUE(inbox.Offer(7));  // a zero-capacity lane would block here
  std::atomic<bool> offered{false};
  std::thread producer([&] {
    EXPECT_TRUE(inbox.Offer(8));
    offered = true;
  });
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_FALSE(offered.load());  // one slot, and it is taken
  int out = -1;
  ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 7);
  producer.join();
  ASSERT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 8);
}

TEST(InboxTest, FinishedJobWakesAWaiterThatDoesNotTakeArrivals) {
  // The paused dispatcher: an arrival leaves it asleep, a finished job
  // wakes it long before its wake time.
  Inbox inbox(4);
  std::thread worker([&] {
    std::this_thread::sleep_for(milliseconds(10));
    EXPECT_TRUE(inbox.Offer(1));
    std::this_thread::sleep_for(milliseconds(10));
    inbox.Deliver(99);
  });
  std::vector<int> finished;
  int out = -1;
  const auto start = steady_clock::now();
  EXPECT_EQ(inbox.Wait(start + seconds(10), false, &finished, &out),
            InboxTake::kNone);
  EXPECT_LT(steady_clock::now() - start, seconds(5));
  EXPECT_EQ(finished, std::vector<int>{99});
  EXPECT_EQ(out, -1);
  EXPECT_EQ(inbox.queued(), 1u);  // the arrival waits for the next take
  worker.join();
}

TEST(InboxTest, FinishedJobWakesAWaiterThatTakesArrivals) {
  Inbox inbox(4);
  std::thread worker([&] {
    std::this_thread::sleep_for(milliseconds(10));
    inbox.Deliver(5);
  });
  std::vector<int> finished;
  int out = -1;
  const auto start = steady_clock::now();
  EXPECT_EQ(inbox.Wait(start + seconds(10), true, &finished, &out),
            InboxTake::kNone);
  EXPECT_LT(steady_clock::now() - start, seconds(5));
  EXPECT_EQ(finished, std::vector<int>{5});
  worker.join();
}

TEST(InboxTest, ArrivalDoesNotWakeAWaiterThatDoesNotTakeArrivals) {
  Inbox inbox(4);
  std::thread producer([&] {
    std::this_thread::sleep_for(milliseconds(5));
    EXPECT_TRUE(inbox.Offer(1));
  });
  std::vector<int> finished;
  int out = -1;
  const auto start = steady_clock::now();
  EXPECT_EQ(inbox.Wait(start + milliseconds(50), false, &finished, &out),
            InboxTake::kNone);
  EXPECT_GE(steady_clock::now() - start, milliseconds(50));
  EXPECT_TRUE(finished.empty());
  producer.join();
  EXPECT_EQ(inbox.queued(), 1u);
}

TEST(InboxTest, OneWaitTakesEveryFinishedJobAndOneArrival) {
  Inbox inbox(4);
  ASSERT_TRUE(inbox.Offer(1));
  ASSERT_TRUE(inbox.Offer(2));
  inbox.Deliver(10);
  inbox.Deliver(11);
  std::vector<int> finished{9};  // appended to, never overwritten
  int out = -1;
  EXPECT_EQ(inbox.Wait(steady_clock::now(), true, &finished, &out),
            InboxTake::kArrival);
  EXPECT_EQ(out, 1);
  EXPECT_EQ(finished, (std::vector<int>{9, 10, 11}));
  EXPECT_EQ(inbox.queued(), 1u);  // at most one arrival per wait
  // The finished lane never closes: jobs in flight still come home.
  inbox.Close();
  inbox.Deliver(12);
  finished.clear();
  EXPECT_EQ(inbox.Wait(steady_clock::now(), false, &finished, &out),
            InboxTake::kNone);
  EXPECT_EQ(finished, std::vector<int>{12});
  EXPECT_EQ(Take(inbox, &out), InboxTake::kArrival);
  EXPECT_EQ(out, 2);
  EXPECT_EQ(Take(inbox, &out), InboxTake::kClosed);
}

}  // namespace
}  // namespace frt
