/**
 * @file
 * Unit tests of the supervision building blocks: the bounded queue's
 * two backpressure policies and its counter merge, and the
 * sliding-window restart budget that decides between restart and
 * escalation.
 */

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "serve/sts_queue.h"
#include "serve/supervisor.h"

namespace
{

using namespace eddie;
using namespace eddie::serve;

core::Sts
numbered(std::size_t i)
{
    core::Sts sts;
    sts.t_start = double(i);
    return sts;
}

TEST(StsQueue, DropOldestEvictsAndCounts)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::DropOldest;
    StsQueue q(cfg);
    for (std::size_t i = 0; i < 4; ++i)
        ASSERT_TRUE(q.push(numbered(i)));
    // 0 and 1 were evicted to admit 2 and 3.
    EXPECT_DOUBLE_EQ(q.popFor(0.0)->t_start, 2.0);
    EXPECT_DOUBLE_EQ(q.popFor(0.0)->t_start, 3.0);
    EXPECT_FALSE(q.popFor(0.0).has_value());
    const QueueStats stats = q.stats();
    EXPECT_EQ(stats.dropped_oldest, 2u);
    EXPECT_EQ(stats.blocked_pushes, 0u);
    EXPECT_EQ(stats.pushed, 4u);
    EXPECT_EQ(stats.popped, 2u);
    EXPECT_EQ(stats.max_depth, 2u);
}

TEST(StsQueue, BlockPolicyLosesNothingAndCountsTheWait)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::Block;
    StsQueue q(cfg);
    constexpr std::size_t kTotal = 32;

    std::thread producer([&q] {
        for (std::size_t i = 0; i < kTotal; ++i)
            ASSERT_TRUE(q.push(numbered(i)));
        q.close();
    });
    // Don't pop until the producer has actually hit backpressure:
    // with nobody draining a capacity-2 queue it must block, and
    // waiting for that makes the blocked_pushes assertion immune to
    // scheduling (a fast consumer could otherwise keep the ring from
    // ever filling).
    while (q.stats().blocked_pushes == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::size_t expected = 0;
    while (true) {
        const auto sts = q.popFor(50.0);
        if (!sts) {
            if (q.drained())
                break;
            continue;
        }
        // Blocking backpressure preserves order and loses nothing.
        EXPECT_DOUBLE_EQ(sts->t_start, double(expected));
        ++expected;
    }
    producer.join();
    EXPECT_EQ(expected, kTotal);
    const QueueStats stats = q.stats();
    EXPECT_EQ(stats.dropped_oldest, 0u);
    EXPECT_GT(stats.blocked_pushes, 0u);
    EXPECT_LE(stats.max_depth, 2u);
}

TEST(StsQueue, CloseUnblocksAndFailsFurtherPushes)
{
    StsQueueConfig cfg;
    cfg.capacity = 1;
    StsQueue q(cfg);
    ASSERT_TRUE(q.push(numbered(0)));
    std::thread blocked([&q] {
        // Blocks on the full queue until close() wakes it.
        EXPECT_FALSE(q.push(numbered(1)));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
    blocked.join();
    EXPECT_FALSE(q.push(numbered(2)));
    // Closed queues still drain what they hold.
    EXPECT_TRUE(q.popFor(0.0).has_value());
    EXPECT_TRUE(q.drained());
}

TEST(StsQueue, PopBatchDrainsUpToMaxInOrder)
{
    StsQueueConfig cfg;
    cfg.capacity = 8;
    StsQueue q(cfg);
    for (std::size_t i = 0; i < 5; ++i)
        ASSERT_TRUE(q.push(numbered(i)));

    std::vector<core::Sts> batch;
    // Capped drain: takes exactly max_items, in FIFO order.
    EXPECT_EQ(q.popBatch(batch, 3, 0.0), 3u);
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(batch[i].t_start, double(i));
    // Remainder drains in one more call even though max_items is
    // larger than what's left.
    EXPECT_EQ(q.popBatch(batch, 16, 0.0), 2u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_DOUBLE_EQ(batch[0].t_start, 3.0);
    EXPECT_DOUBLE_EQ(batch[1].t_start, 4.0);
    // Empty + timeout 0: returns immediately with nothing.
    EXPECT_EQ(q.popBatch(batch, 16, 0.0), 0u);
    EXPECT_TRUE(batch.empty());
    EXPECT_EQ(q.stats().popped, 5u);
}

TEST(StsQueue, PopBatchWakesBlockedProducerAndSeesClose)
{
    StsQueueConfig cfg;
    cfg.capacity = 2;
    cfg.policy = BackpressurePolicy::Block;
    StsQueue q(cfg);
    constexpr std::size_t kTotal = 64;
    std::thread producer([&q] {
        for (std::size_t i = 0; i < kTotal; ++i)
            ASSERT_TRUE(q.push(numbered(i)));
        q.close();
    });

    std::vector<core::Sts> batch;
    std::size_t expected = 0;
    while (true) {
        if (q.popBatch(batch, 4, 50.0) == 0) {
            if (q.drained())
                break;
            continue;
        }
        for (const auto &sts : batch) {
            EXPECT_DOUBLE_EQ(sts.t_start, double(expected));
            ++expected;
        }
    }
    producer.join();
    // The single not_full_ wakeup per batch must keep the producer
    // moving: nothing lost, nothing reordered.
    EXPECT_EQ(expected, kTotal);
    EXPECT_EQ(q.stats().dropped_oldest, 0u);
}

TEST(RestartBudget, AllowsUpToBudgetWithinTheWindow)
{
    RestartBudget budget(3, 1000.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(10.0));
    EXPECT_TRUE(budget.allow(20.0));
    EXPECT_EQ(budget.used(20.0), 3u);
    // Fourth failure inside the window: escalate, permanently.
    EXPECT_FALSE(budget.allow(30.0));
    EXPECT_TRUE(budget.escalated());
    EXPECT_FALSE(budget.allow(99999.0));
}

TEST(RestartBudget, WindowExpiryRefundsRestarts)
{
    RestartBudget budget(2, 100.0);
    EXPECT_TRUE(budget.allow(0.0));
    EXPECT_TRUE(budget.allow(10.0));
    EXPECT_EQ(budget.used(50.0), 2u);
    // Both restarts have aged out of the trailing window.
    EXPECT_EQ(budget.used(200.0), 0u);
    EXPECT_TRUE(budget.allow(200.0));
    EXPECT_FALSE(budget.escalated());
}

TEST(RestartBudget, ZeroBudgetEscalatesImmediately)
{
    RestartBudget budget(0, 1000.0);
    EXPECT_FALSE(budget.allow(0.0));
    EXPECT_TRUE(budget.escalated());
}

/** Merging a replaced queue's counters keeps every count and both
 *  high-water marks; the queued-bytes gauge is the newer queue's. */
TEST(StsQueue, StatsMergeKeepsCountsAndHighWaterMarks)
{
    QueueStats acc;
    acc.pushed = 10;
    acc.popped = 9;
    acc.dropped_oldest = 1;
    acc.blocked_pushes = 2;
    acc.max_depth = 7;
    acc.spurious_wakeups = 3;
    acc.queued_bytes = 100;
    acc.max_queued_bytes = 900;
    QueueStats later;
    later.pushed = 5;
    later.popped = 4;
    later.dropped_oldest = 2;
    later.blocked_pushes = 1;
    later.max_depth = 3;
    later.spurious_wakeups = 1;
    later.queued_bytes = 40;
    later.max_queued_bytes = 1200;
    acc += later;
    EXPECT_EQ(acc.pushed, 15u);
    EXPECT_EQ(acc.popped, 13u);
    EXPECT_EQ(acc.dropped_oldest, 3u);
    EXPECT_EQ(acc.blocked_pushes, 3u);
    EXPECT_EQ(acc.max_depth, 7u);
    EXPECT_EQ(acc.spurious_wakeups, 4u);
    EXPECT_EQ(acc.queued_bytes, 40u);
    EXPECT_EQ(acc.max_queued_bytes, 1200u);
}

} // namespace
