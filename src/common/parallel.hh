/**
 * @file
 * Sweep-level parallelism substrate.
 *
 * Every headline result of the paper is a sweep — chips x voltages x
 * frequencies x workloads — and each operating point is an independent
 * simulation.  The experiment drivers fan those points out over a small
 * thread pool: each task constructs its own sim::System seeded by
 * deriveTaskSeed(baseSeed, taskIndex) and writes its result into a
 * pre-sized slot, so the output is bit-identical regardless of the
 * thread count (tests/test_parallel.cc asserts this).
 */

#ifndef PITON_COMMON_PARALLEL_HH
#define PITON_COMMON_PARALLEL_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace piton
{

/**
 * Decorrelated per-task seed for task `index` of a sweep seeded with
 * `base` (splitmix64 finalization over the pair).  Tasks at different
 * indices get independent noise/variation streams; the same
 * (base, index) pair always yields the same seed, which is what makes
 * parallel sweeps reproducible.
 */
std::uint64_t deriveTaskSeed(std::uint64_t base, std::uint64_t index);

/** Map a requested thread count to an actual one: 0 means "all
 *  hardware threads"; anything else is clamped to at least 1. */
unsigned resolveThreadCount(unsigned requested);

/**
 * Bounded MPMC queue of closures.  push() blocks while the queue is at
 * capacity (backpressure: a sweep with thousands of points never
 * materializes them all as queued closures); pop() blocks while it is
 * empty.  close() wakes everyone; pop() then drains the remaining
 * tasks and returns false once the queue is closed and empty.
 */
class BoundedTaskQueue
{
  public:
    explicit BoundedTaskQueue(std::size_t capacity);

    /** Returns false (and drops the task) if the queue was closed. */
    bool push(std::function<void()> task);
    /** Returns false when the queue is closed and fully drained. */
    bool pop(std::function<void()> &task);
    void close();

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const;

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notFull_;
    std::condition_variable notEmpty_;
    std::deque<std::function<void()>> tasks_;
    bool closed_ = false;
};

/**
 * Fixed-size worker pool over a BoundedTaskQueue.  submit() enqueues a
 * task (blocking on backpressure); wait() blocks until every submitted
 * task has finished and rethrows the first exception any task raised.
 * The destructor closes the queue and joins the workers.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned threads = 0,
                        std::size_t queue_capacity = 128);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    void submit(std::function<void()> task);
    void wait();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    BoundedTaskQueue queue_;
    std::vector<std::thread> workers_;

    std::mutex doneMutex_;
    std::condition_variable doneCv_;
    std::size_t pending_ = 0;
    std::exception_ptr firstError_;
};

/**
 * Run fn(0), fn(1), ..., fn(n-1) across `threads` workers (resolved by
 * resolveThreadCount).  Iterations must be independent; each should
 * write only to its own pre-sized output slot.  With threads <= 1 the
 * loop runs inline on the calling thread.  The first exception thrown
 * by any iteration is rethrown here after all workers stop.
 */
void parallelFor(std::size_t n, unsigned threads,
                 const std::function<void(std::size_t)> &fn);

} // namespace piton

#endif // PITON_COMMON_PARALLEL_HH
