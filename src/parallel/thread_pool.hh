/**
 * @file
 * A fixed-size worker thread pool and a blocking parallel-for.
 *
 * Sweep benches run every (platform, workload, config) grid cell as
 * an independent closure; each cell constructs its own simulator
 * instances, so cells share no mutable state and the pool needs no
 * more coordination than a work queue. Job count comes from
 * STREAMPIM_JOBS, defaulting to the hardware concurrency; 1 runs
 * everything inline on the calling thread, which is the fallback
 * when thread creation is unavailable and the configuration used by
 * the determinism check (STREAMPIM_JOBS=1 and =N must print
 * identical tables).
 */

#ifndef STREAMPIM_PARALLEL_THREAD_POOL_HH_
#define STREAMPIM_PARALLEL_THREAD_POOL_HH_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace streampim
{

/** Fixed-size pool executing submitted closures FIFO. */
class ThreadPool
{
  public:
    /** Spawn @p jobs workers; 0 means defaultJobs(). */
    explicit ThreadPool(unsigned jobs = 0);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue @p fn; runs inline immediately when jobs() == 1. */
    void submit(std::function<void()> fn);

    /**
     * Block until every submitted task has finished. Rethrows the
     * first exception a task raised, if any.
     */
    void wait();

    /** Worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * STREAMPIM_JOBS when set and positive, else the hardware
     * concurrency (>= 1).
     */
    static unsigned defaultJobs();

    /**
     * Effective job count for a component asked to run with
     * @p requested jobs (0 = defaultJobs()): the request, clamped to
     * 1 inside a SerialSection.
     */
    static unsigned resolveJobs(unsigned requested);

    /** A two-level (outer x inner) worker budget. */
    struct JobSplit
    {
        unsigned outer = 1; //!< concurrent devices / shards
        unsigned inner = 1; //!< engine jobs inside each device
    };

    /**
     * Split the resolved budget resolveJobs(0) across a device-level
     * fan-out of @p fanout concurrent shards: outer devices run at
     * once, each with inner engine jobs, and outer * inner NEVER
     * exceeds the resolved budget — nested parallelism cannot
     * oversubscribe the pool. The outer level is min(fanout,
     * budget) (at least 1); inner is the integer share
     * budget / outer (>= 1). Inside a SerialSection both levels
     * collapse to 1.
     */
    static JobSplit splitJobs(unsigned fanout);

    /** True while a SerialSection is alive on this thread. */
    static bool inSerialSection();

    /**
     * RAII scope forcing resolveJobs() to 1 on the current thread.
     *
     * Used to take serial reference timings (and run determinism
     * re-checks) without replumbing a jobs=1 override through every
     * layer: any component that sizes a pool via resolveJobs() runs
     * inline while the section is alive. Thread-local and nestable.
     */
    class SerialSection
    {
      public:
        SerialSection();
        ~SerialSection();
        SerialSection(const SerialSection &) = delete;
        SerialSection &operator=(const SerialSection &) = delete;
    };

  private:
    void workerLoop();
    void recordException(std::exception_ptr e);

    unsigned jobs_;
    std::vector<std::thread> workers_;

    std::mutex mu_;
    std::condition_variable cv_;      //!< wakes workers
    std::condition_variable idle_cv_; //!< wakes wait()
    std::deque<std::function<void()>> queue_;
    std::size_t active_ = 0; //!< tasks currently executing
    bool stop_ = false;
    std::exception_ptr first_error_;
};

/**
 * Run fn(0..n-1) across @p jobs workers (0 = defaultJobs()) and
 * block until all complete. Iterations must be independent; the
 * first exception is rethrown after the join.
 */
void parallelFor(std::size_t n, unsigned jobs,
                 const std::function<void(std::size_t)> &fn);

} // namespace streampim

#endif // STREAMPIM_PARALLEL_THREAD_POOL_HH_
