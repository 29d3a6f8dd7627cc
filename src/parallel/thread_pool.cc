#include "parallel/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include "common/config.hh"

namespace streampim
{

unsigned
ThreadPool::defaultJobs()
{
    const auto env =
        Config::envInt("STREAMPIM_JOBS", 0, 0, Config::kMaxJobs);
    if (env > 0)
        return unsigned(env);
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

namespace
{
thread_local unsigned serial_depth = 0;
} // namespace

ThreadPool::SerialSection::SerialSection() { serial_depth++; }

ThreadPool::SerialSection::~SerialSection() { serial_depth--; }

bool
ThreadPool::inSerialSection()
{
    return serial_depth > 0;
}

unsigned
ThreadPool::resolveJobs(unsigned requested)
{
    if (serial_depth > 0)
        return 1;
    return requested > 0 ? requested : defaultJobs();
}

ThreadPool::JobSplit
ThreadPool::splitJobs(unsigned fanout)
{
    const unsigned budget = resolveJobs(0);
    JobSplit split;
    split.outer = std::clamp(fanout, 1u, budget);
    // Integer share: outer * inner <= budget by construction.
    split.inner = std::max(budget / split.outer, 1u);
    return split;
}

ThreadPool::ThreadPool(unsigned jobs)
    : jobs_(jobs > 0 ? jobs : defaultJobs())
{
    if (jobs_ == 1)
        return; // inline mode: no workers, submit() executes directly
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::recordException(std::exception_ptr e)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!first_error_)
        first_error_ = e;
}

void
ThreadPool::submit(std::function<void()> fn)
{
    if (jobs_ == 1) {
        try {
            fn();
        } catch (...) {
            recordException(std::current_exception());
        }
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            active_++;
        }
        try {
            task();
        } catch (...) {
            recordException(std::current_exception());
        }
        bool idle;
        {
            std::lock_guard<std::mutex> lock(mu_);
            active_--;
            idle = active_ == 0 && queue_.empty();
        }
        // Only the step to idle can satisfy wait(); any other
        // finish would wake the waiter for nothing.
        if (idle)
            idle_cv_.notify_all();
    }
}

void
ThreadPool::wait()
{
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(mu_);
        idle_cv_.wait(lock, [this] {
            return queue_.empty() && active_ == 0;
        });
        err = first_error_;
        first_error_ = nullptr;
    }
    if (err)
        std::rethrow_exception(err);
}

void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    ThreadPool pool(jobs);
    if (pool.jobs() == 1) {
        for (std::size_t i = 0; i < n; ++i)
            pool.submit([&, i] { fn(i); });
        pool.wait();
        return;
    }
    // One counter, many workers: each worker claims the next index
    // until the range drains. Cheaper than queueing n closures.
    std::atomic<std::size_t> next{0};
    const unsigned workers =
        unsigned(std::min<std::size_t>(pool.jobs(), n));
    for (unsigned w = 0; w < workers; ++w)
        pool.submit([&] {
            for (;;) {
                std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    return;
                fn(i);
            }
        });
    pool.wait();
}

} // namespace streampim
