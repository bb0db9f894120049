/**
 * @file
 * Point scheduler of the sweep server: jobs in, streamed points out.
 *
 * A job is one submitted preset sweep. The scheduler expands it through
 * the canonical plan (sim/plan.hh), replays every point already in the
 * content-addressed cache, and queues the rest on a fixed worker pool,
 * one point per task, each run by runSweep(). Cold points wanted by
 * several concurrent jobs compute exactly once: the first job owns the
 * in-flight entry, later jobs attach as waiters and receive the same
 * payload bytes marked `merged`.
 *
 * Delivery is push-based: per-job callbacks fire under the scheduler
 * lock as points resolve, in resolution order, with a running
 * done/total count, and a terminal callback carries the assembled
 * report (byte-identical to `sweep --no-timing` output by
 * construction -- both sides are assembleSweepReport() over the same
 * payload bytes). Callbacks must not reenter the scheduler.
 *
 * Failure containment: each task runs under ScopedPanicRethrow, so a
 * point that would abort the process (no-commit livelock guard, a
 * construction assert) instead fails that point in-stream; the server
 * and every other job keep running. drain() is the graceful-shutdown
 * path: running tasks finish (and land in the cache), everything else
 * is cancelled.
 */

#ifndef CLUSTERSIM_SERVE_SCHEDULER_HH
#define CLUSTERSIM_SERVE_SCHEDULER_HH

// simlint: thread-launcher -- declares the scheduler's worker pool;
// the threads are launched and joined by scheduler.cc

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "sim/sweep.hh"

namespace clustersim {
namespace serve {

/** Per-job delivery callbacks; see the file comment for the contract. */
struct JobEvents {
    /** One point resolved successfully (`done` counts every resolved
     *  point of the job, in delivery order). */
    std::function<void(std::size_t index, PointSource source,
                       const std::string &benchmark,
                       const std::string &config, double ipc,
                       std::size_t done, std::size_t total)>
        onPoint;
    /** One point failed (panic/fatal contained to that point). */
    std::function<void(std::size_t index, const std::string &message,
                       std::size_t done, std::size_t total)>
        onPointError;
    /** Job finished: status is "ok" | "failed" | "cancelled"; report
     *  is non-empty only for "ok". warmHits counts computed/merged
     *  points whose warmup was restored from the checkpoint store. */
    std::function<void(const std::string &status,
                       const std::string &report, std::size_t cacheHits,
                       std::size_t computed, std::size_t warmHits,
                       std::size_t merged, std::size_t failed,
                       std::size_t cancelled)>
        onDone;
};

/** Outcome of PointScheduler::submit(). */
struct SubmitResult {
    bool ok = false;
    std::string errorCode;    ///< "unknown_preset" | "busy" | ...
    std::string errorMessage;
    std::uint64_t job = 0;
    std::size_t points = 0;   ///< total run points
    std::size_t cached = 0;   ///< points with an on-disk entry now
};

class PointScheduler
{
  public:
    struct Config {
        int workers = 1;
        /** Unfinished-job bound: submissions beyond it are rejected
         *  with a `busy` error (the backpressure contract). */
        std::size_t maxActiveJobs = 8;
        /**
         * Optional warmup-checkpoint store (sim/checkpoint.hh; not
         * owned, shared with concurrent users). Worker tasks then
         * restore persisted warmups instead of re-simulating them, and
         * concurrent cold jobs needing the same warmup compute it once
         * through the store's in-flight lease. Null disables.
         */
        WarmupCheckpointStore *checkpoints = nullptr;
    };

    PointScheduler(CacheStore &cache, Config cfg);
    ~PointScheduler();
    PointScheduler(const PointScheduler &) = delete;
    PointScheduler &operator=(const PointScheduler &) = delete;

    /**
     * Phase one: validate and register a job. Nothing is delivered yet
     * (the server sends its `accepted` frame between submit and start,
     * so the frame always precedes every point event).
     */
    SubmitResult submit(const SubmitRequest &req, JobEvents events)
        CSIM_EXCLUDES(mutex_);

    /** Phase two: replay cached points (synchronously, from this
     *  thread) and enqueue the rest. No-op on unknown ids. */
    void start(std::uint64_t job) CSIM_EXCLUDES(mutex_);

    /**
     * Cancel a job's pending points. Points a worker is computing right
     * now still finish into the cache (and into other jobs waiting on
     * them); only this job stops receiving. Returns false when the id
     * is unknown or already finished.
     */
    bool cancel(std::uint64_t job) CSIM_EXCLUDES(mutex_);

    /**
     * Graceful shutdown: reject new work, let running tasks finish and
     * deliver, cancel everything queued, join the workers. Idempotent;
     * also run by the destructor.
     */
    void drain() CSIM_EXCLUDES(mutex_);

    ServeStats stats() const CSIM_EXCLUDES(mutex_);

  private:
    struct Job;
    struct Task;
    struct Inflight;

    void workerLoop() CSIM_EXCLUDES(mutex_);
    void executeTask(const Task &task) CSIM_EXCLUDES(mutex_);
    void deliverPayload(Job &job, std::size_t index,
                        const std::string &payload, PointSource source)
        CSIM_REQUIRES(mutex_);
    void deliverFailure(Job &job, std::size_t index,
                        const std::string &message)
        CSIM_REQUIRES(mutex_);
    void detachWaiter(const std::string &key, std::uint64_t job,
                      std::size_t index) CSIM_REQUIRES(mutex_);
    void cancelPendingLocked(Job &job) CSIM_REQUIRES(mutex_);
    void maybeFinishLocked(std::uint64_t id) CSIM_REQUIRES(mutex_);

    // simlint-ignore(C001): reference to an internally-synchronized
    // store; never mutated through the scheduler lock
    CacheStore &cache_;
    // simlint-ignore(C001): immutable after construction
    Config cfg_;

    mutable Mutex mutex_;
    ConditionVariable workCv_;   ///< workers: queue or stop
    ConditionVariable idleCv_;   ///< drain: running tasks done
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_
        CSIM_GUARDED_BY(mutex_);
    std::map<std::string, Inflight> inflight_ CSIM_GUARDED_BY(mutex_);
    std::deque<Task> queue_ CSIM_GUARDED_BY(mutex_);
    // simlint-ignore(C001): written by the constructor, joined by
    // drain() after every worker observed stop_; never accessed while
    // a worker runs
    std::vector<std::thread> workers_;
    ServeStats stats_ CSIM_GUARDED_BY(mutex_);
    std::uint64_t nextJob_ CSIM_GUARDED_BY(mutex_) = 1;
    std::size_t runningTasks_ CSIM_GUARDED_BY(mutex_) = 0;
    bool draining_ CSIM_GUARDED_BY(mutex_) = false;
    bool stop_ CSIM_GUARDED_BY(mutex_) = false;
};

} // namespace serve
} // namespace clustersim

#endif // CLUSTERSIM_SERVE_SCHEDULER_HH
