// simlint: thread-launcher -- owns the scheduler worker pool; workers
// are joined by drain()

#include "serve/scheduler.hh"

#include <algorithm>

#include "common/json_reader.hh"
#include "common/logging.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"

namespace clustersim {
namespace serve {

/** One registered job; lives in jobs_ until its terminal callback. */
struct PointScheduler::Job {
    enum State : std::uint8_t { Pending, Done, Failed, Cancelled };

    std::uint64_t id = 0;
    std::string name;                 ///< preset (names the report)
    JobEvents events;
    std::vector<RunPoint> points;
    std::vector<std::string> cacheKeys; ///< "" = not cacheable
    std::vector<std::string> ikeys;     ///< in-flight dedup key
    std::vector<ReportEntry> entries;
    std::vector<std::uint8_t> state;
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t cacheHits = 0;
    std::size_t computed = 0;
    std::size_t warmHits = 0;
    std::size_t merged = 0;
    bool cancelRequested = false;

    std::size_t resolved() const { return done + failed + cancelled; }
    std::size_t total() const { return points.size(); }
};

/** One unit of worker work: one cold point and how to file it. */
struct PointScheduler::Task {
    std::string ikey;
    bool persist = false;             ///< store into the cache
    RunPoint point;
};

/** Shared state of one point being probed in the cache, queued or
 *  computed. */
struct PointScheduler::Inflight {
    std::uint64_t origin = 0;         ///< job that claimed the point
    bool probing = false;             ///< origin's start() reads the cache
    bool running = false;             ///< a worker claimed it
    /** (job, point index) pairs to deliver to; the origin job's pair
     *  is first until cancelled. */
    std::vector<std::pair<std::uint64_t, std::size_t>> waiters;
};

namespace {

/** Dedup key of a point that cannot be content-addressed: unique per
 *  (job, index), so the in-flight machinery applies uniformly but such
 *  points never alias anything. The '!' prefix cannot collide with a
 *  64-hex cache key. */
std::string
pseudoKey(std::uint64_t job, std::size_t index)
{
    return "!" + std::to_string(job) + ":" + std::to_string(index);
}

/** Pull the point-frame fields back out of a stored payload. */
void
payloadMetrics(const std::string &payload, std::string &benchmark,
               std::string &config, double &ipc, double &avg_active)
{
    JsonValue doc = parseJson(payload);
    benchmark = doc.at("benchmark").asString();
    config = doc.at("config").asString();
    const JsonValue &m = doc.at("metrics");
    ipc = m.at("ipc").numberOrNaN();
    avg_active = m.at("avg_active_clusters").numberOrNaN();
}

} // namespace

PointScheduler::PointScheduler(CacheStore &cache, Config cfg)
    : cache_(cache), cfg_(cfg)
{
    int workers = std::max(cfg_.workers, 1);
    workers_.reserve(static_cast<std::size_t>(workers));
    for (int i = 0; i < workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

PointScheduler::~PointScheduler()
{
    drain();
}

SubmitResult
PointScheduler::submit(const SubmitRequest &req, JobEvents events)
{
    SubmitResult out;

    bool known = false;
    for (const std::string &n : sweepPresetNames())
        known = known || n == req.preset;
    if (!known) {
        MutexLock lock(mutex_);
        stats_.jobsRejected++;
        out.errorCode = "unknown_preset";
        out.errorMessage = "unknown preset '" + req.preset + "'";
        return out;
    }

    // Expand and plan before taking the lock: preset expansion, the
    // sweep plan, and the per-point cache probes (a stat() each) are
    // far too heavy to run while workers wait to deliver. A submission
    // the backpressure bound then rejects wastes that work -- the
    // cheap side of the trade.
    auto job = std::make_unique<Job>();
    job->name = req.preset;
    job->events = std::move(events);
    job->points = makeSweepPreset(req.preset, req.warmup, req.measure);
    if (req.activeClusters != 0)
        for (RunPoint &p : job->points)
            p.cfg.activeClustersAtReset = req.activeClusters;
    std::vector<PlannedPoint> plan =
        planPoints(job->points, /*derive_seeds=*/true);

    std::size_t n = job->points.size();
    job->entries.resize(n);
    job->state.assign(n, Job::Pending);
    job->cacheKeys.reserve(n);
    std::size_t cached = 0;
    for (std::size_t i = 0; i < n; i++) {
        std::string key = cache_.keyFor(job->points[i], plan[i].label,
                                        plan[i].seed);
        if (cache_.contains(key))
            cached++;
        job->cacheKeys.push_back(std::move(key));
    }

    MutexLock lock(mutex_);
    if (draining_ || stop_) {
        stats_.jobsRejected++;
        out.errorCode = "shutting_down";
        out.errorMessage = "server is draining";
        return out;
    }
    if (jobs_.size() >= cfg_.maxActiveJobs) {
        stats_.jobsRejected++;
        out.errorCode = "busy";
        out.errorMessage =
            "job queue full (" + std::to_string(jobs_.size()) + " of " +
            std::to_string(cfg_.maxActiveJobs) + " active jobs)";
        return out;
    }

    // The id (and the pseudo-keys derived from it) exists only once
    // the job is admitted, so this tail stays under the lock.
    job->id = nextJob_++;
    job->ikeys.reserve(n);
    for (std::size_t i = 0; i < n; i++)
        job->ikeys.push_back(job->cacheKeys[i].empty()
                                 ? pseudoKey(job->id, i)
                                 : job->cacheKeys[i]);

    out.ok = true;
    out.job = job->id;
    out.points = n;
    out.cached = cached;
    stats_.jobsAccepted++;
    jobs_[job->id] = std::move(job);
    return out;
}

void
PointScheduler::start(std::uint64_t id)
{
    // Phase one (locked): claim every pending point before the cache
    // is read. A key another job is already probing, queueing or
    // computing is joined as a waiter; every other key gets an
    // in-flight entry owned by this job. A point another job finishes
    // while this one reads the disk is then either on disk already or
    // still in flight when it is claimed -- concurrent submissions
    // compute each point once.
    struct Claim {
        Task task;
        std::optional<std::string> payload;
    };
    std::vector<Claim> claims;
    {
        MutexLock lock(mutex_);
        auto jit = jobs_.find(id);
        if (jit == jobs_.end())
            return;
        Job &job = *jit->second;
        for (std::size_t idx = 0; idx < job.total(); idx++) {
            if (job.state[idx] != Job::Pending)
                continue;
            const std::string &ikey = job.ikeys[idx];
            auto it = inflight_.find(ikey);
            if (it != inflight_.end()) {
                it->second.waiters.emplace_back(id, idx);
                continue;
            }
            Inflight entry;
            entry.origin = id;
            entry.probing = true;
            entry.waiters.emplace_back(id, idx);
            inflight_[ikey] = std::move(entry);
            claims.push_back({Task{ikey, !job.cacheKeys[idx].empty(),
                                   job.points[idx]},
                              std::nullopt});
        }
    }

    // Phase two (unlocked): read every claimed point's cache entry.
    // Each load is a full payload read plus a sha256 verify, so a warm
    // resubmission of a large sweep must not hold the scheduler lock
    // while it touches the disk.
    for (Claim &c : claims)
        if (c.task.persist)
            c.payload = cache_.load(c.task.ikey);

    // Phase three (locked): deliver each hit, in submission order, to
    // every job waiting on it, then queue the misses, one task each.
    // A claim whose waiters all cancelled while we read the disk is
    // gone (or now belongs to a later job) and is skipped.
    MutexLock lock(mutex_);
    auto owned = [&](const Claim &c) CSIM_REQUIRES(mutex_) {
        auto it = inflight_.find(c.task.ikey);
        return it != inflight_.end() && it->second.probing &&
                       it->second.origin == id
                   ? it
                   : inflight_.end();
    };
    for (const Claim &c : claims) {
        auto it = owned(c);
        if (!c.payload || it == inflight_.end())
            continue;
        std::vector<std::pair<std::uint64_t, std::size_t>> waiters =
            std::move(it->second.waiters);
        inflight_.erase(it);
        for (const auto &w : waiters) {
            auto jit = jobs_.find(w.first);
            if (jit == jobs_.end())
                continue;
            Job &job = *jit->second;
            if (job.state[w.second] != Job::Pending)
                continue;
            deliverPayload(job, w.second, *c.payload, PointSource::Cache);
            maybeFinishLocked(w.first);
        }
    }
    std::size_t tasks = 0;
    for (Claim &c : claims) {
        auto it = owned(c);
        if (c.payload || it == inflight_.end())
            continue;
        it->second.probing = false;
        queue_.push_back(std::move(c.task));
        tasks++;
    }
    for (std::size_t i = 0; i < tasks; i++)
        workCv_.notify_one();
    maybeFinishLocked(id); // a job with no pending points is done now
}

bool
PointScheduler::cancel(std::uint64_t id)
{
    MutexLock lock(mutex_);
    auto jit = jobs_.find(id);
    if (jit == jobs_.end())
        return false;
    jit->second->cancelRequested = true;
    cancelPendingLocked(*jit->second);
    maybeFinishLocked(id);
    return true;
}

void
PointScheduler::drain()
{
    UniqueLock lock(mutex_);
    if (!draining_) {
        draining_ = true;
        // Drop everything not yet claimed by a worker: queued tasks
        // plus every pending point whose in-flight entry is not
        // running. Points a worker is computing right now finish and
        // deliver (and land in the cache) before shutdown.
        queue_.clear();
        std::vector<std::uint64_t> ids;
        ids.reserve(jobs_.size());
        for (const auto &kv : jobs_)
            ids.push_back(kv.first);
        for (std::uint64_t id : ids) {
            auto jit = jobs_.find(id);
            if (jit == jobs_.end())
                continue;
            Job &job = *jit->second;
            for (std::size_t i = 0; i < job.total(); i++) {
                if (job.state[i] != Job::Pending)
                    continue;
                auto it = inflight_.find(job.ikeys[i]);
                if (it != inflight_.end() && it->second.running)
                    continue; // will deliver before we stop
                detachWaiter(job.ikeys[i], id, i);
                job.state[i] = Job::Cancelled;
                job.cancelled++;
                stats_.pointsCancelled++;
            }
            maybeFinishLocked(id);
        }
    }
    idleCv_.wait(lock, [this]() CSIM_REQUIRES(mutex_) {
        return runningTasks_ == 0 && queue_.empty();
    });
    if (!stop_) {
        stop_ = true;
        workCv_.notify_all();
    }
    lock.unlock();
    for (std::thread &t : workers_)
        if (t.joinable())
            t.join();
}

ServeStats
PointScheduler::stats() const
{
    MutexLock lock(mutex_);
    return stats_;
}

void
PointScheduler::workerLoop()
{
    for (;;) {
        Task task;
        {
            UniqueLock lock(mutex_);
            workCv_.wait(lock, [this]() CSIM_REQUIRES(mutex_) {
                return stop_ || !queue_.empty();
            });
            if (queue_.empty()) {
                if (stop_)
                    return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
            runningTasks_++;
        }
        executeTask(task);
        {
            MutexLock lock(mutex_);
            runningTasks_--;
            if (runningTasks_ == 0 && queue_.empty())
                idleCv_.notify_all();
        }
    }
}

void
PointScheduler::executeTask(const Task &task)
{
    // Claim the point unless nobody wants it any more: an entry whose
    // waiters all cancelled is dropped here without simulating.
    {
        MutexLock lock(mutex_);
        auto it = inflight_.find(task.ikey);
        if (it == inflight_.end())
            return;
        if (it->second.waiters.empty()) {
            inflight_.erase(it);
            return;
        }
        it->second.running = true;
    }

    // ScopedPanicRethrow turns a panic inside the point (livelock
    // guard, construction assert) into a SimError that fails just this
    // point.
    SweepOptions opts;
    opts.threads = 1;
    opts.checkpoints = cfg_.checkpoints;
    SweepResult res;
    bool run_failed = false;
    std::string error;
    try {
        ScopedPanicRethrow rethrow;
        res = runSweep({task.point}, opts);
    } catch (const SimError &e) {
        run_failed = true;
        error = e.what();
    }

    std::string payload;
    bool warm = false;
    if (!run_failed) {
        const SweepRun &run = res.runs[0];
        payload = pointPayloadJson(run.result, run.seed, task.point.warmup,
                                   task.point.measure);
        warm = run.warmStart;
        if (task.persist)
            cache_.store(task.ikey, payload);
    }

    MutexLock lock(mutex_);
    auto it = inflight_.find(task.ikey);
    if (it == inflight_.end())
        return;
    std::uint64_t origin = it->second.origin;
    std::vector<std::pair<std::uint64_t, std::size_t>> waiters =
        std::move(it->second.waiters);
    inflight_.erase(it);
    for (const auto &w : waiters) {
        auto jit = jobs_.find(w.first);
        if (jit == jobs_.end())
            continue;
        Job &job = *jit->second;
        if (job.state[w.second] != Job::Pending)
            continue;
        if (run_failed) {
            deliverFailure(job, w.second, error);
        } else {
            deliverPayload(job, w.second, payload,
                           w.first == origin ? PointSource::Computed
                                             : PointSource::Merged);
            // A warm start benefits every waiter equally: each received
            // this point without its warmup being re-simulated.
            if (warm)
                job.warmHits++;
        }
        maybeFinishLocked(w.first);
    }
}

void
PointScheduler::deliverPayload(Job &job, std::size_t index,
                               const std::string &payload,
                               PointSource source)
{
    std::string benchmark, config;
    double ipc = 0.0, avg_active = 0.0;
    payloadMetrics(payload, benchmark, config, ipc, avg_active);

    job.entries[index] =
        ReportEntry{payload, ipc, avg_active, benchmark, config};
    job.state[index] = Job::Done;
    job.done++;
    switch (source) {
    case PointSource::Cache:
        job.cacheHits++;
        stats_.pointsFromCache++;
        break;
    case PointSource::Computed:
        job.computed++;
        stats_.pointsComputed++;
        break;
    case PointSource::Merged:
        job.merged++;
        stats_.pointsMerged++;
        break;
    }
    if (job.events.onPoint)
        job.events.onPoint(index, source, benchmark, config, ipc,
                           job.resolved(), job.total());
    // Callers run maybeFinishLocked() themselves: finishing erases the
    // job, which would dangle the reference they are iterating with.
}

void
PointScheduler::deliverFailure(Job &job, std::size_t index,
                               const std::string &message)
{
    job.state[index] = Job::Failed;
    job.failed++;
    stats_.pointsFailed++;
    if (job.events.onPointError)
        job.events.onPointError(index, message, job.resolved(),
                                job.total());
}

void
PointScheduler::detachWaiter(const std::string &key, std::uint64_t job,
                             std::size_t index)
{
    auto it = inflight_.find(key);
    if (it == inflight_.end())
        return;
    auto &waiters = it->second.waiters;
    waiters.erase(std::remove(waiters.begin(), waiters.end(),
                              std::make_pair(job, index)),
                  waiters.end());
    if (waiters.empty() && !it->second.running)
        inflight_.erase(it);
}

void
PointScheduler::cancelPendingLocked(Job &job)
{
    for (std::size_t i = 0; i < job.total(); i++) {
        if (job.state[i] != Job::Pending)
            continue;
        detachWaiter(job.ikeys[i], job.id, i);
        job.state[i] = Job::Cancelled;
        job.cancelled++;
        stats_.pointsCancelled++;
    }
}

void
PointScheduler::maybeFinishLocked(std::uint64_t id)
{
    auto jit = jobs_.find(id);
    if (jit == jobs_.end())
        return;
    Job &job = *jit->second;
    if (job.resolved() < job.total())
        return;

    std::string status = "ok";
    if (job.cancelled > 0)
        status = "cancelled";
    else if (job.failed > 0)
        status = "failed";

    std::string report;
    if (status == "ok")
        report = assembleSweepReport(job.name, job.entries);
    if (job.cancelRequested)
        stats_.jobsCancelled++;

    // Move the job out before the terminal callback so a reentrant
    // lookup can never observe a half-dead job.
    std::unique_ptr<Job> owned = std::move(jit->second);
    jobs_.erase(jit);
    if (owned->events.onDone)
        owned->events.onDone(status, report, owned->cacheHits,
                             owned->computed, owned->warmHits,
                             owned->merged, owned->failed,
                             owned->cancelled);
}

} // namespace serve
} // namespace clustersim
