/**
 * @file
 * Tests for the sweep server stack (src/serve/): sha256 and canonical
 * JSON primitives, the NDJSON protocol parser, the result cache's
 * point keys (sensitivity, salt invalidation; file-level store
 * behaviour is in test_store.cc), the point scheduler (dedup,
 * backpressure, cancel, drain, in-stream point failure via
 * ScopedPanicRethrow), and a black-box
 * conformance rig that spawns the real sweepd binary and talks to it
 * over a socket -- pinning the contract that a served report is
 * byte-identical to `sweep --no-timing` output and that a warm
 * resubmission is served from the cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/canonical_json.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "serve/cache.hh"
#include "serve/protocol.hh"
#include "serve/scheduler.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace clustersim;
using namespace clustersim::serve;

namespace {

/** Self-cleaning scratch directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/clustersim-serve-XXXXXX";
        char *p = mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        path_ = p != nullptr ? p : "";
    }

    ~TempDir()
    {
        if (path_.empty())
            return;
        DIR *d = opendir(path_.c_str());
        if (d != nullptr) {
            while (struct dirent *e = readdir(d)) {
                std::string name = e->d_name;
                if (name == "." || name == "..")
                    continue;
                std::string full = path_ + "/" + name;
                struct stat st = {};
                if (stat(full.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
                    // One level of nesting is all these tests create.
                    DIR *sub = opendir(full.c_str());
                    if (sub != nullptr) {
                        while (struct dirent *se = readdir(sub)) {
                            std::string sn = se->d_name;
                            if (sn != "." && sn != "..")
                                std::remove((full + "/" + sn).c_str());
                        }
                        closedir(sub);
                    }
                    rmdir(full.c_str());
                } else {
                    std::remove(full.c_str());
                }
            }
            closedir(d);
        }
        rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** Short smoke submission every scheduler/daemon test reuses. */
SubmitRequest
tinySmoke()
{
    SubmitRequest r;
    r.preset = "smoke";
    r.warmup = 500;
    r.measure = 2000;
    return r;
}

/** The CLI-side report the served one must match byte-for-byte. */
std::string
cliReport(const SubmitRequest &req)
{
    std::vector<RunPoint> points =
        makeSweepPreset(req.preset, req.warmup, req.measure);
    SweepOptions opts;
    opts.threads = 1;
    SweepResult res = runSweep(points, opts);
    return sweepReportJson(req.preset, points, res,
                           /*include_timing=*/false);
}

} // namespace

// ---------------------------------------------------------------------------
// sha256
// ---------------------------------------------------------------------------

TEST(Serve, Sha256KnownVectors)
{
    EXPECT_EQ(sha256Hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(sha256Hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(sha256Hex("abcdbcdecdefdefgefghfghighijhijk"
                        "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Serve, Sha256IncrementalMatchesOneShot)
{
    std::string msg(100000, 'q');
    for (std::size_t i = 0; i < msg.size(); i++)
        msg[i] = static_cast<char>('a' + (i % 23));
    Sha256 h;
    // Uneven chunk sizes cross every block boundary alignment.
    std::size_t off = 0, chunk = 1;
    while (off < msg.size()) {
        std::size_t n = std::min(chunk, msg.size() - off);
        h.update(msg.data() + off, n);
        off += n;
        chunk = (chunk * 7 + 3) % 97 + 1;
    }
    std::array<std::uint8_t, 32> d = h.digest();
    std::string hex;
    static const char *digits = "0123456789abcdef";
    for (std::uint8_t b : d) {
        hex.push_back(digits[b >> 4]);
        hex.push_back(digits[b & 0xf]);
    }
    EXPECT_EQ(hex, sha256Hex(msg));
}

// ---------------------------------------------------------------------------
// canonical JSON
// ---------------------------------------------------------------------------

TEST(Serve, CanonicalJsonSortsAndStripsCosmetics)
{
    EXPECT_EQ(canonicalJson("{ \"b\" : 1,\n  \"a\" : 2 }"),
              "{\"a\":2,\"b\":1}");
    // Array order is meaning, object order is not.
    EXPECT_EQ(canonicalJson("[ {\"z\":1, \"y\":2}, 3 ]"),
              "[{\"y\":2,\"z\":1},3]");
    // Escape spelling normalizes.
    EXPECT_EQ(canonicalJson("{\"k\":\"\\u0041\"}"), "{\"k\":\"A\"}");
    // Number spelling normalizes: 1.0 and 1e0 are the double 1.
    EXPECT_EQ(canonicalJson("{\"x\":1.0,\"y\":1e0,\"z\":1}"),
              "{\"x\":1,\"y\":1,\"z\":1}");
}

TEST(Serve, CanonicalJsonIdempotent)
{
    std::string once = canonicalJson(
        "{\"runs\":[{\"b\":0.125,\"a\":\"x\"}],\"n\":null,"
        "\"t\":true}");
    EXPECT_EQ(canonicalJson(once), once);
}

// ---------------------------------------------------------------------------
// protocol
// ---------------------------------------------------------------------------

TEST(Serve, ParseRequestRejectsMalformedInput)
{
    EXPECT_EQ(parseRequest("not json").errorCode, "parse");
    EXPECT_EQ(parseRequest("[1,2]").errorCode, "bad_request");
    EXPECT_EQ(parseRequest("{\"type\":42}").errorCode, "bad_request");
    EXPECT_EQ(parseRequest("{\"type\":\"wat\"}").errorCode,
              "unknown_type");
    EXPECT_EQ(parseRequest("{\"type\":\"submit\"}").errorCode,
              "bad_request");
    EXPECT_EQ(parseRequest("{\"type\":\"submit\",\"preset\":7}")
                  .errorCode,
              "bad_request");
    EXPECT_EQ(parseRequest("{\"type\":\"cancel\"}").errorCode,
              "bad_request");
    // Valid JSON with an ill-typed member is a bad request, not a
    // parse error: a negative, a string or a fractional count, and a
    // quoted override.
    for (const char *frame :
         {"{\"type\":\"submit\",\"preset\":\"smoke\",\"warmup\":-5}",
          "{\"type\":\"submit\",\"preset\":\"smoke\",\"warmup\":\"x\"}",
          "{\"type\":\"cancel\",\"job\":1.5}",
          "{\"type\":\"submit\",\"preset\":\"smoke\","
          "\"overrides\":{\"active_clusters\":\"4\"}}"})
        EXPECT_EQ(parseRequest(frame).errorCode, "bad_request") << frame;
    // active_clusters above maxClusters, wrapping to 2 or to a
    // negative int (no override) in an int cast, is a bad request.
    for (const char *active : {"17", "2147483648", "4294967298"})
        EXPECT_EQ(parseRequest(std::string("{\"type\":\"submit\","
                                           "\"preset\":\"smoke\","
                                           "\"overrides\":"
                                           "{\"active_clusters\":") +
                               active + "}}")
                      .errorCode,
                  "bad_request")
            << active;
    std::string huge = "{\"type\":\"ping\",\"pad\":\"" +
                       std::string(maxFrameBytes, 'x') + "\"}";
    EXPECT_EQ(parseRequest(huge).errorCode, "oversized");
}

TEST(Serve, ParseRequestAcceptsEveryKind)
{
    ParsedRequest p = parseRequest(
        "{\"type\":\"submit\",\"preset\":\"smoke\",\"warmup\":100,"
        "\"measure\":200,\"overrides\":{\"active_clusters\":4}}");
    ASSERT_TRUE(p.ok);
    EXPECT_EQ(p.req.kind, Request::Kind::Submit);
    EXPECT_EQ(p.req.submit.preset, "smoke");
    EXPECT_EQ(p.req.submit.warmup, 100u);
    EXPECT_EQ(p.req.submit.measure, 200u);
    EXPECT_EQ(p.req.submit.activeClusters, 4);
    // 1 stays the conformance rig's in-stream failure lever.
    for (int active : {1, maxClusters}) {
        ParsedRequest a = parseRequest(
            "{\"type\":\"submit\",\"preset\":\"smoke\","
            "\"overrides\":{\"active_clusters\":" +
            std::to_string(active) + "}}");
        ASSERT_TRUE(a.ok) << active;
        EXPECT_EQ(a.req.submit.activeClusters, active);
    }

    EXPECT_EQ(parseRequest("{\"type\":\"stats\"}").req.kind,
              Request::Kind::Stats);
    EXPECT_EQ(parseRequest("{\"type\":\"ping\"}").req.kind,
              Request::Kind::Ping);
    EXPECT_EQ(parseRequest("{\"type\":\"shutdown\"}").req.kind,
              Request::Kind::Shutdown);
    ParsedRequest c =
        parseRequest("{\"type\":\"cancel\",\"job\":12}");
    ASSERT_TRUE(c.ok);
    EXPECT_EQ(c.req.job, 12u);
}

TEST(Serve, SubmitFingerprintIgnoresCosmeticOrder)
{
    ParsedRequest a = parseRequest(
        "{\"type\":\"submit\",\"preset\":\"smoke\",\"warmup\":100,"
        "\"measure\":200}");
    ParsedRequest b = parseRequest(
        "{\"measure\":200, \"warmup\":100,"
        " \"preset\":\"smoke\", \"type\":\"submit\"}");
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    EXPECT_EQ(submitFingerprint(a.req.submit),
              submitFingerprint(b.req.submit));

    ParsedRequest c = parseRequest(
        "{\"type\":\"submit\",\"preset\":\"smoke\",\"warmup\":101,"
        "\"measure\":200}");
    ASSERT_TRUE(c.ok);
    EXPECT_NE(submitFingerprint(a.req.submit),
              submitFingerprint(c.req.submit));
}

// ---------------------------------------------------------------------------
// ScopedPanicRethrow
// ---------------------------------------------------------------------------

TEST(Serve, ScopedPanicRethrowTurnsPanicIntoSimError)
{
    ScopedPanicRethrow guard;
    EXPECT_THROW(CSIM_PANIC("boom: ", 42), SimError);
    bool threw = false;
    try {
        CSIM_ASSERT(1 == 2, "never");
    } catch (const SimError &e) {
        threw = true;
        EXPECT_NE(std::string(e.what()).find("assertion failed"),
                  std::string::npos);
    }
    EXPECT_TRUE(threw);
}

TEST(Serve, ScopedPanicRethrowNests)
{
    ScopedPanicRethrow outer;
    {
        ScopedPanicRethrow inner;
        EXPECT_THROW(CSIM_PANIC("inner"), SimError);
    }
    // Outer scope still armed after the inner one died.
    EXPECT_THROW(CSIM_PANIC("outer"), SimError);
}

// ---------------------------------------------------------------------------
// cache: keys
// ---------------------------------------------------------------------------

namespace {

/** keyFor of a point after canonical planning, as the scheduler does. */
std::string
plannedKey(const CacheStore &store, const RunPoint &p)
{
    std::vector<PlannedPoint> plan = planPoints({p}, true);
    return store.keyFor(p, plan[0].label, plan[0].seed);
}

} // namespace

TEST(Serve, CacheKeyIsStableAndExhaustive)
{
    CacheStore store("", "salt-a"); // disabled store still keys
    std::vector<RunPoint> points = makeSweepPreset("smoke", 500, 2000);
    ASSERT_FALSE(points.empty());
    const RunPoint &base = points[0];

    std::string k = plannedKey(store, base);
    ASSERT_EQ(k.size(), 64u);
    EXPECT_EQ(k, plannedKey(store, base)); // deterministic

    RunPoint m = base;
    m.cfg.activeClustersAtReset = 4;
    EXPECT_NE(plannedKey(store, m), k);

    m = base;
    m.warmup += 1;
    EXPECT_NE(plannedKey(store, m), k);

    m = base;
    m.measure += 1;
    EXPECT_NE(plannedKey(store, m), k);

    m = base;
    m.workload.seed += 1; // flows into the derived seed
    EXPECT_NE(plannedKey(store, m), k);

    m = base;
    m.label = (m.label.empty() ? m.cfg.name : m.label) + "-x";
    EXPECT_NE(plannedKey(store, m), k);

    // Within each preset every point keys uniquely (no aliasing in the
    // grid); across presets shared points may legitimately share keys.
    for (const std::string &name : sweepPresetNames()) {
        std::vector<std::string> keys;
        for (const RunPoint &p : makeSweepPreset(name)) {
            std::string pk = plannedKey(store, p);
            EXPECT_FALSE(pk.empty()) << name << ": uncacheable point";
            keys.push_back(pk);
        }
        std::sort(keys.begin(), keys.end());
        EXPECT_EQ(std::adjacent_find(keys.begin(), keys.end()),
                  keys.end())
            << name << ": aliased cache keys";
    }
}

TEST(Serve, CacheKeyControllerIdentity)
{
    CacheStore store("", "salt-a");
    std::vector<RunPoint> points = makeSweepPreset("smoke", 500, 2000);
    // smoke crosses static and controller variants; find a controller
    // point and check its key hinges on the declared controllerKey.
    const RunPoint *ctrl = nullptr;
    for (const RunPoint &p : points)
        if (p.makeController) {
            ctrl = &p;
            break;
        }
    ASSERT_NE(ctrl, nullptr);
    EXPECT_FALSE(ctrl->controllerKey.empty())
        << "preset controller points must declare identity keys";
    std::string k = plannedKey(store, *ctrl);
    ASSERT_EQ(k.size(), 64u);

    RunPoint anon = *ctrl;
    anon.controllerKey.clear(); // opaque controller: not cacheable
    EXPECT_TRUE(plannedKey(store, anon).empty());
    EXPECT_FALSE(pointCacheable(anon));
    EXPECT_TRUE(pointCacheable(*ctrl));

    RunPoint other = *ctrl;
    other.controllerKey += "-variant";
    EXPECT_NE(plannedKey(store, other), k);
}

TEST(Serve, CacheKeySaltInvalidates)
{
    CacheStore a("", "salt-a");
    CacheStore b("", "salt-b");
    RunPoint p = makeSweepPreset("smoke", 500, 2000)[0];
    EXPECT_NE(plannedKey(a, p), plannedKey(b, p));
}

// ---------------------------------------------------------------------------
// scheduler
// ---------------------------------------------------------------------------

namespace {

/** Records one job's event stream and lets tests wait for the end. */
struct JobRecorder {
    std::mutex mutex;
    std::condition_variable cv;
    bool finished = false;
    std::string status;
    std::string report;
    std::size_t cacheHits = 0, computed = 0, warmHits = 0, merged = 0,
                failed = 0, cancelled = 0;
    std::vector<std::string> pointSources;
    std::vector<std::string> pointErrors;

    JobEvents
    events()
    {
        JobEvents ev;
        ev.onPoint = [this](std::size_t, PointSource src,
                            const std::string &, const std::string &,
                            double, std::size_t, std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            pointSources.push_back(pointSourceName(src));
        };
        ev.onPointError = [this](std::size_t, const std::string &msg,
                                 std::size_t, std::size_t) {
            std::lock_guard<std::mutex> lock(mutex);
            pointErrors.push_back(msg);
        };
        ev.onDone = [this](const std::string &st, const std::string &rep,
                           std::size_t hits, std::size_t comp,
                           std::size_t warm, std::size_t merg,
                           std::size_t fail, std::size_t canc) {
            std::lock_guard<std::mutex> lock(mutex);
            status = st;
            report = rep;
            cacheHits = hits;
            computed = comp;
            warmHits = warm;
            merged = merg;
            failed = fail;
            cancelled = canc;
            finished = true;
            cv.notify_all();
        };
        return ev;
    }

    void
    wait()
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [this] { return finished; });
    }
};

} // namespace

TEST(Serve, SchedulerRejectsUnknownPreset)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {1, 8});
    SubmitRequest req;
    req.preset = "definitely-not-a-preset";
    JobRecorder rec;
    SubmitResult r = sched.submit(req, rec.events());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.errorCode, "unknown_preset");
    EXPECT_EQ(sched.stats().jobsRejected, 1u);
}

TEST(Serve, SchedulerBackpressureBoundsActiveJobs)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {1, 1});
    JobRecorder rec1, rec2, rec3;
    SubmitResult r1 = sched.submit(tinySmoke(), rec1.events());
    ASSERT_TRUE(r1.ok);
    // The first job is registered but unfinished: the bound rejects.
    SubmitResult r2 = sched.submit(tinySmoke(), rec2.events());
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.errorCode, "busy");
    sched.start(r1.job);
    rec1.wait();
    EXPECT_EQ(rec1.status, "ok");
    // Capacity frees once the job finishes.
    SubmitResult r3 = sched.submit(tinySmoke(), rec3.events());
    ASSERT_TRUE(r3.ok);
    sched.start(r3.job);
    rec3.wait();
    EXPECT_EQ(rec3.status, "ok");
}

TEST(Serve, SchedulerColdThenWarmByteIdenticalToCli)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {2, 8});
    SubmitRequest req = tinySmoke();

    JobRecorder cold;
    SubmitResult r1 = sched.submit(req, cold.events());
    ASSERT_TRUE(r1.ok);
    EXPECT_EQ(r1.cached, 0u);
    sched.start(r1.job);
    cold.wait();
    ASSERT_EQ(cold.status, "ok");
    EXPECT_EQ(cold.computed, r1.points);
    EXPECT_EQ(cold.cacheHits, 0u);

    // The served report is the CLI report, byte for byte.
    EXPECT_EQ(cold.report, cliReport(req));

    JobRecorder warm;
    SubmitResult r2 = sched.submit(req, warm.events());
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached, r2.points); // every point already on disk
    sched.start(r2.job);
    warm.wait();
    ASSERT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.cacheHits, r2.points);
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.report, cold.report);
    for (const std::string &src : warm.pointSources)
        EXPECT_EQ(src, "cache");
}

TEST(Serve, SchedulerWarmStartsFromCheckpointStore)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    WarmupCheckpointStore ckpt(dir.path() + "/ckpt");
    PointScheduler sched(cache, {2, 8, &ckpt});
    SubmitRequest req = tinySmoke();

    JobRecorder cold;
    SubmitResult r1 = sched.submit(req, cold.events());
    ASSERT_TRUE(r1.ok);
    sched.start(r1.job);
    cold.wait();
    ASSERT_EQ(cold.status, "ok");
    EXPECT_EQ(cold.warmHits, 0u);
    EXPECT_GT(ckpt.stats().stores, 0u);

    // Wipe the result cache but keep the checkpoints: every point
    // recomputes its measurement, but every warmup is restored -- and
    // the report must not move a byte.
    {
        std::string cdir = dir.path() + "/cache";
        DIR *d = opendir(cdir.c_str());
        ASSERT_NE(d, nullptr);
        while (struct dirent *e = readdir(d)) {
            std::string name = e->d_name;
            if (name != "." && name != "..")
                std::remove((cdir + "/" + name).c_str());
        }
        closedir(d);
    }

    JobRecorder warm;
    SubmitResult r2 = sched.submit(req, warm.events());
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached, 0u);
    sched.start(r2.job);
    warm.wait();
    ASSERT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.computed, r2.points);
    EXPECT_EQ(warm.warmHits, r2.points);
    EXPECT_EQ(warm.report, cold.report);
    EXPECT_GE(ckpt.stats().hits, r2.points);
}

TEST(Serve, SchedulerConcurrentJobsComputeEachPointOnce)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {2, 8});
    SubmitRequest req = tinySmoke();

    JobRecorder a, b;
    SubmitResult ra = sched.submit(req, a.events());
    SubmitResult rb = sched.submit(req, b.events());
    ASSERT_TRUE(ra.ok);
    ASSERT_TRUE(rb.ok);
    sched.start(ra.job);
    sched.start(rb.job); // same points, while A is still cold
    a.wait();
    b.wait();
    ASSERT_EQ(a.status, "ok");
    ASSERT_EQ(b.status, "ok");
    EXPECT_EQ(a.report, b.report);

    // Every point simulated exactly once across both jobs; B's copies
    // came from the in-flight merge or (if A's finished first) the
    // cache, never from a second simulation.
    ServeStats s = sched.stats();
    EXPECT_EQ(s.pointsComputed, ra.points);
    EXPECT_EQ(s.pointsMerged + s.pointsFromCache, rb.points);
    EXPECT_EQ(a.computed + b.computed, ra.points);
}

TEST(Serve, SchedulerCancelStopsPendingPointsOnly)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {1, 8});
    SubmitRequest big = tinySmoke();
    big.measure = 60000; // long enough that cancel lands mid-job

    JobRecorder rec;
    SubmitResult r = sched.submit(big, rec.events());
    ASSERT_TRUE(r.ok);
    sched.start(r.job);
    EXPECT_TRUE(sched.cancel(r.job));
    rec.wait();
    EXPECT_EQ(rec.status, "cancelled");
    EXPECT_GT(rec.cancelled, 0u);
    EXPECT_FALSE(sched.cancel(r.job)); // already finished

    // The scheduler (and every later job) is unaffected.
    JobRecorder after;
    SubmitResult r2 = sched.submit(tinySmoke(), after.events());
    ASSERT_TRUE(r2.ok);
    sched.start(r2.job);
    after.wait();
    EXPECT_EQ(after.status, "ok");
}

TEST(Serve, SchedulerFailedPointReportsInStream)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {1, 8});
    SubmitRequest bad = tinySmoke();
    // One active cluster cannot hold the architectural registers of a
    // 16-cluster machine: every point panics at construction. The
    // rethrow scope must turn that into per-point failures, not a dead
    // server.
    bad.activeClusters = 1;

    JobRecorder rec;
    SubmitResult r = sched.submit(bad, rec.events());
    ASSERT_TRUE(r.ok);
    sched.start(r.job);
    rec.wait();
    EXPECT_EQ(rec.status, "failed");
    EXPECT_EQ(rec.failed, r.points);
    ASSERT_FALSE(rec.pointErrors.empty());
    EXPECT_NE(rec.pointErrors[0].find("assertion failed"),
              std::string::npos);
    EXPECT_TRUE(rec.report.empty());

    // Failures are never cached, and the scheduler still works.
    EXPECT_EQ(cache.stats().stores, 0u);
    JobRecorder ok;
    SubmitResult r2 = sched.submit(tinySmoke(), ok.events());
    ASSERT_TRUE(r2.ok);
    sched.start(r2.job);
    ok.wait();
    EXPECT_EQ(ok.status, "ok");
}

TEST(Serve, SchedulerServesTournamentByteIdenticalToCli)
{
    // The tournament's oracle points are registry-keyed like any other
    // policy, so the whole preset flows through the content-addressed
    // cache; the served report -- ranked table included -- must be the
    // CLI `sweep --no-timing` report byte for byte, cold and cached.
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {2, 8});
    SubmitRequest req;
    req.preset = "tournament";
    req.warmup = 1000;
    req.measure = 2000;

    JobRecorder cold;
    SubmitResult r1 = sched.submit(req, cold.events());
    ASSERT_TRUE(r1.ok);
    sched.start(r1.job);
    cold.wait();
    ASSERT_EQ(cold.status, "ok");
    std::string reference = cliReport(req);
    EXPECT_EQ(cold.report, reference);
    EXPECT_NE(cold.report.find("\"ranking\":["), std::string::npos);

    JobRecorder warm;
    SubmitResult r2 = sched.submit(req, warm.events());
    ASSERT_TRUE(r2.ok);
    EXPECT_EQ(r2.cached, r2.points);
    sched.start(r2.job);
    warm.wait();
    ASSERT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.computed, 0u);
    EXPECT_EQ(warm.report, reference);
}

TEST(Serve, SchedulerDrainCancelsQueuedAndRejectsNewJobs)
{
    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    PointScheduler sched(cache, {1, 8});
    SubmitRequest big = tinySmoke();
    big.measure = 60000;

    JobRecorder rec;
    SubmitResult r = sched.submit(big, rec.events());
    ASSERT_TRUE(r.ok);
    sched.start(r.job);
    sched.drain();
    // Drain is synchronous: by now the job got its terminal frame
    // (cancelled, or ok if the worker outran us).
    {
        std::lock_guard<std::mutex> lock(rec.mutex);
        ASSERT_TRUE(rec.finished);
        EXPECT_TRUE(rec.status == "cancelled" || rec.status == "ok");
    }
    JobRecorder late;
    SubmitResult r2 = sched.submit(tinySmoke(), late.events());
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.errorCode, "shutting_down");
}

TEST(Serve, SchedulerStressAnnotatedInvariants)
{
    // Many clients submitting, cancelling, and abandoning jobs against
    // the annotated scheduler with the warmup-checkpoint store on.
    // Under TSan this is the data-race probe for every CSIM_GUARDED_BY
    // in scheduler.hh; with or without it, the counters must reconcile
    // exactly after drain: per job the done-frame legs partition the
    // point count, and globally ServeStats matches what the clients
    // saw happen.
    constexpr int kClients = 4;
    constexpr int kRounds = 5;

    TempDir dir;
    CacheStore cache(dir.path() + "/cache");
    WarmupCheckpointStore ckpt(dir.path() + "/ckpt");
    PointScheduler sched(cache, {3, 32, &ckpt});

    struct DoneJob {
        std::unique_ptr<JobRecorder> rec;
        std::size_t points = 0;
    };
    std::mutex statsMutex;
    std::vector<DoneJob> jobs;
    std::uint64_t acceptedJobs = 0, rejectedJobs = 0, cancelsHonored = 0;

    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            std::vector<DoneJob> mine;
            std::uint64_t myAccepted = 0, myRejected = 0, myCancels = 0;
            for (int r = 0; r < kRounds; r++) {
                SubmitRequest req = tinySmoke();
                // Two distinct sweep identities so rounds exercise
                // both the cold path and the cache/merge paths.
                req.measure = (r % 2 == 0) ? 2000 : 2500;
                auto rec = std::make_unique<JobRecorder>();
                SubmitResult sr = sched.submit(req, rec->events());
                if (!sr.ok) {
                    EXPECT_EQ(sr.errorCode, "busy");
                    myRejected++;
                    continue;
                }
                myAccepted++;
                sched.start(sr.job);
                // A third of the jobs race a cancel against their own
                // workers; cancel() returning true is the scheduler's
                // promise that the job counts as cancelled.
                if ((c + r) % 3 == 0 && sched.cancel(sr.job))
                    myCancels++;
                rec->wait();
                mine.push_back({std::move(rec), sr.points});
            }
            std::lock_guard<std::mutex> lock(statsMutex);
            for (auto &j : mine)
                jobs.push_back(std::move(j));
            acceptedJobs += myAccepted;
            rejectedJobs += myRejected;
            cancelsHonored += myCancels;
        });
    }
    for (std::thread &t : clients)
        t.join();
    sched.drain();

    // Every accepted job reached its terminal frame, and its done
    // counters partition its point count.
    std::uint64_t sumHits = 0, sumComputed = 0, sumMerged = 0;
    std::uint64_t sumFailed = 0, sumCancelled = 0, totalPoints = 0;
    for (const DoneJob &j : jobs) {
        std::lock_guard<std::mutex> lock(j.rec->mutex);
        ASSERT_TRUE(j.rec->finished);
        EXPECT_TRUE(j.rec->status == "ok" ||
                    j.rec->status == "cancelled")
            << j.rec->status;
        EXPECT_EQ(j.rec->cacheHits + j.rec->computed + j.rec->merged +
                      j.rec->failed + j.rec->cancelled,
                  j.points);
        // A warm start is credited to every waiter of the point, so
        // merged copies count too.
        EXPECT_LE(j.rec->warmHits, j.rec->computed + j.rec->merged);
        sumHits += j.rec->cacheHits;
        sumComputed += j.rec->computed;
        sumMerged += j.rec->merged;
        sumFailed += j.rec->failed;
        sumCancelled += j.rec->cancelled;
        totalPoints += j.points;
    }
    ASSERT_EQ(jobs.size(), acceptedJobs);

    // Global stats agree with the clients' ledger: jobs in, jobs
    // bounced, cancels honored, and every point accounted for on
    // exactly one leg.
    ServeStats s = sched.stats();
    EXPECT_EQ(s.jobsAccepted, acceptedJobs);
    EXPECT_EQ(s.jobsRejected, rejectedJobs);
    EXPECT_EQ(s.jobsCancelled, cancelsHonored);
    EXPECT_EQ(s.pointsFromCache, sumHits);
    EXPECT_EQ(s.pointsComputed, sumComputed);
    EXPECT_EQ(s.pointsMerged, sumMerged);
    EXPECT_EQ(s.pointsFailed, sumFailed);
    EXPECT_EQ(s.pointsCancelled, sumCancelled);
    EXPECT_EQ(s.pointsFromCache + s.pointsComputed + s.pointsMerged +
                  s.pointsFailed + s.pointsCancelled,
              totalPoints);
    EXPECT_EQ(sumFailed, 0u);

    // The checkpoint store was really in the loop: cold warmups were
    // persisted and later rounds leased or restored them. (One stored
    // checkpoint serves every job that recomputes its point, so no
    // equality against warm-hit sums.)
    EXPECT_GT(ckpt.stats().stores, 0u);
    EXPECT_GT(ckpt.stats().hits, 0u);
}

// ---------------------------------------------------------------------------
// canonical planning (sim/plan) -- the per-point identities the CLI
// engine and the server cache both use
// ---------------------------------------------------------------------------

TEST(Serve, PlanPointsDerivesLabelsAndSeeds)
{
    std::vector<RunPoint> points = makeSweepPreset("smoke", 500, 2000);
    std::vector<PlannedPoint> plan = planPoints(points, true);
    ASSERT_EQ(plan.size(), points.size());
    for (std::size_t i = 0; i < plan.size(); i++) {
        EXPECT_EQ(plan[i].index, i);
        std::string label =
            points[i].label.empty() ? points[i].cfg.name
                                    : points[i].label;
        EXPECT_EQ(plan[i].label, label);
        EXPECT_EQ(plan[i].seed,
                  sweepSeed(points[i].workload.seed,
                            points[i].workload.name, label));
    }
    // derive_seeds=false keeps the spec's own seed.
    std::vector<PlannedPoint> raw = planPoints(points, false);
    for (std::size_t i = 0; i < raw.size(); i++)
        EXPECT_EQ(raw[i].seed, points[i].workload.seed);
}

TEST(Serve, PlanSweepCoversEveryPointExactlyOnce)
{
    for (const std::string &name : sweepPresetNames()) {
        std::vector<RunPoint> points = makeSweepPreset(name);
        SweepPlan plan = planSweep(points, true);
        std::vector<PlannedPoint> expect = planPoints(points, true);
        ASSERT_EQ(plan.points.size(), points.size()) << name;
        for (std::size_t i = 0; i < points.size(); i++) {
            EXPECT_EQ(plan.points[i].index, i) << name;
            EXPECT_EQ(plan.points[i].label, expect[i].label) << name;
            EXPECT_EQ(plan.points[i].seed, expect[i].seed) << name;
        }
    }
}

TEST(Serve, PlanIdentityKeyMatchesByteIdentity)
{
    std::vector<RunPoint> points = makeSweepPreset("smoke", 500, 2000);
    std::vector<PlannedPoint> plan = planPoints(points, true);
    const RunPoint &p = points[0];

    std::string k = pointIdentityKey(p, plan[0].label, plan[0].seed);
    ASSERT_FALSE(k.empty());
    EXPECT_EQ(k, pointIdentityKey(p, plan[0].label, plan[0].seed));

    // The key embeds the seed argument, not the spec's stale one.
    EXPECT_NE(pointIdentityKey(p, plan[0].label, plan[0].seed + 1), k);

    // Uncacheable points (opaque controller) key to empty.
    RunPoint anon = p;
    anon.makeController = [] {
        return std::unique_ptr<ReconfigController>();
    };
    anon.controllerKey.clear();
    EXPECT_FALSE(pointCacheable(anon));
    EXPECT_TRUE(
        pointIdentityKey(anon, plan[0].label, plan[0].seed).empty());
}
