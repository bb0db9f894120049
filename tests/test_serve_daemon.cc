/**
 * @file
 * Black-box conformance rig for the sweep daemon: every test here
 * spawns the real `sweepd` binary (path injected as SWEEPD_BIN by the
 * build) and talks to it over a loopback socket exactly as an external
 * client would -- no serve-layer internals are linked into the
 * assertions. Pins the end-to-end contracts: a served report is
 * byte-identical to `sweep --no-timing` output, a warm resubmission is
 * served from the cache, malformed/oversized/garbage frames get
 * structured errors without crashing, a client disconnect cancels only
 * its own jobs, and SIGTERM drains cleanly leaving a reusable cache.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common/json_reader.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

using namespace clustersim;

namespace {

void
shortSleep()
{
    timespec ts = {0, 20 * 1000 * 1000}; // 20ms
    nanosleep(&ts, nullptr);
}

/** Run `argv` with stdout and stderr discarded; its exit status, or -1
 *  when it could not fork, died on a signal or was killed after 30s. */
int
exitStatusOf(std::vector<std::string> argv)
{
    std::vector<char *> args;
    for (std::string &a : argv)
        args.push_back(a.data());
    args.push_back(nullptr);
    pid_t pid = fork();
    if (pid < 0)
        return -1;
    if (pid == 0) {
        int fd = open("/dev/null", O_WRONLY);
        dup2(fd, 1);
        dup2(fd, 2);
        execv(args[0], args.data());
        _exit(127);
    }
    int status = 0;
    for (int i = 0; i < 1500; i++) { // <= 30s
        if (waitpid(pid, &status, WNOHANG) == pid)
            return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
        shortSleep();
    }
    kill(pid, SIGKILL);
    waitpid(pid, &status, 0);
    return -1;
}

/** Line-oriented test client with a receive timeout so a server bug
 *  fails the test instead of hanging the suite. */
class TestClient
{
  public:
    explicit TestClient(int port) { connectTo(port); }

    ~TestClient() { close(); }
    TestClient(const TestClient &) = delete;
    TestClient &operator=(const TestClient &) = delete;

    void
    connectTo(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd_, 0) << std::strerror(errno);
        timeval tv = {60, 0};
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        ASSERT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0)
            << "connect 127.0.0.1:" << port << ": "
            << std::strerror(errno);
    }

    void
    close()
    {
        if (fd_ >= 0)
            ::close(fd_);
        fd_ = -1;
    }

    void
    sendRaw(const std::string &bytes)
    {
        std::size_t off = 0;
        while (off < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + off,
                               bytes.size() - off, MSG_NOSIGNAL);
            ASSERT_GT(n, 0) << "send: " << std::strerror(errno);
            off += static_cast<std::size_t>(n);
        }
    }

    void sendLine(const std::string &frame) { sendRaw(frame + "\n"); }

    /** Next frame line; false on EOF/timeout. */
    bool
    readLine(std::string &line)
    {
        for (;;) {
            std::size_t nl = buf_.find('\n');
            if (nl != std::string::npos) {
                line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                return true;
            }
            char chunk[4096];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                return false;
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** Read and parse one frame; fails the test on EOF. */
    JsonValue
    readFrame()
    {
        std::string line;
        EXPECT_TRUE(readLine(line)) << "connection closed early";
        if (line.empty())
            return JsonValue();
        return parseJson(line);
    }

    std::string
    frameType(const JsonValue &v)
    {
        if (!v.isObject() || !v.has("type"))
            return "";
        return v.at("type").asString();
    }

    void
    expectHello()
    {
        JsonValue hello = readFrame();
        ASSERT_EQ(frameType(hello), "hello");
        EXPECT_EQ(hello.at("protocol").asString(),
                  "clustersim-serve-v1");
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

/** Everything one submit produced, terminal frame included. */
struct SubmitOutcome {
    std::uint64_t job = 0;
    std::uint64_t points = 0;
    std::uint64_t cachedEstimate = 0; ///< accepted.cached
    std::string fingerprint;
    std::vector<std::string> sources;  ///< per point frame
    std::vector<std::string> errors;   ///< per point_error frame
    std::string status;
    std::string report;
    std::uint64_t cacheHits = 0, computed = 0, merged = 0, failed = 0,
                  cancelled = 0;
};

/** Spawns one sweepd per test (plus restarts) on a private cache. */
class ServeDaemon : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        signal(SIGPIPE, SIG_IGN);
        char tmpl[] = "/tmp/clustersim-daemon-XXXXXX";
        char *p = mkdtemp(tmpl);
        ASSERT_NE(p, nullptr);
        dir_ = p;
        cacheDir_ = dir_ + "/cache";
        portFile_ = dir_ + "/port";
        logFile_ = dir_ + "/sweepd.log";
        spawn();
    }

    void
    TearDown() override
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            int status = 0;
            waitpid(pid_, &status, 0);
            pid_ = -1;
        }
        // Leave /tmp tidy; two levels (dir_ and dir_/cache) suffice.
        removeTree(cacheDir_);
        removeTree(dir_);
    }

    void
    spawn()
    {
        std::remove(portFile_.c_str());
        pid_ = fork();
        ASSERT_GE(pid_, 0);
        if (pid_ == 0) {
            int fd = open(logFile_.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, 2);
                ::close(fd);
            }
            execl(SWEEPD_BIN, "sweepd", "--port-file",
                  portFile_.c_str(), "--cache", cacheDir_.c_str(),
                  "--workers", "1", static_cast<char *>(nullptr));
            _exit(127); // exec failed
        }
        // The port file appearing (with content) is the ready signal.
        port_ = 0;
        for (int i = 0; i < 1500 && port_ <= 0; i++) { // <= 30s
            std::ifstream f(portFile_);
            if (!(f >> port_))
                port_ = 0;
            if (port_ <= 0)
                shortSleep();
        }
        ASSERT_GT(port_, 0) << "sweepd never wrote its port file; log:\n"
                            << slurpLog();
    }

    /** SIGTERM the daemon and reap it; returns its exit status. */
    int
    terminate()
    {
        EXPECT_GT(pid_, 0);
        kill(pid_, SIGTERM);
        int status = 0;
        // Drain can legitimately take a while with a job running.
        for (int i = 0; i < 3000; i++) { // <= 60s
            pid_t r = waitpid(pid_, &status, WNOHANG);
            if (r == pid_) {
                pid_ = -1;
                return status;
            }
            shortSleep();
        }
        ADD_FAILURE() << "sweepd did not exit after SIGTERM; log:\n"
                      << slurpLog();
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
        return status;
    }

    std::string
    slurpLog() const
    {
        std::ifstream f(logFile_);
        return std::string((std::istreambuf_iterator<char>(f)),
                           std::istreambuf_iterator<char>());
    }

    std::size_t
    cacheEntries() const
    {
        std::size_t n = 0;
        DIR *d = opendir(cacheDir_.c_str());
        if (d == nullptr)
            return 0;
        while (struct dirent *e = readdir(d)) {
            std::string name = e->d_name;
            if (name.size() > 4 &&
                name.compare(name.size() - 4, 4, ".cpt") == 0)
                n++;
        }
        closedir(d);
        return n;
    }

    static void
    removeTree(const std::string &path)
    {
        DIR *d = opendir(path.c_str());
        if (d != nullptr) {
            while (struct dirent *e = readdir(d)) {
                std::string name = e->d_name;
                if (name != "." && name != "..")
                    std::remove((path + "/" + name).c_str());
            }
            closedir(d);
        }
        rmdir(path.c_str());
    }

    static std::string
    submitFrame(const std::string &preset, std::uint64_t warmup,
                std::uint64_t measure, int active_clusters = 0)
    {
        std::string f = "{\"type\":\"submit\",\"preset\":\"" + preset +
                        "\",\"warmup\":" + std::to_string(warmup) +
                        ",\"measure\":" + std::to_string(measure);
        if (active_clusters != 0)
            f += ",\"overrides\":{\"active_clusters\":" +
                 std::to_string(active_clusters) + "}";
        return f + "}";
    }

    /** Drive one submit to its terminal frame. */
    static SubmitOutcome
    runSubmit(TestClient &c, const std::string &frame)
    {
        SubmitOutcome out;
        c.sendLine(frame);
        for (;;) {
            JsonValue v = c.readFrame();
            std::string type = c.frameType(v);
            if (type == "accepted") {
                out.job =
                    static_cast<std::uint64_t>(v.at("job").asInt());
                out.points =
                    static_cast<std::uint64_t>(v.at("points").asInt());
                out.cachedEstimate =
                    static_cast<std::uint64_t>(v.at("cached").asInt());
                out.fingerprint = v.at("fingerprint").asString();
            } else if (type == "point") {
                out.sources.push_back(v.at("source").asString());
            } else if (type == "point_error") {
                out.errors.push_back(v.at("error").asString());
            } else if (type == "done") {
                out.status = v.at("status").asString();
                if (v.has("report"))
                    out.report = v.at("report").asString();
                out.cacheHits = static_cast<std::uint64_t>(
                    v.at("cache_hits").asInt());
                out.computed = static_cast<std::uint64_t>(
                    v.at("computed").asInt());
                out.merged =
                    static_cast<std::uint64_t>(v.at("merged").asInt());
                out.failed =
                    static_cast<std::uint64_t>(v.at("failed").asInt());
                out.cancelled = static_cast<std::uint64_t>(
                    v.at("cancelled").asInt());
                return out;
            } else {
                ADD_FAILURE() << "unexpected frame type '" << type
                              << "' mid-submit";
                return out;
            }
        }
    }

    std::string dir_, cacheDir_, portFile_, logFile_;
    pid_t pid_ = -1;
    int port_ = 0;
};

} // namespace

TEST_F(ServeDaemon, ConformanceColdWarmByteIdenticalToCli)
{
    const std::uint64_t warmup = 500, measure = 2000;

    TestClient c(port_);
    c.expectHello();
    SubmitOutcome cold =
        runSubmit(c, submitFrame("smoke", warmup, measure));
    ASSERT_EQ(cold.status, "ok");
    EXPECT_EQ(cold.cachedEstimate, 0u);
    EXPECT_EQ(cold.computed, cold.points);
    EXPECT_EQ(cold.sources.size(), cold.points);
    ASSERT_FALSE(cold.report.empty());

    // The served report must equal what the CLI sweep tool emits for
    // the same preset, byte for byte.
    std::vector<RunPoint> points =
        makeSweepPreset("smoke", warmup, measure);
    SweepOptions opts;
    opts.threads = 1;
    SweepResult res = runSweep(points, opts);
    EXPECT_EQ(cold.report, sweepReportJson("smoke", points, res,
                                           /*include_timing=*/false));

    // Warm resubmission on a fresh connection: everything cached,
    // identical bytes, identical fingerprint -- and >= 90% cached is
    // the conformance floor even if a straggler recomputed.
    TestClient w(port_);
    w.expectHello();
    SubmitOutcome warm =
        runSubmit(w, submitFrame("smoke", warmup, measure));
    ASSERT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.fingerprint, cold.fingerprint);
    EXPECT_EQ(warm.cachedEstimate, warm.points);
    EXPECT_EQ(warm.report, cold.report);
    EXPECT_GE(warm.cacheHits * 10, warm.points * 9);
    EXPECT_EQ(warm.computed, 0u);
    for (const std::string &src : warm.sources)
        EXPECT_EQ(src, "cache");
}

TEST_F(ServeDaemon, CachedResubmitsAreNotHeldByDelayedAcks)
{
    // A cached job's reply is a burst of small frames: accepted, one
    // point frame per point, done. With Nagle's algorithm on the
    // daemon's socket, every frame after the first waits for the
    // client's delayed ACK, about 40 ms per job. A ping cannot show
    // this: its reply is one frame.
    TestClient c(port_);
    c.expectHello();
    const std::string job = submitFrame("smoke", 200, 500);
    ASSERT_EQ(runSubmit(c, job).status, "ok");

    std::vector<double> ms;
    for (int i = 0; i < 10; i++) {
        const auto start = std::chrono::steady_clock::now();
        SubmitOutcome hit = runSubmit(c, job);
        ms.push_back(std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count());
        ASSERT_EQ(hit.status, "ok");
        EXPECT_EQ(hit.computed, 0u);
    }
    std::sort(ms.begin(), ms.end());
    const double median = (ms[4] + ms[5]) / 2;
    EXPECT_LT(median, 20.0) << "submit -> done of a cache hit, median of "
                            << ms.size() << " on one connection";
}

TEST_F(ServeDaemon, MalformedFramesGetStructuredErrorsNeverACrash)
{
    TestClient c(port_);
    c.expectHello();

    c.sendLine("this is not json");
    JsonValue v = c.readFrame();
    EXPECT_EQ(c.frameType(v), "error");
    EXPECT_EQ(v.at("code").asString(), "parse");

    c.sendLine("[1,2,3]");
    EXPECT_EQ(c.readFrame().at("code").asString(), "bad_request");

    c.sendLine("{\"type\":42}");
    EXPECT_EQ(c.readFrame().at("code").asString(), "bad_request");

    c.sendLine("{\"type\":\"frobnicate\"}");
    EXPECT_EQ(c.readFrame().at("code").asString(), "unknown_type");

    c.sendLine("{\"type\":\"cancel\"}");
    EXPECT_EQ(c.readFrame().at("code").asString(), "bad_request");

    c.sendLine("{\"type\":\"cancel\",\"job\":999}");
    EXPECT_EQ(c.readFrame().at("code").asString(), "unknown_job");

    c.sendLine("{\"type\":\"submit\",\"preset\":\"no-such\"}");
    EXPECT_EQ(c.readFrame().at("code").asString(), "unknown_preset");

    // Binary garbage with embedded NULs.
    c.sendRaw(std::string("\x01\x02\x00\xff\xfe", 5) + "\n");
    EXPECT_EQ(c.readFrame().at("code").asString(), "parse");

    // An oversized line draws exactly one error, then the connection
    // keeps working.
    c.sendRaw(std::string((1 << 20) + 100, 'x') + "\n");
    EXPECT_EQ(c.readFrame().at("code").asString(), "oversized");
    c.sendLine("{\"type\":\"ping\"}");
    EXPECT_EQ(c.frameType(c.readFrame()), "pong");

    // And the daemon can still do real work afterwards.
    SubmitOutcome out = runSubmit(c, submitFrame("smoke", 500, 2000));
    EXPECT_EQ(out.status, "ok");
}

TEST_F(ServeDaemon, DisconnectMidStreamCancelsOnlyThatJob)
{
    // A long job whose client vanishes right after acceptance.
    {
        TestClient a(port_);
        a.expectHello();
        a.sendLine(submitFrame("smoke", 500, 300000));
        JsonValue acc = a.readFrame();
        ASSERT_EQ(a.frameType(acc), "accepted");
        a.close(); // mid-stream disconnect
    }

    // The daemon notices, cancels that job, and other clients are
    // completely unaffected.
    TestClient b(port_);
    b.expectHello();
    b.sendLine("{\"type\":\"ping\"}");
    EXPECT_EQ(b.frameType(b.readFrame()), "pong");

    bool cancelled = false;
    for (int i = 0; i < 1500 && !cancelled; i++) { // <= 30s
        b.sendLine("{\"type\":\"stats\"}");
        JsonValue s = b.readFrame();
        ASSERT_EQ(b.frameType(s), "stats");
        cancelled =
            s.at("scheduler").at("jobs_cancelled").asInt() >= 1;
        if (!cancelled)
            shortSleep();
    }
    EXPECT_TRUE(cancelled) << "job not cancelled on disconnect; log:\n"
                           << slurpLog();

    // B's own small job runs to completion as usual.
    SubmitOutcome out = runSubmit(b, submitFrame("smoke", 500, 2000));
    EXPECT_EQ(out.status, "ok");
}

TEST_F(ServeDaemon, SigtermDrainsAndCacheSurvivesRestart)
{
    const std::uint64_t warmup = 500, measure = 2000;
    std::uint64_t points = 0;
    {
        TestClient c(port_);
        c.expectHello();
        SubmitOutcome out =
            runSubmit(c, submitFrame("smoke", warmup, measure));
        ASSERT_EQ(out.status, "ok");
        points = out.points;
    }

    int status = terminate();
    ASSERT_TRUE(WIFEXITED(status))
        << "sweepd killed by signal; log:\n" << slurpLog();
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_NE(slurpLog().find("sweepd: drained"), std::string::npos);
    EXPECT_EQ(cacheEntries(), points);

    // A restarted daemon on the same cache directory serves the same
    // sweep warm.
    spawn();
    TestClient c(port_);
    c.expectHello();
    SubmitOutcome warm =
        runSubmit(c, submitFrame("smoke", warmup, measure));
    ASSERT_EQ(warm.status, "ok");
    EXPECT_EQ(warm.cachedEstimate, warm.points);
    EXPECT_GE(warm.cacheHits * 10, warm.points * 9);
    EXPECT_EQ(warm.computed, 0u);
}

TEST_F(ServeDaemon, PanickingPointFailsInStreamNotTheServer)
{
    TestClient c(port_);
    c.expectHello();
    // active_clusters=1 trips the construction assert (one partition
    // cannot hold the architectural registers) on every point.
    SubmitOutcome bad =
        runSubmit(c, submitFrame("smoke", 500, 2000, 1));
    EXPECT_EQ(bad.status, "failed");
    EXPECT_EQ(bad.failed, bad.points);
    ASSERT_FALSE(bad.errors.empty());
    EXPECT_NE(bad.errors[0].find("assertion failed"),
              std::string::npos);
    EXPECT_TRUE(bad.report.empty());

    // Same connection, same daemon: a healthy job still works.
    c.sendLine("{\"type\":\"ping\"}");
    EXPECT_EQ(c.frameType(c.readFrame()), "pong");
    SubmitOutcome ok = runSubmit(c, submitFrame("smoke", 500, 2000));
    EXPECT_EQ(ok.status, "ok");
    EXPECT_EQ(ok.failed, 0u);
}

TEST_F(ServeDaemon, ShutdownRequestDrainsLikeSigterm)
{
    TestClient c(port_);
    c.expectHello();
    c.sendLine("{\"type\":\"shutdown\"}");
    EXPECT_EQ(c.frameType(c.readFrame()), "shutting_down");
    std::string line;
    while (c.readLine(line)) {
    } // server closes after draining
    int status = 0;
    for (int i = 0; i < 3000; i++) { // <= 60s
        pid_t r = waitpid(pid_, &status, WNOHANG);
        if (r == pid_) {
            pid_ = -1;
            break;
        }
        shortSleep();
    }
    ASSERT_EQ(pid_, -1) << "daemon still alive after shutdown frame";
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST_F(ServeDaemon, MalformedNumericFlagsExitTwo)
{
    // "abc" once read as 0.0, which turned the gate off: the submission
    // ran and passed. A bad value must stop the client before it sends.
    std::string port = std::to_string(port_);
    for (const char *gate : {"--require-cached", "--require-warm"})
        EXPECT_EQ(exitStatusOf({SWEEPC_BIN, "--port", port, "submit",
                                "--preset", "smoke", "--warmup", "500",
                                "--measure", "2000", gate, "abc"}),
                  2)
            << gate;
    // 70000 once truncated to port 4464, and the daemon listened there.
    EXPECT_EQ(exitStatusOf({SWEEPD_BIN, "--port", "70000"}), 2);
    EXPECT_EQ(exitStatusOf({SWEEPD_BIN, "--workers", "x"}), 2);
}

// ---------------------------------------------------------------------------
// `sweepc prune` against live writers
// ---------------------------------------------------------------------------

namespace {

/** Write `bytes` of filler into path and back-date its mtime by
 *  `ageSeconds` (0 = leave it fresh). */
void
writeArtifact(const std::string &path, std::size_t bytes,
              long ageSeconds)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(f.is_open()) << path;
    f << std::string(bytes, 'x');
    f.close();
    if (ageSeconds > 0) {
        timeval now = {};
        gettimeofday(&now, nullptr);
        timeval times[2] = {now, now};
        times[0].tv_sec -= ageSeconds;
        times[1].tv_sec -= ageSeconds;
        ASSERT_EQ(utimes(path.c_str(), times), 0)
            << path << ": " << std::strerror(errno);
    }
}

bool
fileExists(const std::string &path)
{
    struct stat st = {};
    return stat(path.c_str(), &st) == 0;
}

/** Run `sweepc prune --dir dir --max-bytes N --quiet`; returns the
 *  child pid (caller reaps). */
pid_t
spawnPrune(const std::string &dir, std::uint64_t maxBytes)
{
    pid_t pid = fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        std::string mb = std::to_string(maxBytes);
        execl(SWEEPC_BIN, "sweepc", "prune", "--dir", dir.c_str(),
              "--max-bytes", mb.c_str(), "--quiet",
              static_cast<char *>(nullptr));
        _exit(127);
    }
    return pid;
}

} // namespace

TEST(SweepcPrune, RacingPrunesSpareFreshArtifactsAndLiveTempFiles)
{
    char tmpl[] = "/tmp/clustersim-prune-XXXXXX";
    char *p = mkdtemp(tmpl);
    ASSERT_NE(p, nullptr);
    std::string dir = p;

    // Five cold artifacts an hour old, one artifact a daemon wrote
    // moments ago, one in-flight temp file (fresh: a writer is between
    // create and rename), and one crashed-writer temp an hour old.
    for (int i = 0; i < 5; i++)
        writeArtifact(dir + "/old" + std::to_string(i) + ".cpt", 100,
                      3600 + i);
    writeArtifact(dir + "/fresh.cpt", 100, 0);
    writeArtifact(dir + "/.tmp-42-1", 100, 0);
    writeArtifact(dir + "/.tmp-42-2", 100, 3600);

    // Two prunes race on the same store, as cron overlap would. The
    // budget (150) forces every cold artifact out; entries vanishing
    // mid-walk must be charged as freed, not skipped, or the loser of
    // the race over-deletes into the fresh artifact.
    pid_t a = spawnPrune(dir, 150);
    pid_t b = spawnPrune(dir, 150);
    int statusA = 0, statusB = 0;
    ASSERT_EQ(waitpid(a, &statusA, 0), a);
    ASSERT_EQ(waitpid(b, &statusB, 0), b);
    ASSERT_TRUE(WIFEXITED(statusA));
    ASSERT_TRUE(WIFEXITED(statusB));
    EXPECT_EQ(WEXITSTATUS(statusA), 0);
    EXPECT_EQ(WEXITSTATUS(statusB), 0);

    // The racing writer's artifact and its live temp file survive;
    // the cold artifacts and the crashed writer's debris are gone.
    EXPECT_TRUE(fileExists(dir + "/fresh.cpt"));
    EXPECT_TRUE(fileExists(dir + "/.tmp-42-1"));
    EXPECT_FALSE(fileExists(dir + "/.tmp-42-2"));
    for (int i = 0; i < 5; i++)
        EXPECT_FALSE(fileExists(dir + "/old" + std::to_string(i) +
                                ".cpt"));

    // Re-pruning an already-compliant store is a no-op.
    pid_t c = spawnPrune(dir, 150);
    int statusC = 0;
    ASSERT_EQ(waitpid(c, &statusC, 0), c);
    ASSERT_TRUE(WIFEXITED(statusC) && WEXITSTATUS(statusC) == 0);
    EXPECT_TRUE(fileExists(dir + "/fresh.cpt"));
    EXPECT_TRUE(fileExists(dir + "/.tmp-42-1"));

    for (const char *f : {"/fresh.cpt", "/.tmp-42-1"})
        std::remove((dir + f).c_str());
    rmdir(dir.c_str());
}

TEST(SweepcPrune, MalformedMaxBytesExitsTwoAndDeletesNothing)
{
    char tmpl[] = "/tmp/clustersim-prune-XXXXXX";
    char *p = mkdtemp(tmpl);
    ASSERT_NE(p, nullptr);
    std::string dir = p;
    for (int i = 0; i < 3; i++)
        writeArtifact(dir + "/old" + std::to_string(i) + ".ckp", 100000,
                      3600);

    // "10G" once read as 10 bytes, and prune emptied the store.
    EXPECT_EQ(exitStatusOf({SWEEPC_BIN, "prune", "--dir", dir,
                            "--max-bytes", "10G", "--quiet"}),
              2);
    for (int i = 0; i < 3; i++) {
        std::string f = dir + "/old" + std::to_string(i) + ".ckp";
        EXPECT_TRUE(fileExists(f)) << f;
        std::remove(f.c_str());
    }
    rmdir(dir.c_str());
}
