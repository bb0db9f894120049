/**
 * @file
 * served-mixed: a fresh sweepd per pass, driven closed-loop over
 * loopback NDJSON.
 *
 * Each pass starts the daemon (result cache and checkpoint store in a
 * fresh directory, --port 0 --port-file), opens two connections from
 * this process, and has each connection submit its own seed-drawn job
 * sequence one job at a time: a job is sent only after the previous
 * one's `done` frame arrived. Jobs come from a Zipf-weighted pool of
 * small (preset, warmup, measure) sweeps, so most are exact repeats
 * (cache reads), some are new measure windows on a warmup already seen
 * (checkpoint reads plus cache writes), and a few are fresh points or
 * concurrent duplicates (in-flight merge). The pass ends with a stats
 * frame and a SIGTERM drain; a nonzero exit or a daemon that outlives
 * the drain fails the pass.
 *
 * Every `done` report must be byte-identical to the report an
 * in-process cold runSweep() produces for the same job.
 */

#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"

extern char **environ;

using namespace clustersim;

namespace e2ebench {

namespace {

struct PoolEntry {
    const char *preset;
    std::uint64_t warmup;
    std::uint64_t measure;
};

/**
 * The job pool, in popularity order (Zipf rank k has weight 1/k^1.1).
 * Three warmups are fresh points (table3 and smoke at 4000, table3 at
 * 8000); every other entry is a new measure window on one of them, so
 * its first submission restores checkpoints. Apart from the two smoke
 * entries, every computed job is a 9-point table3 sweep, which keeps the
 * latency tail (the jobs that compute) homogeneous.
 */
std::vector<PoolEntry>
jobPool(bool tiny)
{
    std::vector<PoolEntry> pool = {{"table3", 4000, 2000},
                                   {"smoke", 4000, 2000},
                                   {"table3", 8000, 2000},
                                   {"smoke", 4000, 3000}};
    if (tiny)
        return pool;
    for (std::uint64_t m = 1000; m <= 7000; m += 250)
        for (std::uint64_t w : {4000, 8000})
            if (m != 2000)
                pool.push_back({"table3", w, m});
    return pool;
}

std::uint64_t
splitmix(std::uint64_t &s)
{
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Connection `conn`'s job sequence: pool indices drawn by the seed. */
std::vector<std::size_t>
drawJobs(std::uint64_t seed, int conn, std::size_t pool, std::size_t count)
{
    std::vector<double> cum;
    double total = 0.0;
    for (std::size_t k = 0; k < pool; k++)
        cum.push_back(total += 1.0 / std::pow(double(k + 1), 1.1));
    std::uint64_t s = seed * 0x100000001b3ULL + std::uint64_t(conn) + 1;
    std::vector<std::size_t> jobs;
    for (std::size_t j = 0; j < count; j++) {
        double u = double(splitmix(s) >> 11) * 0x1.0p-53 * total;
        std::size_t k = 0;
        while (k + 1 < pool && cum[k] <= u)
            k++;
        jobs.push_back(k);
    }
    return jobs;
}

std::string
submitFrame(const PoolEntry &e)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "submit");
    w.field("preset", e.preset);
    w.field("warmup", e.warmup);
    w.field("measure", e.measure);
    w.endObject();
    return w.str();
}

/** Blocking line-oriented loopback connection. */
class Conn
{
  public:
    explicit Conn(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                                 sizeof(addr)) != 0)
            fatal("e2ebench: connect 127.0.0.1:", port, ": ",
                  std::strerror(errno));
    }
    ~Conn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Conn(const Conn &) = delete;
    Conn &operator=(const Conn &) = delete;

    void
    send(const std::string &frame)
    {
        std::string line = frame + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0)
                fatal("e2ebench: send: connection lost");
            off += static_cast<std::size_t>(n);
        }
    }

    std::string
    readLine()
    {
        for (;;) {
            std::size_t nl = buf_.find('\n', scan_);
            if (nl != std::string::npos) {
                std::string line = buf_.substr(0, nl);
                buf_.erase(0, nl + 1);
                scan_ = 0;
                return line;
            }
            scan_ = buf_.size();
            char chunk[65536];
            ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0)
                fatal("e2ebench: server closed the connection");
            buf_.append(chunk, static_cast<std::size_t>(n));
        }
    }

    /** The type member of a server frame (always written first). */
    static std::string
    frameType(const std::string &line)
    {
        const char prefix[] = "{\"type\":\"";
        if (line.compare(0, sizeof(prefix) - 1, prefix) != 0)
            return {};
        std::size_t at = sizeof(prefix) - 1;
        return line.substr(at, line.find('"', at) - at);
    }

  private:
    int fd_ = -1;
    std::string buf_;
    std::size_t scan_ = 0;
};

/** One sweepd process, stopped and reaped by stop() or the destructor. */
class Daemon
{
  public:
    Daemon(const std::string &dir, int workers)
    {
        std::filesystem::create_directories(dir);
        std::string port_file = dir + "/port";
        std::vector<std::string> args = {
            E2EBENCH_SWEEPD, "--port", "0", "--port-file", port_file,
            "--cache", dir + "/cache", "--checkpoints", dir + "/ckpt",
            "--workers", std::to_string(workers)};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        std::string log = dir + "/sweepd.log";
        posix_spawn_file_actions_addopen(&fa, 2, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC, 0644);

        Clock::time_point t0 = Clock::now();
        int rc = posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                             environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0) {
            pid_ = -1;
            fatal("e2ebench: cannot start sweepd: ", std::strerror(rc));
        }
        try {
            awaitHello(port_file, t0);
        } catch (...) {
            // No destructor runs for a half-built object: reap here.
            if (pid_ > 0) {
                ::kill(pid_, SIGKILL);
                waitpid(pid_, nullptr, 0);
            }
            throw;
        }
        startSeconds_ = secondsBetween(t0, Clock::now());
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    int port() const { return port_; }
    double startSeconds() const { return startSeconds_; }
    /** The connection whose hello closed the start-up measurement. */
    std::unique_ptr<Conn> takeConn() { return std::move(first_); }

    /** SIGTERM drain; false (with a reason) unless it exits 0 in time. */
    bool
    stop(double &peak_rss_mb, std::string &why)
    {
        first_.reset();
        ::kill(pid_, SIGTERM);
        Clock::time_point t0 = Clock::now();
        int status = 0;
        rusage ru = {};
        for (;;) {
            pid_t r = wait4(pid_, &status, WNOHANG, &ru);
            if (r == pid_)
                break;
            if (secondsBetween(t0, Clock::now()) > 30) {
                why = "sweepd did not exit within 30 s of SIGTERM";
                return false; // the destructor kills and reaps it
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
        peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            why = "sweepd exited abnormally (status " +
                  std::to_string(status) + ")";
            return false;
        }
        return true;
    }

  private:
    /** Poll the port file, connect, and read the hello frame. */
    void
    awaitHello(const std::string &port_file, Clock::time_point t0)
    {
        for (;;) {
            std::ifstream f(port_file);
            std::string text((std::istreambuf_iterator<char>(f)),
                             std::istreambuf_iterator<char>());
            if (!text.empty() && text.back() == '\n') {
                port_ = std::atoi(text.c_str());
                break;
            }
            if (waitpid(pid_, nullptr, WNOHANG) == pid_) {
                pid_ = -1;
                fatal("e2ebench: sweepd exited during start-up");
            }
            if (secondsBetween(t0, Clock::now()) > 30)
                fatal("e2ebench: sweepd did not announce its port");
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
        first_ = std::make_unique<Conn>(port_);
        if (Conn::frameType(first_->readLine()) != "hello")
            fatal("e2ebench: expected a hello frame");
    }

    pid_t pid_ = -1;
    int port_ = 0;
    double startSeconds_ = 0.0;
    std::unique_ptr<Conn> first_;
};

/** Client-side record of one job. */
struct JobRecord {
    std::size_t entry = 0;
    Clock::time_point submit, accepted, lastPoint, done;
    bool ok = false;
    std::uint64_t warmHits = 0;
    std::size_t reportBytes = 0;
};

/** Closed loop over one connection; stops at the first protocol error. */
void
driveConnection(Conn &conn, const std::vector<std::size_t> &jobs,
                const std::vector<PoolEntry> &pool,
                const std::vector<std::string> &reference,
                std::vector<JobRecord> &records, std::string &error)
{
    for (std::size_t e : jobs) {
        JobRecord rec;
        rec.entry = e;
        rec.submit = Clock::now();
        conn.send(submitFrame(pool[e]));
        for (;;) {
            std::string line = conn.readLine();
            Clock::time_point t = Clock::now();
            std::string type = Conn::frameType(line);
            if (type == "point") {
                rec.lastPoint = t;
                continue;
            }
            if (type == "accepted") {
                rec.accepted = rec.lastPoint = t;
                continue;
            }
            if (type == "point_error") {
                rec.lastPoint = t;
                continue;
            }
            JsonValue f = parseJson(line);
            if (type == "done") {
                rec.done = t;
                const std::string &report = f.at("report").asString();
                rec.ok = f.at("status").asString() == "ok" &&
                         report == reference[e];
                rec.warmHits =
                    static_cast<std::uint64_t>(f.at("warm_hits").asInt());
                rec.reportBytes = report.size();
                break;
            }
            error = "unexpected frame: " + line.substr(0, 200);
            rec.done = t;
            break;
        }
        records.push_back(rec);
        if (!error.empty())
            return;
    }
}

/** Stats-frame scheduler counters we report. */
struct ServeCounters {
    double fromCache = 0, computed = 0, merged = 0, failed = 0,
           rejected = 0, ckptCorrupt = 0, ckptStoreFailures = 0,
           ckptEntries = 0, ckptBytes = 0;
};

ServeCounters
readStats(Conn &conn)
{
    conn.send("{\"type\":\"stats\"}");
    std::string line;
    while (Conn::frameType(line = conn.readLine()) != "stats") {
    }
    JsonValue f = parseJson(line);
    const JsonValue &s = f.at("scheduler");
    const JsonValue &k = f.at("checkpoints");
    ServeCounters c;
    c.fromCache = s.at("points_from_cache").asDouble();
    c.computed = s.at("points_computed").asDouble();
    c.merged = s.at("points_merged").asDouble();
    c.failed = s.at("points_failed").asDouble();
    c.rejected = s.at("jobs_rejected").asDouble();
    c.ckptCorrupt = k.at("corrupt").asDouble();
    c.ckptStoreFailures = k.at("store_failures").asDouble();
    c.ckptEntries = k.at("entries").asDouble();
    c.ckptBytes = k.at("bytes").asDouble();
    return c;
}

double
ms(Clock::time_point a, Clock::time_point b)
{
    return secondsBetween(a, b) * 1e3;
}

} // namespace

Outcome
runServedMixed(const RunConfig &cfg)
{
    Outcome out;
    const std::vector<PoolEntry> pool = jobPool(cfg.tiny);
    const std::size_t per_conn = cfg.tiny ? 25 : 500;
    const int conns = 2;

    // Cold in-process reference report of every pool entry (untimed):
    // each served `done` report must equal it byte for byte.
    std::vector<std::string> reference;
    std::vector<double> assemble_s;
    std::vector<double> entry_insts;
    std::string all_refs;
    for (const PoolEntry &e : pool) {
        std::vector<RunPoint> points =
            makeSweepPreset(e.preset, e.warmup, e.measure);
        SweepOptions opts;
        opts.threads = workers;
        SweepResult res = runSweep(points, opts);
        Clock::time_point t0 = Clock::now();
        reference.push_back(sweepReportJson(e.preset, points, res, false));
        assemble_s.push_back(secondsBetween(t0, Clock::now()));
        entry_insts.push_back(double(points.size()) *
                              double(e.warmup + e.measure));
        all_refs += sha256Hex(reference.back()) + "\n";
    }
    out.reportSha256 = sha256Hex(all_refs);

    std::vector<std::vector<std::size_t>> jobs;
    double insts = 0.0;
    for (int c = 0; c < conns; c++) {
        jobs.push_back(drawJobs(cfg.seed, c, pool.size(), per_conn));
        for (std::size_t e : jobs.back())
            insts += entry_insts[e];
    }

    std::vector<double> setup, walls, rss, store, job_ms;
    std::vector<double> accept_ms, stream_ms, done_ms;
    double report_bytes = 0, warm_hits = 0, jobs_seen = 0, assemble = 0;
    ServeCounters sum;
    int pass_no = 0, traced_passes = 0;
    std::vector<double> traced_walls;
    Clock::time_point epoch = Clock::now();
    if (cfg.trace)
        out.lanes.emplace_back(0, epoch);

    auto run_pass = [&](bool traced_pass) {
        const std::string dir =
            cfg.workdir + "/pass-" + std::to_string(pass_no++);
        Daemon d(dir, workers);
        setup.push_back(d.startSeconds());
        std::vector<std::unique_ptr<Conn>> cs;
        cs.push_back(d.takeConn());
        for (int c = 1; c < conns; c++) {
            cs.push_back(std::make_unique<Conn>(d.port()));
            if (Conn::frameType(cs.back()->readLine()) != "hello")
                fatal("e2ebench: expected a hello frame");
        }

        std::vector<std::vector<JobRecord>> recs(conns);
        std::vector<std::string> errs(conns);
        Clock::time_point t0 = Clock::now();
        {
            std::vector<std::thread> ts;
            for (int c = 0; c < conns; c++)
                ts.emplace_back([&, c] {
                    try {
                        driveConnection(*cs[c], jobs[c], pool, reference,
                                        recs[c], errs[c]);
                    } catch (const SimError &e) {
                        errs[c] = e.what();
                    }
                });
            for (std::thread &t : ts)
                t.join();
        }
        const double wall = secondsBetween(t0, Clock::now());
        ServeCounters st = readStats(*cs[0]);
        const double bytes = static_cast<double>(dirBytes(dir));
        cs.clear();
        double peak = 0.0;
        std::string why;
        if (!d.stop(peak, why))
            out.errors.push_back(why);
        std::filesystem::remove_all(dir);

        for (const std::string &e : errs)
            if (!e.empty())
                out.errors.push_back(e);
        for (int c = 0; c < conns; c++) {
            for (const JobRecord &r : recs[c]) {
                out.attempted++;
                if (!r.ok)
                    out.failed++;
            }
            // Jobs the connection never got to are failures too.
            std::size_t missing = jobs[c].size() - recs[c].size();
            out.attempted += missing;
            out.failed += missing;
        }

        if (!traced_pass) {
            walls.push_back(wall);
            rss.push_back(peak);
            store.push_back(bytes / 1e6);
            for (const auto &rs : recs)
                for (const JobRecord &r : rs)
                    job_ms.push_back(ms(r.submit, r.done));
            return;
        }
        traced_walls.push_back(wall);
        traced_passes++;
        SpanLane &lane = out.lanes[0];
        for (int c = 0; c < conns; c++)
            for (const JobRecord &r : recs[c]) {
                std::uint64_t id = std::uint64_t(pass_no) << 32 |
                                   std::uint64_t(c) << 24 |
                                   std::uint64_t(&r - recs[c].data());
                lane.add("job", r.submit, r.done, -1, id);
                int job = static_cast<int>(lane.spans().size()) - 1;
                lane.add("serve.accept", r.submit, r.accepted, job, id);
                lane.add("serve.stream", r.accepted, r.lastPoint, job, id);
                lane.add("serve.done", r.lastPoint, r.done, job, id);
                accept_ms.push_back(ms(r.submit, r.accepted));
                stream_ms.push_back(ms(r.accepted, r.lastPoint));
                done_ms.push_back(ms(r.lastPoint, r.done));
                report_bytes += r.reportBytes;
                warm_hits += r.warmHits;
                assemble += assemble_s[r.entry];
                jobs_seen++;
            }
        sum.fromCache += st.fromCache;
        sum.computed += st.computed;
        sum.merged += st.merged;
        sum.failed += st.failed;
        sum.rejected += st.rejected;
        sum.ckptCorrupt += st.ckptCorrupt;
        sum.ckptStoreFailures += st.ckptStoreFailures;
        sum.ckptEntries += st.ckptEntries;
        sum.ckptBytes += st.ckptBytes;
    };

    // Untraced passes; extra daemon starts top set-up up to nine samples.
    const double budget = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    Clock::time_point phase0 = Clock::now();
    do {
        run_pass(false);
    } while (secondsBetween(phase0, Clock::now()) + walls.back() <= budget);
    while (setup.size() < 9) {
        const std::string dir =
            cfg.workdir + "/start-" + std::to_string(setup.size());
        Daemon d(dir, workers);
        setup.push_back(d.startSeconds());
        double peak = 0.0;
        std::string why;
        if (!d.stop(peak, why))
            out.errors.push_back(why);
        std::filesystem::remove_all(dir);
    }

    Metrics &m = out.metrics;
    const double wall = median(walls);
    m.set("wall_s", wall, "s");
    m.set("mips", insts / wall / 1e6, "Minst/s");
    m.set("setup_s", median(setup), "s");
    m.set("peak_rss_mb", median(rss), "MB");
    m.set("store_mb", median(store), "MB");
    m.set("job_p50_ms", percentile(job_ms, 50), "ms");
    m.set("job_p99_ms", percentile(job_ms, 99), "ms");
    out.samples["job_latency"] = job_ms.size();
    out.samples["passes"] = walls.size();
    out.samples["setup"] = setup.size();

    if (cfg.trace) {
        zeroLayerMetrics(m);
        Clock::time_point t_phase = Clock::now();
        do {
            run_pass(true);
        } while (secondsBetween(t_phase, Clock::now()) + traced_walls.back() <=
                 cfg.seconds / 2);

        const double passes = traced_passes;
        m.set("report.assemble_s", assemble / passes, "s");
        m.set("report.bytes", report_bytes / jobs_seen, "bytes");
        m.set("serve.accept_ms_p50", median(accept_ms), "ms");
        m.set("serve.stream_ms_p50", median(stream_ms), "ms");
        m.set("serve.done_ms_p50", median(done_ms), "ms");
        const double served = sum.fromCache + sum.computed + sum.merged;
        m.set("serve.cache_hit_ratio", served ? sum.fromCache / served : 0.0,
              "ratio");
        m.set("serve.points_computed", sum.computed / passes, "count");
        m.set("serve.points_merged", sum.merged / passes, "count");
        m.set("serve.warm_hits", warm_hits / passes, "count");
        m.set("serve.points_failed", sum.failed / passes, "count");
        m.set("serve.jobs_rejected", sum.rejected / passes, "count");
        m.set("ckpt.bytes_per_point",
              sum.ckptEntries ? sum.ckptBytes / sum.ckptEntries : 0.0,
              "bytes");
        const double simulated = sum.computed + sum.merged;
        m.set("ckpt.hit_ratio", simulated ? warm_hits / simulated : 0.0,
              "ratio");
        m.set("ckpt.corrupt", sum.ckptCorrupt, "count");
        m.set("ckpt.store_failures", sum.ckptStoreFailures, "count");

        // Simulated denominators of the pool's reports (server-side
        // stall counters are not in the report and read 0 here).
        double committed = 0, cycles = 0, l1 = 0, active = 0, mi = 0,
               reconf = 0, n = 0;
        for (const std::string &r : reference) {
            JsonValue doc = parseJson(r);
            for (const JsonValue &run : doc.at("runs").asArray()) {
                const JsonValue &x = run.at("metrics");
                committed += x.at("instructions").asDouble();
                cycles += x.at("cycles").asDouble();
                l1 += x.at("l1_miss_rate").asDouble();
                active += x.at("avg_active_clusters").asDouble();
                mi += x.at("instructions").asDouble() /
                      x.at("mispredict_interval").asDouble();
                reconf += x.at("reconfigurations").asDouble();
                n++;
            }
        }
        m.set("core.committed", committed, "inst");
        m.set("core.sim_cycles", cycles, "cycles");
        m.set("memory.l1_miss_rate", l1 / n, "ratio");
        m.set("predictor.mispredict_interval", mi ? committed / mi : 0.0,
              "inst");
        m.set("reconfig.reconfigurations", reconf, "count");
        m.set("reconfig.avg_active_clusters", active / n, "clusters");

        SpanTotals tot;
        tot.addLane(out.lanes[0]);
        double phases = tot.sec("serve.accept") + tot.sec("serve.stream") +
                        tot.sec("serve.done");
        m.set("trace.coverage", tot.sec("job") ? phases / tot.sec("job")
                                               : 0.0,
              "ratio");
        m.set("trace_overhead_frac", median(traced_walls) / wall - 1.0,
              "ratio");
        m.set("failed_frac",
              out.attempted ? double(out.failed) / double(out.attempted)
                            : 0.0,
              "ratio");
        out.samples["traced_passes"] = traced_walls.size();
    }
    if (!out.errors.empty())
        out.failed = out.attempted;
    return out;
}

} // namespace e2ebench
