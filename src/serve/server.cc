// simlint: thread-launcher -- spawns one reader thread per accepted
// connection; all are joined by run() before it returns

#include "serve/server.hh"

#include <cerrno>
#include <cstring>
#include <fstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "serve/protocol.hh"
#include "sim/checkpoint.hh"

namespace clustersim {
namespace serve {

/** Per-client state, shared between the reader thread and the
 *  scheduler callbacks that stream frames back. */
struct SweepServer::Connection {
    explicit Connection(int socket_fd) : fd(socket_fd) {}
    ~Connection()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Write one frame line; drops silently once the peer is gone. */
    void
    sendLine(const std::string &frame) CSIM_EXCLUDES(writeMutex)
    {
        MutexLock lock(writeMutex);
        if (closed)
            return;
        std::string line = frame + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
            if (n <= 0) {
                closed = true;
                return;
            }
            off += static_cast<std::size_t>(n);
        }
    }

    /** Stop all traffic and unblock the reader's recv(). The fd stays
     *  open (dtor closes) so late writers can never hit a reused fd. */
    void
    shutdownBoth() CSIM_EXCLUDES(writeMutex)
    {
        MutexLock lock(writeMutex);
        closed = true;
        ::shutdown(fd, SHUT_RDWR);
    }

    void
    addJob(std::uint64_t job) CSIM_EXCLUDES(jobsMutex)
    {
        MutexLock lock(jobsMutex);
        jobs.push_back(job);
    }

    std::vector<std::uint64_t>
    takeJobs() CSIM_EXCLUDES(jobsMutex)
    {
        MutexLock lock(jobsMutex);
        return std::move(jobs);
    }

    // simlint-ignore(C001): immutable after construction (closed only
    // by the destructor, after both users are done)
    int fd = -1;
    /** Scheduler callbacks write frames while holding the scheduler
     *  lock, so writeMutex ranks below it (see docs/SERVING.md). */
    Mutex writeMutex;
    bool closed CSIM_GUARDED_BY(writeMutex) = false;
    Mutex jobsMutex;
    std::vector<std::uint64_t> jobs CSIM_GUARDED_BY(jobsMutex);
};

SweepServer::SweepServer(CacheStore &cache, Config cfg)
    : cache_(cache), cfg_(cfg),
      scheduler_(cache, PointScheduler::Config{
                            cfg.workers, cfg.maxActiveJobs,
                            cfg.checkpoints})
{
    if (::pipe(stopPipe_) != 0)
        fatal("serve: pipe: ", std::strerror(errno));

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: socket: ", std::strerror(errno));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        fatal("serve: bind 127.0.0.1:", cfg_.port, ": ",
              std::strerror(errno));
    if (::listen(listenFd_, 16) != 0)
        fatal("serve: listen: ", std::strerror(errno));

    socklen_t len = sizeof(addr);
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        fatal("serve: getsockname: ", std::strerror(errno));
    port_ = static_cast<int>(ntohs(addr.sin_port));

    if (!cfg_.portFile.empty()) {
        std::ofstream f(cfg_.portFile, std::ios::trunc);
        if (!f)
            fatal("serve: cannot write port file '", cfg_.portFile, "'");
        f << port_ << "\n";
    }
}

SweepServer::~SweepServer()
{
    if (listenFd_ >= 0)
        ::close(listenFd_);
    for (int fd : stopPipe_)
        if (fd >= 0)
            ::close(fd);
}

void
SweepServer::requestStop()
{
    char byte = 's';
    // Best effort: a full pipe already means a stop is pending.
    (void)!::write(stopPipe_[1], &byte, 1);
}

void
SweepServer::run()
{
    for (;;) {
        pollfd fds[2] = {};
        fds[0].fd = stopPipe_[0];
        fds[0].events = POLLIN;
        fds[1].fd = listenFd_;
        fds[1].events = POLLIN;
        int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            fatal("serve: poll: ", std::strerror(errno));
        }
        if (fds[0].revents != 0)
            break; // requestStop()
        if ((fds[1].revents & POLLIN) == 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        auto conn = std::make_shared<Connection>(fd);
        {
            MutexLock lock(connsMutex_);
            conns_.push_back(conn);
        }
        readers_.emplace_back(
            [this, conn] { handleConnection(conn); });
    }

    // Drain: running points finish (into the cache and their client
    // streams), everything queued is cancelled with terminal frames.
    ::close(listenFd_);
    listenFd_ = -1;
    scheduler_.drain();

    std::vector<std::shared_ptr<Connection>> conns;
    {
        MutexLock lock(connsMutex_);
        conns = conns_;
    }
    for (const auto &c : conns)
        c->shutdownBoth();
    for (std::thread &t : readers_)
        if (t.joinable())
            t.join();
}

void
SweepServer::handleConnection(const std::shared_ptr<Connection> &conn)
{
    conn->sendLine(helloFrame());

    std::string buf;
    bool discarding = false;
    char chunk[4096];
    for (;;) {
        ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            break;
        buf.append(chunk, static_cast<std::size_t>(n));
        for (;;) {
            std::size_t nl = buf.find('\n');
            if (nl == std::string::npos) {
                // A line that outgrows the frame bound is answered
                // once, then discarded up to its newline so the
                // connection stays usable.
                if (!discarding && buf.size() > maxFrameBytes) {
                    conn->sendLine(errorFrame(
                        "oversized",
                        "frame exceeds " +
                            std::to_string(maxFrameBytes) + " bytes"));
                    discarding = true;
                }
                if (discarding)
                    buf.clear();
                break;
            }
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (discarding) {
                discarding = false;
                continue;
            }
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            dispatchLine(conn, line);
        }
    }

    // Disconnect cancels exactly this connection's unfinished jobs;
    // other clients and the cache are untouched.
    for (std::uint64_t job : conn->takeJobs())
        scheduler_.cancel(job);
    conn->shutdownBoth();
}

void
SweepServer::dispatchLine(const std::shared_ptr<Connection> &conn,
                          const std::string &line)
{
    ParsedRequest p = parseRequest(line);
    if (!p.ok) {
        conn->sendLine(errorFrame(p.errorCode, p.errorMessage));
        return;
    }

    switch (p.req.kind) {
    case Request::Kind::Ping:
        conn->sendLine(pongFrame());
        return;

    case Request::Kind::Stats: {
        std::uint64_t entries = 0, bytes = 0;
        cache_.diskUsage(entries, bytes);
        if (cfg_.checkpoints) {
            CheckpointStats cs = cfg_.checkpoints->stats();
            std::uint64_t centries = 0, cbytes = 0;
            cfg_.checkpoints->diskUsage(centries, cbytes);
            conn->sendLine(statsFrame(cache_.stats(), entries, bytes,
                                      scheduler_.stats(), &cs, centries,
                                      cbytes));
        } else {
            conn->sendLine(statsFrame(cache_.stats(), entries, bytes,
                                      scheduler_.stats()));
        }
        return;
    }

    case Request::Kind::Cancel:
        if (scheduler_.cancel(p.req.job))
            conn->sendLine(cancelledFrame(p.req.job));
        else
            conn->sendLine(errorFrame(
                "unknown_job", "no active job " +
                                   std::to_string(p.req.job)));
        return;

    case Request::Kind::Shutdown: {
        JsonWriter w;
        w.beginObject();
        w.field("type", "shutting_down");
        w.endObject();
        conn->sendLine(w.str());
        requestStop();
        return;
    }

    case Request::Kind::Submit: {
        // The frame builders need the job id, which submit() hands
        // back only after registering the callbacks; no callback can
        // fire before start(), so filling the shared id in between is
        // race-free.
        auto jobId = std::make_shared<std::uint64_t>(0);
        JobEvents ev;
        ev.onPoint = [conn, jobId](std::size_t index, PointSource src,
                                   const std::string &benchmark,
                                   const std::string &config, double ipc,
                                   std::size_t done, std::size_t total) {
            conn->sendLine(pointFrame(*jobId, index, src, benchmark,
                                      config, ipc, done, total));
        };
        ev.onPointError = [conn, jobId](std::size_t index,
                                        const std::string &message,
                                        std::size_t done,
                                        std::size_t total) {
            conn->sendLine(pointErrorFrame(*jobId, index, message, done,
                                           total));
        };
        ev.onDone = [conn, jobId](const std::string &status,
                                  const std::string &report,
                                  std::size_t cacheHits,
                                  std::size_t computed,
                                  std::size_t warmHits,
                                  std::size_t merged, std::size_t failed,
                                  std::size_t cancelled) {
            conn->sendLine(doneFrame(*jobId, status, report, cacheHits,
                                     computed, warmHits, merged, failed,
                                     cancelled));
        };

        SubmitResult r = scheduler_.submit(p.req.submit, std::move(ev));
        if (!r.ok) {
            conn->sendLine(errorFrame(r.errorCode, r.errorMessage));
            return;
        }
        *jobId = r.job;
        conn->addJob(r.job);
        conn->sendLine(acceptedFrame(r.job, r.points, r.cached,
                                     submitFingerprint(p.req.submit)));
        scheduler_.start(r.job);
        return;
    }
    }
}

} // namespace serve
} // namespace clustersim
