/**
 * @file
 * Sweep-service client.
 *
 *   sweepc [--port N | --port-file F] COMMAND [options]
 *
 * commands:
 *   submit    run a preset on the daemon and collect the report
 *   stats     print the daemon's cache + scheduler counters
 *   ping      protocol round-trip check
 *   shutdown  ask the daemon to drain and exit
 *   prune     bound on-disk store size (no daemon needed)
 *
 * `submit --out FILE` writes the streamed report exactly as
 * `sweep --preset NAME --no-timing --out FILE` would (report + "\n"),
 * so the two files can be compared with cmp(1) -- the conformance
 * contract CI enforces. `--require-cached FRAC` fails the exit status
 * when fewer than FRAC of the points were served from the cache, which
 * is how warm-path tests pin that caching actually happened;
 * `--require-warm FRAC` is the analogous gate on warm-started warmups
 * among the points that were actually computed.
 *
 * `prune --dir DIR [--dir DIR ...] --max-bytes N` walks the given
 * store directories (result caches and checkpoint stores alike),
 * deletes leftover writer temp files, and then deletes
 * oldest-modified-first artifacts (*.cpt result payloads, *.ckp
 * checkpoint blobs) until the combined size is within the bound. It
 * operates on the filesystem directly -- safe to run from cron while a
 * daemon is up, because stores treat a vanished file as a plain miss.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/parse.hh"

using namespace clustersim;

namespace {

int
usage(const char *prog, int code)
{
    std::fprintf(stderr,
                 "usage: %s [--port N | --port-file F] COMMAND "
                 "[options]\n"
                 "\n"
                 "commands:\n"
                 "  submit --preset NAME [--warmup N] [--measure N]\n"
                 "         [--active-clusters N] [--out FILE]\n"
                 "         [--require-cached FRAC] [--require-warm "
                 "FRAC] [--quiet]\n"
                 "  stats\n"
                 "  ping\n"
                 "  shutdown\n"
                 "  prune --dir DIR [--dir DIR ...] --max-bytes N "
                 "[--quiet]\n",
                 prog);
    return code;
}

/** Line-oriented blocking client connection. */
class Client
{
  public:
    explicit Client(int port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd_ < 0)
            fatal("sweepc: socket: ", std::strerror(errno));
        sockaddr_in addr = {};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) != 0)
            fatal("sweepc: connect 127.0.0.1:", port, ": ",
                  std::strerror(errno));
        // Frames go out as they are written, not held for an ACK.
        int one = 1;
        ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }

    ~Client()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    void
    sendLine(const std::string &frame)
    {
        std::string line = frame + "\n";
        std::size_t off = 0;
        while (off < line.size()) {
            ssize_t n = ::send(fd_, line.data() + off,
                               line.size() - off, MSG_NOSIGNAL);
            if (n <= 0)
                fatal("sweepc: send: connection lost");
            off += static_cast<std::size_t>(n);
        }
    }

    /** Next frame line, or false on EOF. */
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

    /** Read one frame and parse it; fatal on EOF or non-JSON. */
    JsonValue
    readFrame()
    {
        std::string line;
        if (!readLine(line))
            fatal("sweepc: server closed the connection");
        return parseJson(line);
    }

    /** Consume the hello frame every connection starts with. */
    void
    expectHello()
    {
        JsonValue hello = readFrame();
        if (!hello.isObject() || !hello.has("type") ||
            hello.at("type").asString() != "hello")
            fatal("sweepc: expected hello frame");
    }

  private:
    int fd_ = -1;
    std::string buf_;
};

int
runSubmit(Client &client, const std::string &preset,
          std::uint64_t warmup, std::uint64_t measure,
          int active_clusters, const std::string &out_path,
          double require_cached, double require_warm, bool quiet)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "submit");
    w.field("preset", preset);
    if (warmup > 0)
        w.field("warmup", warmup);
    if (measure > 0)
        w.field("measure", measure);
    if (active_clusters != 0) {
        w.key("overrides").beginObject();
        w.field("active_clusters", active_clusters);
        w.endObject();
    }
    w.endObject();
    client.sendLine(w.str());

    std::uint64_t total = 0;
    for (;;) {
        JsonValue frame = client.readFrame();
        const std::string &type = frame.at("type").asString();

        if (type == "error") {
            std::fprintf(stderr, "sweepc: error [%s]: %s\n",
                         frame.at("code").asString().c_str(),
                         frame.at("message").asString().c_str());
            return 1;
        }
        if (type == "accepted") {
            total = static_cast<std::uint64_t>(
                frame.at("points").asInt());
            if (!quiet)
                std::fprintf(
                    stderr,
                    "sweepc: job %lld accepted: %llu points, "
                    "%lld cached\n",
                    static_cast<long long>(frame.at("job").asInt()),
                    static_cast<unsigned long long>(total),
                    static_cast<long long>(frame.at("cached").asInt()));
            continue;
        }
        if (type == "point") {
            if (!quiet)
                std::fprintf(
                    stderr, "  [%3lld/%3llu] %-8s %-24s IPC %.3f (%s)\n",
                    static_cast<long long>(frame.at("done").asInt()),
                    static_cast<unsigned long long>(total),
                    frame.at("benchmark").asString().c_str(),
                    frame.at("config").asString().c_str(),
                    frame.at("ipc").numberOrNaN(),
                    frame.at("source").asString().c_str());
            continue;
        }
        if (type == "point_error") {
            std::fprintf(
                stderr, "  [%3lld/%3llu] point %lld FAILED: %s\n",
                static_cast<long long>(frame.at("done").asInt()),
                static_cast<unsigned long long>(total),
                static_cast<long long>(frame.at("index").asInt()),
                frame.at("error").asString().c_str());
            continue;
        }
        if (type != "done")
            continue; // tolerate future frame types

        const std::string &status = frame.at("status").asString();
        std::uint64_t hits =
            static_cast<std::uint64_t>(frame.at("cache_hits").asInt());
        std::uint64_t computed =
            static_cast<std::uint64_t>(frame.at("computed").asInt());
        std::uint64_t merged =
            static_cast<std::uint64_t>(frame.at("merged").asInt());
        // Absent on pre-checkpoint daemons; treat as zero warm starts.
        std::uint64_t warm_hits =
            frame.has("warm_hits")
                ? static_cast<std::uint64_t>(
                      frame.at("warm_hits").asInt())
                : 0;
        if (!quiet)
            std::fprintf(
                stderr,
                "sweepc: %s; cache %llu, computed %llu (warm %llu), "
                "merged %llu, failed %lld, cancelled %lld\n",
                status.c_str(), static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(computed),
                static_cast<unsigned long long>(warm_hits),
                static_cast<unsigned long long>(merged),
                static_cast<long long>(frame.at("failed").asInt()),
                static_cast<long long>(frame.at("cancelled").asInt()));
        if (status != "ok")
            return 1;

        if (!out_path.empty()) {
            const std::string &report = frame.at("report").asString();
            if (out_path == "-") {
                std::printf("%s\n", report.c_str());
            } else {
                std::ofstream f(out_path, std::ios::binary);
                if (!f) {
                    std::fprintf(stderr, "sweepc: cannot write %s\n",
                                 out_path.c_str());
                    return 1;
                }
                f << report << "\n";
            }
        }
        if (require_cached > 0.0 && total > 0) {
            double frac =
                static_cast<double>(hits) / static_cast<double>(total);
            if (frac < require_cached) {
                std::fprintf(stderr,
                             "sweepc: cached fraction %.2f below "
                             "required %.2f\n",
                             frac, require_cached);
                return 1;
            }
        }
        if (require_warm > 0.0 && computed + merged > 0) {
            // Denominator: points that actually ran a simulation (or
            // merged into one); cache-replayed points never warm up at
            // all, so they neither help nor hurt the gate.
            double frac = static_cast<double>(warm_hits) /
                          static_cast<double>(computed + merged);
            if (frac < require_warm) {
                std::fprintf(stderr,
                             "sweepc: warm fraction %.2f below "
                             "required %.2f\n",
                             frac, require_warm);
                return 1;
            }
        }
        return 0;
    }
}

/** One prunable artifact on disk. */
struct PruneEntry {
    std::string path;
    std::uint64_t bytes = 0;
    std::time_t mtime = 0;
};

/**
 * Writers create `.tmp-<pid>-<serial>` and atomically rename it into
 * place. A temp file younger than this is presumed to belong to a
 * live writer between create and rename; deleting it would fail that
 * writer's store. Anything older is debris from a crashed writer.
 */
constexpr std::time_t kTmpGraceSeconds = 60;

bool
hasSuffix(const std::string &s, const char *suffix)
{
    std::size_t n = std::strlen(suffix);
    return s.size() >= n &&
           s.compare(s.size() - n, n, suffix) == 0;
}

int
runPrune(const std::vector<std::string> &dirs, std::uint64_t max_bytes,
         bool quiet)
{
    std::vector<PruneEntry> entries;
    std::uint64_t total = 0;
    std::size_t stale_tmp = 0;
    for (const std::string &dir : dirs) {
        DIR *d = opendir(dir.c_str());
        if (!d) {
            std::fprintf(stderr, "sweepc: cannot open %s: %s\n",
                         dir.c_str(), std::strerror(errno));
            return 1;
        }
        while (struct dirent *e = readdir(d)) {
            std::string name = e->d_name;
            std::string path = dir + "/" + name;
            // Leftover temp files from crashed writers are plain
            // garbage: unreferenced, never read back. Drop them --
            // but only past the grace window, so a daemon writer
            // between create and rename keeps its file.
            if (name.compare(0, 5, ".tmp-") == 0) {
                struct stat st = {};
                // simlint-ignore(D002): prune is an operations tool
                // comparing host mtimes; nothing simulated depends on
                // this clock read
                std::time_t now = std::time(nullptr);
                if (stat(path.c_str(), &st) == 0 &&
                    now - st.st_mtime < kTmpGraceSeconds)
                    continue;
                if (std::remove(path.c_str()) == 0)
                    stale_tmp++;
                continue;
            }
            if (!hasSuffix(name, ".cpt") && !hasSuffix(name, ".ckp"))
                continue;
            struct stat st = {};
            if (stat(path.c_str(), &st) != 0 || !S_ISREG(st.st_mode))
                continue;
            PruneEntry pe;
            pe.path = std::move(path);
            pe.bytes = static_cast<std::uint64_t>(st.st_size);
            pe.mtime = st.st_mtime;
            total += pe.bytes;
            entries.push_back(std::move(pe));
        }
        closedir(d);
    }

    // Oldest-modified first; path as a deterministic tiebreak.
    std::sort(entries.begin(), entries.end(),
              [](const PruneEntry &a, const PruneEntry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime < b.mtime;
                  return a.path < b.path;
              });

    std::size_t removed = 0, vanished = 0;
    std::uint64_t freed = 0;
    for (const PruneEntry &pe : entries) {
        if (total <= max_bytes)
            break;
        // The scan-to-unlink window is racy against a live daemon:
        // re-check the artifact just before removing it. A newer
        // mtime means the daemon re-wrote the entry after we ranked
        // it as cold -- keep it and free space elsewhere.
        struct stat st = {};
        if (stat(pe.path.c_str(), &st) == 0 && st.st_mtime > pe.mtime)
            continue;
        if (std::remove(pe.path.c_str()) != 0) {
            if (errno == ENOENT) {
                // A concurrent prune (or the daemon) already dropped
                // it; its bytes are gone either way. Account for them
                // so this pass does not over-delete live artifacts to
                // compensate.
                total -= pe.bytes;
                vanished++;
            }
            continue;
        }
        total -= pe.bytes;
        freed += pe.bytes;
        removed++;
    }

    if (!quiet)
        std::fprintf(stderr,
                     "sweepc: prune kept %llu bytes in %llu artifacts; "
                     "removed %llu artifacts (%llu bytes), %llu stale "
                     "temp files\n",
                     static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(entries.size() -
                                                     removed - vanished),
                     static_cast<unsigned long long>(removed),
                     static_cast<unsigned long long>(freed),
                     static_cast<unsigned long long>(stale_tmp));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    int port = 0;
    std::string port_file;
    std::string command;
    std::string preset;
    std::string out_path;
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    int active_clusters = 0;
    double require_cached = 0.0;
    double require_warm = 0.0;
    bool quiet = false;
    std::vector<std::string> prune_dirs;
    std::uint64_t max_bytes = 0;
    bool have_max_bytes = false;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto need = [&](const char *flag) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires an argument\n", flag);
                std::exit(usage(argv[0], 2));
            }
            return argv[++i];
        };
        if (arg == "--port") {
            port = flagNumber("--port", need("--port"), 65535);
        } else if (arg == "--port-file") {
            port_file = need("--port-file");
        } else if (arg == "--preset") {
            preset = need("--preset");
        } else if (arg == "--warmup") {
            warmup = flagNumber<std::uint64_t>("--warmup", need("--warmup"));
        } else if (arg == "--measure") {
            measure =
                flagNumber<std::uint64_t>("--measure", need("--measure"));
        } else if (arg == "--active-clusters") {
            active_clusters = flagNumber<int>("--active-clusters",
                                             need("--active-clusters"));
        } else if (arg == "--out") {
            out_path = need("--out");
        } else if (arg == "--require-cached") {
            require_cached =
                flagNumber("--require-cached", need("--require-cached"), 1.0);
        } else if (arg == "--require-warm") {
            require_warm =
                flagNumber("--require-warm", need("--require-warm"), 1.0);
        } else if (arg == "--dir") {
            prune_dirs.push_back(need("--dir"));
        } else if (arg == "--max-bytes") {
            max_bytes =
                flagNumber<std::uint64_t>("--max-bytes", need("--max-bytes"));
            have_max_bytes = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else if (command.empty() && !arg.empty() && arg[0] != '-') {
            command = arg;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    if (command.empty())
        return usage(argv[0], 2);
    if (command == "prune") {
        // Pure filesystem work: no daemon, no port.
        if (prune_dirs.empty() || !have_max_bytes) {
            std::fprintf(stderr,
                         "sweepc: prune needs --dir and --max-bytes\n");
            return usage(argv[0], 2);
        }
        return runPrune(prune_dirs, max_bytes, quiet);
    }
    if (!port_file.empty()) {
        std::ifstream f(port_file);
        if (!f || !(f >> port)) {
            std::fprintf(stderr, "sweepc: cannot read port from %s\n",
                         port_file.c_str());
            return 1;
        }
    }
    if (port <= 0) {
        std::fprintf(stderr, "sweepc: need --port or --port-file\n");
        return usage(argv[0], 2);
    }

    Client client(port);
    client.expectHello();

    if (command == "submit") {
        if (preset.empty()) {
            std::fprintf(stderr, "sweepc: submit needs --preset\n");
            return usage(argv[0], 2);
        }
        return runSubmit(client, preset, warmup, measure,
                         active_clusters, out_path, require_cached,
                         require_warm, quiet);
    }
    if (command == "stats") {
        JsonWriter w;
        w.beginObject();
        w.field("type", "stats");
        w.endObject();
        client.sendLine(w.str());
        std::string line;
        if (!client.readLine(line)) {
            std::fprintf(stderr, "sweepc: no stats reply\n");
            return 1;
        }
        std::printf("%s\n", line.c_str());
        return 0;
    }
    if (command == "ping") {
        JsonWriter w;
        w.beginObject();
        w.field("type", "ping");
        w.endObject();
        client.sendLine(w.str());
        JsonValue pong = client.readFrame();
        if (!pong.isObject() || !pong.has("type") ||
            pong.at("type").asString() != "pong") {
            std::fprintf(stderr, "sweepc: unexpected ping reply\n");
            return 1;
        }
        std::printf("pong (%s)\n",
                    pong.at("protocol").asString().c_str());
        return 0;
    }
    if (command == "shutdown") {
        JsonWriter w;
        w.beginObject();
        w.field("type", "shutdown");
        w.endObject();
        client.sendLine(w.str());
        std::string line;
        while (client.readLine(line)) {
        } // drain until the server closes
        return 0;
    }

    std::fprintf(stderr, "unknown command: %s\n", command.c_str());
    return usage(argv[0], 2);
}
