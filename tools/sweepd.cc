/**
 * @file
 * Resident sweep daemon: sweep-as-a-service over a loopback socket.
 *
 *   sweepd [--port N] [--port-file FILE] [--cache DIR] [--salt TAG]
 *          [--checkpoints DIR] [--checkpoint-salt TAG]
 *          [--workers N] [--max-jobs N]
 *
 * Clients (tools/sweepc, or anything that can speak newline-delimited
 * JSON; see docs/SERVING.md) submit preset sweeps and stream results
 * back. Finished points persist in a content-addressed cache under
 * --cache, so resubmitting a sweep replays byte-identical results
 * without simulating. With --checkpoints, post-warmup machine states
 * persist too: cold points whose results are not cached restore their
 * warmup from the checkpoint store instead of re-simulating it.
 * SIGTERM/SIGINT drain gracefully: points being computed finish (and
 * land in the cache), everything queued is cancelled, then the process
 * exits 0.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parse.hh"
#include "serve/cache.hh"
#include "serve/server.hh"
#include "sim/checkpoint.hh"

using namespace clustersim;

namespace {

serve::SweepServer *g_server = nullptr;

void
onSignal(int)
{
    if (g_server != nullptr)
        g_server->requestStop(); // one write(); async-signal-safe
}

int
usage(const char *prog, int code)
{
    std::fprintf(stderr,
                 "usage: %s [options]\n"
                 "\n"
                 "options:\n"
                 "  --port N        listen port (default: 0 = "
                 "ephemeral)\n"
                 "  --port-file F   write the bound port to F\n"
                 "  --cache DIR     result cache directory (default: "
                 "none = caching off)\n"
                 "  --salt TAG      cache version salt (default: "
                 "%s)\n"
                 "  --checkpoints DIR\n"
                 "                  warmup-checkpoint store directory "
                 "(default: none = warm starts off)\n"
                 "  --checkpoint-salt TAG\n"
                 "                  checkpoint version salt (default: "
                 "%s)\n"
                 "  --workers N     simulation worker threads "
                 "(default: 1)\n"
                 "  --max-jobs N    active-job bound before `busy` "
                 "(default: 8)\n",
                 prog, serve::defaultCacheSalt, defaultCheckpointSalt);
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    serve::SweepServer::Config cfg;
    std::string cache_dir;
    std::string salt = serve::defaultCacheSalt;
    std::string ckpt_dir;
    std::string ckpt_salt = defaultCheckpointSalt;

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
            cfg.port = flagNumber("--port", need("--port"), 65535);
        } else if (arg == "--port-file") {
            cfg.portFile = need("--port-file");
        } else if (arg == "--cache") {
            cache_dir = need("--cache");
        } else if (arg == "--salt") {
            salt = need("--salt");
        } else if (arg == "--checkpoints") {
            ckpt_dir = need("--checkpoints");
        } else if (arg == "--checkpoint-salt") {
            ckpt_salt = need("--checkpoint-salt");
        } else if (arg == "--workers") {
            cfg.workers = flagNumber("--workers", need("--workers"),
                                     maxThreadsFlag);
        } else if (arg == "--max-jobs") {
            cfg.maxActiveJobs =
                flagNumber<std::size_t>("--max-jobs", need("--max-jobs"));
        } else if (arg == "--help" || arg == "-h") {
            return usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return usage(argv[0], 2);
        }
    }

    // Peers vanishing mid-stream must surface as send() errors, not
    // process death.
    std::signal(SIGPIPE, SIG_IGN);

    serve::CacheStore cache(cache_dir, salt);
    WarmupCheckpointStore checkpoints(ckpt_dir, ckpt_salt);
    if (checkpoints.enabled())
        cfg.checkpoints = &checkpoints;
    serve::SweepServer server(cache, cfg);
    g_server = &server;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);

    std::fprintf(stderr,
                 "sweepd: listening on 127.0.0.1:%d (cache: %s, "
                 "checkpoints: %s)\n",
                 server.port(),
                 cache.enabled() ? cache.dir().c_str() : "off",
                 checkpoints.enabled() ? checkpoints.dir().c_str()
                                       : "off");
    server.run();

    serve::CacheStats cs = cache.stats();
    CheckpointStats ks = checkpoints.stats();
    std::fprintf(stderr,
                 "sweepd: drained; cache hits %llu misses %llu "
                 "stores %llu; checkpoint hits %llu misses %llu "
                 "stores %llu\n",
                 static_cast<unsigned long long>(cs.hits),
                 static_cast<unsigned long long>(cs.misses),
                 static_cast<unsigned long long>(cs.stores),
                 static_cast<unsigned long long>(ks.hits),
                 static_cast<unsigned long long>(ks.misses),
                 static_cast<unsigned long long>(ks.stores));
    g_server = nullptr;
    return 0;
}
