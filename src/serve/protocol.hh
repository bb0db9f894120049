/**
 * @file
 * Newline-delimited-JSON protocol of the sweep server.
 *
 * One JSON object per line in both directions; see docs/SERVING.md for
 * the full frame catalogue with examples. Client frames are parsed
 * into typed Request structs here -- malformed, oversized, or
 * unknown-type lines map to structured error frames, never to a crash
 * or a dropped connection. Server frames are built with JsonWriter so
 * stream payloads (notably the cached point fragments and the final
 * report string) survive the round trip byte-exactly.
 */

#ifndef CLUSTERSIM_SERVE_PROTOCOL_HH
#define CLUSTERSIM_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>

#include "serve/cache.hh"

namespace clustersim {
namespace serve {

/** Protocol identifier, echoed in hello/pong frames. */
inline constexpr const char *protocolVersion = "clustersim-serve-v1";

/** Hard bound on one frame line (bytes, newline excluded). A longer
 *  line is answered with an `oversized` error and discarded. */
inline constexpr std::size_t maxFrameBytes = 1 << 20;

/** Parameters of a submit request. */
struct SubmitRequest {
    std::string preset;
    std::uint64_t warmup = 0;    ///< 0 = preset default
    std::uint64_t measure = 0;   ///< 0 = preset default
    /**
     * Optional override of every point's activeClustersAtReset
     * (0 = none; parseRequest() rejects values above maxClusters).
     * Primarily an operational/testing lever: a value too small for
     * the architectural registers (1) makes each point fail at
     * processor construction, which is how the conformance rig
     * exercises in-stream point failures.
     */
    int activeClusters = 0;
};

/** One parsed client frame. */
struct Request {
    enum class Kind { Submit, Stats, Ping, Cancel, Shutdown };
    Kind kind = Kind::Ping;
    SubmitRequest submit;        ///< Kind::Submit
    std::uint64_t job = 0;       ///< Kind::Cancel
};

/** Result of parsing one frame line. */
struct ParsedRequest {
    bool ok = false;
    Request req;
    std::string errorCode;       ///< "parse" | "bad_request" | ...
    std::string errorMessage;
};

/** Parse one client line (newline stripped). Never throws. */
ParsedRequest parseRequest(const std::string &line);

/**
 * Order-insensitive fingerprint of a submit request: sha256 of the
 * canonical JSON of its normalized parameters. Two frames that differ
 * only cosmetically (member order, whitespace, number spelling)
 * fingerprint identically -- the property the conformance rig checks
 * to pin "cosmetic reordering still hits the cache".
 */
std::string submitFingerprint(const SubmitRequest &r);

// --- server->client frame builders (one line, no trailing newline) --------

std::string errorFrame(const std::string &code,
                       const std::string &message);
std::string helloFrame();
std::string pongFrame();

std::string acceptedFrame(std::uint64_t job, std::size_t points,
                          std::size_t cached,
                          const std::string &fingerprint);

/** How a finished point was served. */
enum class PointSource { Computed, Cache, Merged };
const char *pointSourceName(PointSource s);

std::string pointFrame(std::uint64_t job, std::size_t index,
                       PointSource source, const std::string &benchmark,
                       const std::string &config, double ipc,
                       std::size_t done, std::size_t total);

std::string pointErrorFrame(std::uint64_t job, std::size_t index,
                            const std::string &message,
                            std::size_t done, std::size_t total);

/** Terminal job frame; `report` is empty unless status == "ok".
 *  `warmHits` counts this job's computed/merged points whose warmup was
 *  restored from the checkpoint store instead of simulated. */
std::string doneFrame(std::uint64_t job, const std::string &status,
                      const std::string &report, std::size_t cacheHits,
                      std::size_t computed, std::size_t warmHits,
                      std::size_t merged, std::size_t failed,
                      std::size_t cancelled);

std::string cancelledFrame(std::uint64_t job);

/** Scheduler counters mirrored into the stats frame. */
struct ServeStats {
    std::uint64_t jobsAccepted = 0;
    std::uint64_t jobsRejected = 0;
    std::uint64_t jobsCancelled = 0;
    std::uint64_t pointsComputed = 0;
    std::uint64_t pointsFromCache = 0;
    std::uint64_t pointsMerged = 0;
    std::uint64_t pointsFailed = 0;
    std::uint64_t pointsCancelled = 0;
};

/**
 * Stats frame. The checkpoint block describes the warmup-checkpoint
 * store; pass ckpt = nullptr when the daemon runs without one (the
 * block is then emitted with all-zero counters so the frame shape is
 * stable for clients).
 */
std::string statsFrame(const CacheStats &cache, std::uint64_t entries,
                       std::uint64_t bytes, const ServeStats &sched,
                       const StoreStats *ckpt = nullptr,
                       std::uint64_t ckptEntries = 0,
                       std::uint64_t ckptBytes = 0);

} // namespace serve
} // namespace clustersim

#endif // CLUSTERSIM_SERVE_PROTOCOL_HH
