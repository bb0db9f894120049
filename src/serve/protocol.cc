#include "serve/protocol.hh"

#include "common/canonical_json.hh"
#include "common/json.hh"
#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/sha256.hh"
#include "core/params.hh"

namespace clustersim {
namespace serve {

namespace {

ParsedRequest
parseError(const std::string &code, const std::string &message)
{
    ParsedRequest out;
    out.ok = false;
    out.errorCode = code;
    out.errorMessage = message;
    return out;
}

/**
 * Read the non-negative integer member key of obj into out, 0 when the
 * member is absent. False when it is present with any other value.
 */
bool
u64Member(const JsonValue &obj, const std::string &key, std::uint64_t &out)
{
    out = 0;
    if (!obj.has(key))
        return true;
    const JsonValue &v = obj.at(key);
    if (!v.isIntegral() || v.asInt() < 0)
        return false;
    out = static_cast<std::uint64_t>(v.asInt());
    return true;
}

ParsedRequest
badMember(const std::string &key)
{
    return parseError("bad_request",
                      "member '" + key + "' must be a non-negative integer");
}

} // namespace

ParsedRequest
parseRequest(const std::string &line)
{
    if (line.size() > maxFrameBytes)
        return parseError("oversized",
                          "frame exceeds " +
                              std::to_string(maxFrameBytes) + " bytes");
    JsonValue doc;
    try {
        doc = parseJson(line);
    } catch (const SimError &e) {
        // parseJson reports malformed input through fatal(); only input
        // that is not JSON at all is a parse error.
        return parseError("parse", e.what());
    }
    if (!doc.isObject())
        return parseError("bad_request", "frame must be an object");
    if (!doc.has("type") || !doc.at("type").isString())
        return parseError("bad_request",
                          "frame needs a string 'type' member");
    const std::string &type = doc.at("type").asString();

    ParsedRequest out;
    out.ok = true;
    if (type == "submit") {
        out.req.kind = Request::Kind::Submit;
        if (!doc.has("preset") || !doc.at("preset").isString())
            return parseError("bad_request",
                              "submit needs a string 'preset'");
        out.req.submit.preset = doc.at("preset").asString();
        if (!u64Member(doc, "warmup", out.req.submit.warmup))
            return badMember("warmup");
        if (!u64Member(doc, "measure", out.req.submit.measure))
            return badMember("measure");
        if (doc.has("overrides")) {
            const JsonValue &ov = doc.at("overrides");
            if (!ov.isObject())
                return parseError("bad_request",
                                  "'overrides' must be an object");
            std::uint64_t active = 0;
            if (!u64Member(ov, "active_clusters", active))
                return badMember("active_clusters");
            if (active > static_cast<std::uint64_t>(maxClusters))
                return parseError("bad_request",
                                  "'active_clusters' must be at most " +
                                      std::to_string(maxClusters));
            out.req.submit.activeClusters = static_cast<int>(active);
        }
        return out;
    }
    if (type == "stats") {
        out.req.kind = Request::Kind::Stats;
        return out;
    }
    if (type == "ping") {
        out.req.kind = Request::Kind::Ping;
        return out;
    }
    if (type == "cancel") {
        out.req.kind = Request::Kind::Cancel;
        if (!u64Member(doc, "job", out.req.job))
            return badMember("job");
        if (out.req.job == 0)
            return parseError("bad_request", "cancel needs a 'job' id");
        return out;
    }
    if (type == "shutdown") {
        out.req.kind = Request::Kind::Shutdown;
        return out;
    }
    return parseError("unknown_type", "unknown frame type '" + type + "'");
}

std::string
submitFingerprint(const SubmitRequest &r)
{
    // Normalized parameters, re-serialized canonically: the writer
    // already emits sorted members here, but routing through
    // canonicalJson() pins the property structurally.
    JsonWriter w;
    w.beginObject();
    w.field("active_clusters", r.activeClusters);
    w.field("measure", r.measure);
    w.field("preset", r.preset);
    w.field("warmup", r.warmup);
    w.endObject();
    return sha256Hex(canonicalJson(w.str()));
}

std::string
errorFrame(const std::string &code, const std::string &message)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "error");
    w.field("code", code);
    w.field("message", message);
    w.endObject();
    return w.str();
}

std::string
helloFrame()
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "hello");
    w.field("protocol", protocolVersion);
    w.endObject();
    return w.str();
}

std::string
pongFrame()
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "pong");
    w.field("protocol", protocolVersion);
    w.endObject();
    return w.str();
}

std::string
acceptedFrame(std::uint64_t job, std::size_t points, std::size_t cached,
              const std::string &fingerprint)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "accepted");
    w.field("job", job);
    w.field("points", static_cast<std::uint64_t>(points));
    w.field("cached", static_cast<std::uint64_t>(cached));
    w.field("fingerprint", fingerprint);
    w.endObject();
    return w.str();
}

const char *
pointSourceName(PointSource s)
{
    switch (s) {
    case PointSource::Computed: return "computed";
    case PointSource::Cache: return "cache";
    case PointSource::Merged: return "merged";
    }
    return "computed";
}

std::string
pointFrame(std::uint64_t job, std::size_t index, PointSource source,
           const std::string &benchmark, const std::string &config,
           double ipc, std::size_t done, std::size_t total)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "point");
    w.field("job", job);
    w.field("index", static_cast<std::uint64_t>(index));
    w.field("source", pointSourceName(source));
    w.field("benchmark", benchmark);
    w.field("config", config);
    w.field("ipc", ipc);
    w.field("done", static_cast<std::uint64_t>(done));
    w.field("total", static_cast<std::uint64_t>(total));
    w.endObject();
    return w.str();
}

std::string
pointErrorFrame(std::uint64_t job, std::size_t index,
                const std::string &message, std::size_t done,
                std::size_t total)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "point_error");
    w.field("job", job);
    w.field("index", static_cast<std::uint64_t>(index));
    w.field("error", message);
    w.field("done", static_cast<std::uint64_t>(done));
    w.field("total", static_cast<std::uint64_t>(total));
    w.endObject();
    return w.str();
}

std::string
doneFrame(std::uint64_t job, const std::string &status,
          const std::string &report, std::size_t cacheHits,
          std::size_t computed, std::size_t warmHits,
          std::size_t merged, std::size_t failed, std::size_t cancelled)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "done");
    w.field("job", job);
    w.field("status", status);
    w.field("cache_hits", static_cast<std::uint64_t>(cacheHits));
    w.field("computed", static_cast<std::uint64_t>(computed));
    w.field("warm_hits", static_cast<std::uint64_t>(warmHits));
    w.field("merged", static_cast<std::uint64_t>(merged));
    w.field("failed", static_cast<std::uint64_t>(failed));
    w.field("cancelled", static_cast<std::uint64_t>(cancelled));
    if (!report.empty())
        w.field("report", report);
    w.endObject();
    return w.str();
}

std::string
cancelledFrame(std::uint64_t job)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "cancelled");
    w.field("job", job);
    w.endObject();
    return w.str();
}

std::string
statsFrame(const CacheStats &cache, std::uint64_t entries,
           std::uint64_t bytes, const ServeStats &sched,
           const StoreStats *ckpt, std::uint64_t ckptEntries,
           std::uint64_t ckptBytes)
{
    JsonWriter w;
    w.beginObject();
    w.field("type", "stats");
    w.key("cache").beginObject();
    w.field("hits", cache.hits);
    w.field("misses", cache.misses);
    w.field("stores", cache.stores);
    w.field("store_failures", cache.storeFailures);
    w.field("corrupt", cache.corrupt);
    w.field("entries", entries);
    w.field("bytes", bytes);
    w.endObject();
    StoreStats none;
    const StoreStats &c = ckpt ? *ckpt : none;
    w.key("checkpoints").beginObject();
    w.field("enabled", ckpt != nullptr);
    w.field("hits", c.hits);
    w.field("misses", c.misses);
    w.field("stores", c.stores);
    w.field("store_failures", c.storeFailures);
    w.field("corrupt", c.corrupt);
    w.field("entries", ckptEntries);
    w.field("bytes", ckptBytes);
    w.endObject();
    w.key("scheduler").beginObject();
    w.field("jobs_accepted", sched.jobsAccepted);
    w.field("jobs_rejected", sched.jobsRejected);
    w.field("jobs_cancelled", sched.jobsCancelled);
    w.field("points_computed", sched.pointsComputed);
    w.field("points_from_cache", sched.pointsFromCache);
    w.field("points_merged", sched.pointsMerged);
    w.field("points_failed", sched.pointsFailed);
    w.field("points_cancelled", sched.pointsCancelled);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace serve
} // namespace clustersim
