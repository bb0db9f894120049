/**
 * @file
 * Mutation fuzzer over parseRequest() (serve/protocol.hh), the parser
 * every client line reaches before anything else in sweepd.
 *
 * The seeds are one frame of every request kind with every optional
 * member, and a bare submit. Each case applies one to three mutations
 * to one seed: a bit flip, inserted or deleted bytes, a truncation, a
 * duplicated member, an integer replaced by an extreme (around 2^31,
 * 2^32, 2^63 and 2^64, either sign), a run of '[' or '{"k":' up to
 * 200,000 deep, or an escape or raw NUL inside a string. Every case
 * must keep three properties: the parser does not crash (the
 * ASan/UBSan build also checks memory and undefined behaviour); a
 * rejected frame
 * carries one of parseRequest()'s error codes and a message, and
 * carries `parse` only when the frame is not JSON; and an
 * accepted frame's numbers are the frame's own -- submit's warmup,
 * measure and active_clusters (at most maxClusters), cancel's job --
 * with nothing wrapped or truncated on the way.
 *
 * A failing case is shrunk to the fewest of its mutations that still
 * fail, as in test_snapshot_fuzz.cc. The run is deterministic:
 * kFuzzSeed replays it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "common/json_reader.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "core/params.hh"
#include "serve/protocol.hh"

using namespace clustersim;
using namespace clustersim::serve;

namespace {

constexpr int kCases = 4000;
constexpr std::uint64_t kFuzzSeed = 20030609;
constexpr std::uint64_t kMaxNesting = 200000;

/** One frame of every request kind with every optional member, and a
 *  bare submit. */
const std::vector<std::string> &
seeds()
{
    static const std::vector<std::string> frames = {
        R"({"type":"submit","preset":"smoke","warmup":100,"measure":200,)"
        R"("overrides":{"active_clusters":4}})",
        R"({"type":"submit","preset":"tournament"})",
        R"({"type":"cancel","job":12})",
        R"({"type":"stats"})",
        R"({"type":"ping"})",
        R"({"type":"shutdown"})",
    };
    return frames;
}

/** One mutation. `at` and `arg` are raw draws, reduced when applied. */
struct Mutation {
    enum Kind {
        Flip,
        Insert,
        Erase,
        Truncate,
        Duplicate,
        Integer,
        Nest,
        Escape,
        Kinds
    };
    Kind kind;
    std::uint64_t at;
    std::uint64_t arg;
};

std::string
describe(const Mutation &m)
{
    static const char *const names[] = {"flip",      "insert",  "erase",
                                        "truncate",  "duplicate",
                                        "integer",   "nest",    "escape"};
    return std::string(names[m.kind]) + "(" + std::to_string(m.at) + "," +
           std::to_string(m.arg) + ")";
}

template <std::size_t N>
const char *
pick(const char *const (&options)[N], std::uint64_t draw)
{
    return options[draw % N];
}

std::string
apply(std::string p, const Mutation &m)
{
    static const char *const members[] = {
        R"("warmup":7)", R"("measure":9)", R"("preset":"fig3")",
        R"("type":"ping")", R"("job":3)",
        R"("overrides":{"active_clusters":2})"};
    static const char *const integers[] = {
        "0", "1", "16", "17", "-1", "2147483647", "2147483648",
        "-2147483648", "-2147483649", "4294967295", "4294967296",
        "4294967298", "9223372036854775807", "9223372036854775808",
        "-9223372036854775808", "18446744073709551615",
        "18446744073709551616", "1e3", "2.0"};
    static const char *const escapes[] = {
        R"(\u0000)", R"(\")", R"(\\)", R"(\n)", R"(\ud800)", "\xff",
        R"(\x)", R"(\u12)", "\\"};

    const std::size_t pos = p.empty() ? 0 : m.at % (p.size() + 1);
    switch (m.kind) {
        case Mutation::Flip:
            if (!p.empty())
                p[m.at % p.size()] ^= static_cast<char>(1 << (m.arg % 8));
            break;
        case Mutation::Insert:
            p.insert(pos, std::string(1 + m.arg % 4,
                                      static_cast<char>(m.arg >> 8)));
            break;
        case Mutation::Erase:
            if (pos < p.size())
                p.erase(pos, 1 + m.arg % 4);
            break;
        case Mutation::Truncate:
            p.resize(pos);
            break;
        case Mutation::Duplicate: {
            // A member the frame may already have, placed first so the
            // frame's own copy follows it.
            std::size_t open = p.find('{');
            std::string member = pick(members, m.arg);
            if (open == std::string::npos)
                p.insert(pos, member);
            else
                p.insert(open + 1, member + ",");
            break;
        }
        case Mutation::Integer: {
            // Replace the number at or after pos; append a member when
            // there is none.
            std::size_t start = p.find_first_of("-0123456789", pos);
            if (start == std::string::npos)
                start = p.find_first_of("-0123456789");
            const std::string value = pick(integers, m.arg);
            if (start == std::string::npos) {
                std::size_t close = p.rfind('}');
                p.insert(close == std::string::npos ? p.size() : close,
                         ",\"warmup\":" + value);
                break;
            }
            std::size_t end = p.find_first_not_of("-0123456789", start + 1);
            p.replace(start,
                      (end == std::string::npos ? p.size() : end) - start,
                      value);
            break;
        }
        case Mutation::Nest: {
            // Log-uniform up to kMaxNesting: mostly shallow, some far
            // past the parser's depth bound.
            const std::uint64_t depth =
                std::min(kMaxNesting, (m.arg >> 40) %
                                          (std::uint64_t(2) << (m.arg % 18)));
            const bool arrays = (m.arg >> 32) % 2 == 0;
            const bool closed = (m.arg >> 33) % 2 == 0;
            std::string run;
            run.reserve(depth * (arrays ? 1 : 5));
            for (std::uint64_t d = 0; d < depth; d++)
                run += arrays ? "[" : "{\"k\":";
            if (closed) {
                run += "0";
                run += std::string(depth, arrays ? ']' : '}');
            }
            p.insert(pos, run);
            break;
        }
        case Mutation::Escape: {
            // Inside a string when there is one: just past a quote.
            std::size_t quote = p.find('"', pos);
            std::size_t at = quote == std::string::npos ? pos : quote + 1;
            if (m.arg % 3 == 0)
                p.insert(at, std::string(1 + (m.arg >> 2) % 3, '\0'));
            else
                p.insert(at, pick(escapes, m.arg >> 2));
            break;
        }
        case Mutation::Kinds:
            break;
    }
    return p;
}

std::string
applyAll(const std::string &frame, const std::vector<Mutation> &ms)
{
    std::string p = frame;
    for (const Mutation &m : ms)
        p = apply(std::move(p), m);
    return p;
}

/** The frame's own value of an integer member; `fallback` if absent. */
std::int64_t
frameNumber(const JsonValue &obj, const char *key, std::int64_t fallback)
{
    return obj.has(key) ? obj.at(key).asInt() : fallback;
}

/** Where an accepted request's numbers are not its frame's `doc`. */
std::string
numbersDiffer(const Request &req, const JsonValue &doc)
{
    if (req.kind == Request::Kind::Cancel &&
        static_cast<std::int64_t>(req.job) != frameNumber(doc, "job", 0))
        return "cancel job " + std::to_string(req.job) +
               " is not the frame's";
    if (req.kind != Request::Kind::Submit)
        return {};
    const SubmitRequest &s = req.submit;
    if (static_cast<std::int64_t>(s.warmup) != frameNumber(doc, "warmup", 0))
        return "warmup " + std::to_string(s.warmup) + " is not the frame's";
    if (static_cast<std::int64_t>(s.measure) !=
        frameNumber(doc, "measure", 0))
        return "measure " + std::to_string(s.measure) +
               " is not the frame's";
    std::int64_t active = doc.has("overrides")
                              ? frameNumber(doc.at("overrides"),
                                            "active_clusters", 0)
                              : 0;
    if (s.activeClusters != active)
        return "active_clusters " + std::to_string(s.activeClusters) +
               " is not the frame's " + std::to_string(active);
    if (s.activeClusters < 0 || s.activeClusters > maxClusters)
        return "active_clusters " + std::to_string(s.activeClusters) +
               " is out of range";
    return {};
}

/** Whether parseJson() reads the frame. */
bool
readsAsJson(const std::string &frame)
{
    try {
        parseJson(frame);
        return true;
    } catch (const SimError &) {
        return false;
    }
}

/**
 * The properties, or the first one `frame` breaks. `accepted` reports
 * whether parseRequest() took the frame.
 */
std::string
violation(const std::string &frame, bool *accepted = nullptr)
{
    static const std::set<std::string> codes = {"oversized", "parse",
                                                "bad_request",
                                                "unknown_type"};
    ParsedRequest r = parseRequest(frame);
    if (accepted != nullptr)
        *accepted = r.ok;
    if (!r.ok) {
        if (!codes.count(r.errorCode))
            return "rejected with unknown code '" + r.errorCode + "'";
        if (r.errorMessage.empty())
            return "rejected without a message";
        // `parse` means "not valid JSON" (docs/SERVING.md): a frame
        // that parses must be rejected for its shape instead.
        if (r.errorCode == "parse" && readsAsJson(frame))
            return "valid JSON rejected as 'parse': " + r.errorMessage;
        return {};
    }
    if (frame.size() > maxFrameBytes)
        return "accepted an oversized frame";
    try {
        return numbersDiffer(r.req, parseJson(frame));
    } catch (const SimError &e) {
        return std::string("accepted, but the frame does not read: ") +
               e.what();
    }
}

/** Drop mutations while a property still fails. */
std::vector<Mutation>
shrink(const std::string &frame, std::vector<Mutation> ms)
{
    for (std::size_t i = 0; i < ms.size();) {
        std::vector<Mutation> fewer = ms;
        fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
        if (!violation(applyAll(frame, fewer)).empty())
            ms = std::move(fewer);
        else
            i++;
    }
    return ms;
}

} // namespace

TEST(ProtocolFuzz, MutatedFramesAreRejectedWithACodeOrReadExactly)
{
    for (const std::string &frame : seeds()) {
        bool accepted = false;
        EXPECT_EQ(violation(frame, &accepted), "") << frame;
        EXPECT_TRUE(accepted) << frame << ": the seed itself";
    }

    Rng rng(kFuzzSeed);
    int acceptedCases = 0;
    int failures = 0;
    for (int c = 0; c < kCases && failures < 5; c++) {
        const std::string &frame = seeds()[rng.range(
            static_cast<std::uint32_t>(seeds().size()))];
        std::vector<Mutation> ms(1 + rng.range(3));
        for (Mutation &m : ms)
            m = {static_cast<Mutation::Kind>(rng.range(Mutation::Kinds)),
                 rng.next64(), rng.next64()};
        bool accepted = false;
        std::string why = violation(applyAll(frame, ms), &accepted);
        if (why.empty()) {
            acceptedCases += accepted ? 1 : 0;
            continue;
        }
        failures++;
        std::string chain;
        for (const Mutation &m : shrink(frame, ms))
            chain += " " + describe(m);
        ADD_FAILURE() << "case " << c << " (seed " << kFuzzSeed << ") on "
                      << frame << ": " << why << "; shrunk to:" << chain;
    }
    std::printf("protocol fuzz: %d cases over %zu frames, %d accepted "
                "(each read exactly)\n",
                kCases, seeds().size(), acceptedCases);
}
