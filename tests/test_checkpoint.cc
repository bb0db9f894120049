/**
 * @file
 * Persistent warmup-checkpoint tests (sim/checkpoint.hh).
 *
 * Layers, each depending on the previous one:
 *  - a serialized snapshot deserialized into a *fresh* processor image
 *    (new Processor, new controller, new replay source) continues
 *    bit-identically to the uninterrupted run, across every controller
 *    family and both interconnects -- the property that makes on-disk
 *    checkpoints reusable across processes;
 *  - the serialized bytes are pinned, and every bound a fields() list
 *    declares rejects a just-out-of-range value written in its place;
 *  - the store's content addressing is sensitive to exactly the warmup
 *    identity (stream, config, warmup count, controller, salt) and
 *    inert for unkeyed points;
 *  - corrupted, truncated, and stale-version blobs degrade to a miss
 *    and a recompute, never a wrong report;
 *  - cold-then-warm sweeps produce byte-identical deterministic
 *    reports, with warm starts actually taken, one hit or miss counted
 *    per point, and the in-flight dedup lease serializing concurrent
 *    cold computes.
 *
 * File-level store behaviour (header checks, salt, diskUsage) is the
 * shared ContentStore's and is tested once for both stores in
 * test_store.cc.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <set>
#include <source_location>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/sha256.hh"
#include "core/processor.hh"
#include "core/snapshot_io.hh"
#include "reconfig/finegrain.hh"
#include "reconfig/ineffectuality.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/interval_ilp.hh"
#include "reconfig/oracle.hh"
#include "reconfig/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "workload/benchmarks.hh"
#include "workload/replay.hh"
#include "workload/synthetic.hh"

using namespace clustersim;

namespace {

constexpr std::uint64_t kWarmup = 5000;
constexpr std::uint64_t kMeasure = 15000;

/** Self-cleaning scratch directory. */
class TempDir
{
  public:
    TempDir()
    {
        char tmpl[] = "/tmp/clustersim-ckpt-XXXXXX";
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
                if (name != "." && name != "..")
                    std::remove((path_ + "/" + name).c_str());
            }
            closedir(d);
        }
        rmdir(path_.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

std::shared_ptr<const ReplayBuffer>
makeBuffer(const WorkloadSpec &w, const ProcessorConfig &cfg,
           std::uint64_t insts)
{
    return std::make_shared<const ReplayBuffer>(w,
                                                insts + replayMargin(cfg));
}

/** Uninterrupted warmup + measurement on a fresh processor. */
SimResult
straightLine(const ProcessorConfig &cfg,
             std::shared_ptr<const ReplayBuffer> buf,
             std::unique_ptr<ReconfigController> ctrl,
             std::uint64_t warmup, std::uint64_t measure)
{
    ReplaySource src(std::move(buf));
    Processor proc(cfg, &src, ctrl.get());
    proc.run(warmup);
    proc.resetStats();
    return measureWindow(proc, measure);
}

/** A small grid whose points all share one stream (one seedTag), so
 *  two of them share one warmup identity. */
std::vector<RunPoint>
sharedStreamPoints()
{
    ProcessorConfig cfg = staticSubsetConfig(4);
    WorkloadSpec w = makeBenchmark("gzip");
    std::vector<RunPoint> points;
    auto add = [&](const std::string &label, std::uint64_t warmup,
                   std::uint64_t measure, bool controller,
                   const std::string &key) {
        RunPoint p;
        p.label = label;
        p.cfg = cfg;
        p.workload = w;
        p.warmup = warmup;
        p.measure = measure;
        if (controller)
            p.makeController = [] { return makeExploreController(); };
        p.controllerKey = key;
        p.seedTag = "shared";
        points.push_back(std::move(p));
    };
    add("shared-a", 4000, 12000, false, "");
    add("shared-b", 4000, 16000, false, "");
    add("ctrl-a", 4000, 12000, true, "explore-default");
    add("ctrl-unkeyed", 4000, 8000, true, "");  // never checkpointed
    add("no-warmup", 0, 12000, false, "");      // never checkpointed
    add("other-warmup", 2000, 12000, false, "");
    return points;
}

/** Flip one byte inside the payload region of every blob in dir. */
std::size_t
corruptAllBlobs(const std::string &dir)
{
    std::size_t corrupted = 0;
    DIR *d = opendir(dir.c_str());
    if (!d)
        return 0;
    while (struct dirent *e = readdir(d)) {
        std::string name = e->d_name;
        if (name.size() < 4 ||
            name.compare(name.size() - 4, 4, ".ckp") != 0)
            continue;
        std::string path = dir + "/" + name;
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        std::string file = buf.str();
        in.close();
        std::size_t nl = file.find('\n');
        EXPECT_NE(nl, std::string::npos);
        EXPECT_GT(file.size(), nl + 64);
        if (nl == std::string::npos || file.size() <= nl + 64)
            continue;
        file[nl + 32] ^= 0x01; // somewhere inside the payload
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << file;
        corrupted++;
    }
    closedir(d);
    return corrupted;
}

/**
 * A FieldWriter that notes each bounded or shape-checked fields() call
 * site at its first visit or, given a `target` site, writes a value
 * just outside what FieldReader accepts there at that site's first
 * visit instead of the member's own. Re-encoding a snapshot with any
 * one such value must make deserializeSnapshot() fail. With
 * `noteAfter` set, sites count only after the unbounded u64 field at
 * that address is written.
 */
class BoundRecorder : public FieldWriter
{
  public:
    using Where = std::source_location;
    /** fields() call site (file, line) and which side of a range. */
    using Site = std::tuple<const char *, unsigned, const char *>;

    explicit BoundRecorder(const void *noteAfter = nullptr,
                           const Site *target = nullptr)
        : noteAfter_(noteAfter), target_(target), noting_(!noteAfter)
    {}

    /** Every site in first-visit order (when no target was given). */
    std::vector<Site> sites;

    static std::string
    describe(const Site &s)
    {
        return std::string(std::get<0>(s)) + ":" +
               std::to_string(std::get<1>(s)) + std::get<2>(s);
    }

    template <class T>
    void
    u64(T &x)
    {
        FieldWriter::u64(x);
        if (&x == noteAfter_)
            noting_ = true;
    }

    template <class T>
    void
    u64(T &x, std::uint64_t hi, Where w = Where::current())
    {
        if (hi != ~std::uint64_t(0) && hit(w, ""))
            scalar(hi + 1);
        else
            FieldWriter::u64(x, hi);
    }

    void
    u32(std::uint32_t &x, std::uint32_t hi = 0xffffffffu,
        Where w = Where::current())
    {
        if (hi != 0xffffffffu && hit(w, ""))
            scalar(std::uint64_t(hi) + 1);
        else
            FieldWriter::u32(x, hi);
    }

    template <class T>
    void
    u8(T &x, unsigned hi, Where w = Where::current())
    {
        if (hi < 0xff && hit(w, ""))
            scalar(hi + 1);
        else
            FieldWriter::u8(x, hi);
    }

    void i64(std::int64_t &x) { FieldWriter::i64(x); }

    template <class T>
    void
    i64(T &x, std::int64_t lo, std::int64_t hi, Where w = Where::current())
    {
        const bool above = hit(w, " above");
        const bool below = hit(w, " below");
        if (above)
            scalar(static_cast<std::uint64_t>(hi + 1));
        else if (below)
            scalar(static_cast<std::uint64_t>(lo - 1));
        else
            FieldWriter::i64(x, lo, hi);
    }

    void
    boolean(bool &x, Where w = Where::current())
    {
        if (hit(w, ""))
            scalar(2);
        else
            FieldWriter::boolean(x);
    }

    template <class T>
    void
    expect(const T &x, Where w = Where::current())
    {
        if (!hit(w, ""))
            FieldWriter::expect(x);
        else if constexpr (std::is_same_v<T, std::string>)
            FieldWriter::expect(static_cast<char>(x[0] ^ 1) + x.substr(1));
        else if constexpr (std::is_same_v<T, bool>)
            FieldWriter::expect(!x);
        else
            FieldWriter::expect(static_cast<T>(x + 1));
    }

    template <class C, class Fn>
    void
    list(C &c, std::uint64_t max, Fn &&elem, Where w = Where::current())
    {
        if (!hit(w, "")) {
            FieldWriter::list(c, max, elem);
            return;
        }
        scalar(max + 1);
        for (auto &e : c)
            elem(e);
    }

    template <class M, class Fn>
    void
    map(M &m, std::uint64_t max, Fn &&entry, Where w = Where::current())
    {
        if (!hit(w, "")) {
            FieldWriter::map(m, max, entry);
            return;
        }
        scalar(max + 1);
        for (auto &[k, val] : m) {
            auto key = k;
            entry(key, val);
        }
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem, Where w = Where::current())
    {
        if (!hit(w, "")) {
            FieldWriter::optional(o, elem);
            return;
        }
        scalar(2);
        if (o)
            elem(*o);
    }

  private:
    /** Note the site, or tell whether this is the target's first visit. */
    bool
    hit(const Where &w, const char *side)
    {
        if (!noting_)
            return false;
        const Site site{w.file_name(), w.line(), side};
        if (target_ == nullptr) {
            if (seen_.insert(site).second)
                sites.push_back(site);
            return false;
        }
        if (done_ || site != *target_)
            return false;
        done_ = true;
        return true;
    }

    /** Every field is scalars on the wire, so one op writes any value. */
    void
    scalar(std::uint64_t v)
    {
        FieldWriter::u64(v);
    }

    const void *noteAfter_;
    const Site *target_;
    bool noting_;
    bool done_ = false;
    std::set<Site> seen_;
};

/** The stateful controllers' fields(), reached past the virtual hook. */
void
recordControllerBounds(ReconfigController &c, BoundRecorder &rec)
{
    if (auto *x = dynamic_cast<IntervalExploreController *>(&c))
        x->fields(rec);
    else if (auto *y = dynamic_cast<IntervalIlpController *>(&c))
        y->fields(rec);
    else if (auto *z = dynamic_cast<FinegrainController *>(&c))
        z->fields(rec);
    else if (auto *u = dynamic_cast<IneffectualityController *>(&c))
        u->fields(rec);
    else if (auto *o = dynamic_cast<OracleController *>(&c))
        o->fields(rec);
}

/**
 * Stand-ins for a snapshot's generator and controller while a
 * BoundRecorder walks it. Snapshot::fields() reaches both through a
 * virtual checkpoint(FieldWriter &) hook, which would write their
 * fields past the recorder; these walk the same fields() lists through
 * it.
 */
class RecordedSource : public TraceSource
{
  public:
    explicit RecordedSource(SyntheticWorkload &gen) : gen_(gen) {}

    MicroOp next() override { return gen_.next(); }
    void reset() override {}
    std::uint64_t position() const override { return gen_.position(); }

    using TraceSource::checkpoint;
    void
    checkpoint(FieldWriter &v) override
    {
        gen_.fields(static_cast<BoundRecorder &>(v));
    }

  private:
    SyntheticWorkload &gen_;
};

class RecordedController : public ReconfigController
{
  public:
    explicit RecordedController(ReconfigController &c) : c_(c) {}

    void onCommit(const CommitEvent &) override {}
    int targetClusters() const override { return c_.targetClusters(); }
    std::string name() const override { return c_.name(); }

    using ReconfigController::checkpoint;
    void
    checkpoint(FieldWriter &v) override
    {
        recordControllerBounds(c_, static_cast<BoundRecorder &>(v));
    }

  private:
    ReconfigController &c_;
};

/** serializeSnapshot(s), with every field written through rec. */
std::string
encodeThrough(Processor::Snapshot &s, BoundRecorder &rec)
{
    std::unique_ptr<TraceSource> src = std::move(s.source);
    std::unique_ptr<ReconfigController> ctrl = std::move(s.controller);
    if (src)
        s.source = std::make_unique<RecordedSource>(
            dynamic_cast<SyntheticWorkload &>(*src));
    if (ctrl)
        s.controller = std::make_unique<RecordedController>(*ctrl);
    s.fields(rec);
    s.source = std::move(src);
    s.controller = std::move(ctrl);
    return rec.take();
}

/** The next n ops of src, in their serialized form. */
std::string
nextOps(TraceSource &src, int n)
{
    FieldWriter w;
    for (int i = 0; i < n; i++)
        w.write(src.next());
    return w.take();
}

} // namespace

// ---------------------------------------------------------------------------
// Serialization round trip
// ---------------------------------------------------------------------------

TEST(Checkpoint, SerializedRoundTripMatchesStraightLine)
{
    // save -> serialize -> deserialize into a *fresh* processor's donor
    // snapshot -> restore -> run must be bit-identical to the
    // uninterrupted run. The fresh image is the point: nothing may leak
    // through shared in-process state, which is what cross-process
    // reuse of on-disk blobs relies on.
    struct Case {
        const char *name;
        std::function<std::unique_ptr<ReconfigController>()> make;
    };
    const Case cases[] = {
        {"static", nullptr},
        {"explore", [] { return makeExploreController(); }},
        {"ilp", [] { return makeIlpController(10000); }},
        {"finegrain", [] { return makeFinegrainController(); }},
        {"ineffectuality",
         [] { return makeController("ineffectuality").make(); }},
        {"oracle",
         [] {
             // A per-commit (slot = 1) schedule round-trips the same
             // committed-count replay state the tournament oracle uses.
             std::vector<int> sched;
             for (int i = 0; i < 64; i++)
                 sched.push_back(2 << (i % 4));
             return std::make_unique<OracleController>(
                 1, std::move(sched));
         }},
    };
    const std::pair<const char *, InterconnectKind> kinds[] = {
        {"ring", InterconnectKind::Ring},
        {"grid", InterconnectKind::Grid},
    };

    WorkloadSpec w = makeBenchmark("gzip");
    for (const auto &[kind_name, kind] : kinds) {
        ProcessorConfig cfg = clusteredConfig(16, kind);
        auto buf = makeBuffer(w, cfg, kWarmup + kMeasure);
        for (const Case &c : cases) {
            SCOPED_TRACE(std::string(kind_name) + "/" + c.name);

            SimResult straight = straightLine(
                cfg, buf, c.make ? c.make() : nullptr, kWarmup,
                kMeasure);

            // Producer: warm up, serialize the post-warmup snapshot.
            std::string payload;
            {
                ReplaySource src(buf);
                std::unique_ptr<ReconfigController> ctrl;
                if (c.make)
                    ctrl = c.make();
                Processor proc(cfg, &src, ctrl.get());
                proc.run(kWarmup);
                payload = serializeSnapshot(proc.snapshot());
            }
            EXPECT_FALSE(payload.empty());

            // Consumer: a fresh image restores the blob and measures.
            ReplaySource src(buf);
            std::unique_ptr<ReconfigController> ctrl;
            if (c.make)
                ctrl = c.make();
            Processor proc(cfg, &src, ctrl.get());
            Processor::Snapshot donor = proc.snapshot();
            ASSERT_TRUE(deserializeSnapshot(payload, donor));
            proc.restore(donor);
            proc.resetStats();
            SimResult restored = measureWindow(proc, kMeasure);

            EXPECT_EQ(toJson(straight), toJson(restored));
        }
    }
}

TEST(Checkpoint, MalformedPayloadsRejected)
{
    WorkloadSpec w = makeBenchmark("parser");
    ProcessorConfig cfg = clusteredConfig(16);
    auto buf = makeBuffer(w, cfg, kWarmup);
    ReplaySource src(buf);
    Processor proc(cfg, &src, nullptr);
    proc.run(kWarmup);
    std::string payload = serializeSnapshot(proc.snapshot());
    ASSERT_GT(payload.size(), 16u);

    auto rejects = [&](std::string p) {
        ReplaySource s2(buf);
        Processor fresh(cfg, &s2, nullptr);
        Processor::Snapshot donor = fresh.snapshot();
        return !deserializeSnapshot(p, donor);
    };

    // Stale format version. The version is the first scalar, coded as
    // zigzag(3 - 0) = 6; a 4 there reads as format 2.
    ASSERT_EQ(payload[0], '\x06');
    std::string stale = payload;
    stale[0] = '\x04';
    EXPECT_TRUE(rejects(stale));

    // Truncation anywhere, including mid-field.
    EXPECT_TRUE(rejects(payload.substr(0, payload.size() / 2)));
    EXPECT_TRUE(rejects(payload.substr(0, payload.size() - 1)));
    EXPECT_TRUE(rejects(std::string()));

    // Trailing garbage: a full parse must also consume every byte.
    EXPECT_TRUE(rejects(payload + '\0'));

    // A controller blob cannot restore into a controller-less image.
    {
        ReplaySource s3(buf);
        auto ctrl = makeExploreController();
        Processor other(cfg, &s3, ctrl.get());
        other.run(kWarmup);
        EXPECT_TRUE(rejects(serializeSnapshot(other.snapshot())));
    }

    // The intact payload still loads (the donor above was untouched by
    // all the failures -- each rejects() used its own).
    EXPECT_FALSE(rejects(payload));
}

TEST(Checkpoint, CodecAcceptsOnlyTheCanonicalStream)
{
    // The scalars 5 5 5, the string "ab", then 5 3 3 and 2^64 - 1
    // twice: each scalar is the zigzag varint of its difference from
    // the one before, zero differences collapse into one run token
    // (0x00, then the count), and a string interrupts runs without
    // moving the previous scalar.
    const std::uint64_t top = ~std::uint64_t(0);
    const std::vector<std::uint64_t> after = {5, 3, 3, top, top};
    SnapshotWriter w;
    for (int i = 0; i < 3; i++)
        w.scalar(5);
    w.str("ab");
    for (std::uint64_t v : after)
        w.scalar(v);
    const std::string canonical = w.take();
    EXPECT_EQ(canonical, std::string("\x0a\x00\x02\x02" "ab"
                                     "\x00\x01\x03\x00\x01\x07\x00\x01",
                                     14));

    // Reads that layout back: true only for a whole, canonical stream
    // holding exactly those values.
    auto reads = [&](const std::string &bytes) {
        SnapshotReader r(bytes);
        bool same = true;
        for (int i = 0; i < 3; i++)
            same = r.scalar() == 5 && same;
        same = r.str() == "ab" && same;
        for (std::uint64_t v : after)
            same = r.scalar() == v && same;
        return r.atEnd() && same;
    };
    EXPECT_TRUE(reads(canonical));

    auto with = [&](std::size_t at, std::size_t len, const char *bytes,
                    std::size_t n) {
        return canonical.substr(0, at) + std::string(bytes, n) +
               canonical.substr(at + len);
    };
    // Overlong: 5 as two varint bytes, and the -4 difference coded past
    // bit 63.
    EXPECT_FALSE(reads(with(0, 1, "\x8a\x00", 2)));
    EXPECT_FALSE(reads(
        with(11, 1, "\x87\x80\x80\x80\x80\x80\x80\x80\x80\x02", 10)));
    // An empty run, a run split in two, a run that spans the string,
    // a run left unfinished at the end.
    EXPECT_FALSE(reads(with(0, 0, "\x00\x00", 2)));
    EXPECT_FALSE(reads(with(1, 2, "\x00\x01\x00\x01", 4)));
    EXPECT_FALSE(reads(with(1, 2, "\x00\x03", 2)));
    EXPECT_FALSE(reads(with(12, 2, "\x00\x02", 2)));
    // Truncation and trailing bytes.
    EXPECT_FALSE(reads(canonical.substr(0, canonical.size() - 1)));
    EXPECT_FALSE(reads(canonical + '\x02'));
    // A scalar above the reader's bound, or too wide for its member.
    SnapshotReader bounded(canonical);
    bounded.scalar(4);
    EXPECT_FALSE(bounded.ok());
    SnapshotWriter wide;
    wide.scalar(std::uint64_t(1) << 40);
    const std::string wideBytes = wide.take();
    FieldReader narrow(wideBytes);
    int member = 0;
    narrow.u64(member);
    EXPECT_FALSE(narrow.atEnd());

    // A map's keys come in the writer's ascending order; a repeated or
    // out-of-order key would be a second encoding of a smaller map.
    auto mapLoads = [](std::initializer_list<int> keys) {
        SnapshotWriter raw;
        raw.scalar(keys.size());
        for (int k : keys) {
            raw.scalar(static_cast<std::uint64_t>(k));
            raw.scalar(7);
        }
        const std::string bytes = raw.take();
        std::map<int, std::uint64_t> m;
        FieldReader r(bytes);
        r.map(m, 8, [&](int &k, std::uint64_t &n) {
            r.u64(k);
            r.u64(n);
        });
        return r.atEnd();
    };
    EXPECT_TRUE(mapLoads({1, 3, 5}));
    EXPECT_FALSE(mapLoads({3, 1, 5}));
    EXPECT_FALSE(mapLoads({1, 3, 3}));
}

TEST(Checkpoint, SerializedBytesArePinned)
{
    // The sha256 of serializeSnapshot() after a fixed short warmup,
    // for every controller family on the ring and on the decentralized
    // grid, plus a monolithic machine, each fed once from a replay
    // buffer and once from the generator ("/generator": the payload
    // carries the generator's state). The digests change only with
    // the format, and a format change bumps snapshotFormatVersion and
    // defaultCheckpointSalt on purpose. Format 3, the delta stream,
    // re-pinned every digest.
    using Make = std::function<std::unique_ptr<ReconfigController>()>;
    const std::pair<const char *, Make> controllers[] = {
        {"static", nullptr},
        {"explore", [] { return makeExploreController(); }},
        {"ilp", [] { return makeIlpController(10000); }},
        {"finegrain", [] { return makeFinegrainController(); }},
        {"ineffectuality",
         [] { return makeController("ineffectuality").make(); }},
        {"oracle",
         [] {
             std::vector<int> sched;
             for (int i = 0; i < 64; i++)
                 sched.push_back(2 << (i % 4));
             return std::make_unique<OracleController>(
                 1, std::move(sched));
         }},
    };
    struct Machine {
        const char *name;
        ProcessorConfig cfg;
        std::size_t controllers;  // leading entries of `controllers`
    };
    const Machine machines[] = {
        {"ring", clusteredConfig(16, InterconnectKind::Ring), 6},
        {"grid", clusteredConfig(16, InterconnectKind::Grid, true), 6},
        {"monolithic", monolithicConfig(16), 1},
    };
    const std::map<std::string, std::string> pinned = {
        {"ring/static",
         "b87771a2ace1799db6647ed1829af0b1b1ed7123dde03addaff6804760a32a13"},
        {"ring/static/generator",
         "f7bc31e1ba28ca1d61a421d5ca6a19a7c6a11b71fff9b419e9a597454a51b9f3"},
        {"ring/explore",
         "89379a498192356f7c6cdc6fc0f2cda27482f650312bb44bc35b34151a3d9bc7"},
        {"ring/explore/generator",
         "0ff5f41eb6dbcadb53394dd200af240c6b91d9946fcba7f0c3e1f1e9c3809b49"},
        {"ring/ilp",
         "21f8e46b8ffc79a5f59152354fcc44a7c4175722196d9059e3058109876c23e7"},
        {"ring/ilp/generator",
         "cda590374eb7195873f0535c84dd611b0e7a14c31d8be339b9adb8a5bc73d9ff"},
        {"ring/finegrain",
         "a8d3dc879503d603b1a6d8bbeceb842003de36203604c2dbe59ce571b309ff3a"},
        {"ring/finegrain/generator",
         "409337f56eea85179e9983413c0d438553ffbec2233e9ba8d1515ad1fc62b4f8"},
        {"ring/ineffectuality",
         "cbd53bcf6a4fc85606e2928e059700882a55019e125a31f5ae51eb3da73d44de"},
        {"ring/ineffectuality/generator",
         "cf3ed6b2f45f55e22b98a4f727b8c3f28791bb1763759277b61fa17e7ae9eb88"},
        {"ring/oracle",
         "603efff05dcbb92280d5b539862841f6148f113321cc05081eb529375ac2d020"},
        {"ring/oracle/generator",
         "2440dd43d9f383030b2d67b53f28b87723fb9eaa72b36ade9e765a152e70cdc6"},
        {"grid/static",
         "566db085ffce1ced871685000468bde50fc372384d4fa17adda9ed7d582398ea"},
        {"grid/static/generator",
         "44ccef87f04116dce3c6d0967816a1bcbf5023df2aff165abb75ac9d82c5d173"},
        {"grid/explore",
         "1a49877e2c8f2da2bdec7a6226c31e51d0f482207eedbb16991db96d543837ef"},
        {"grid/explore/generator",
         "7b6cc72bf5dc3b3440fd023b8309c29639138edcc46b84e3a2d3179d43d6fa1c"},
        {"grid/ilp",
         "8a142e08bbd3739b1a75c55fec69d85b35d37a884d3cb82e3c77720904c46567"},
        {"grid/ilp/generator",
         "3860a0a8cf9da3c5b8c9fb88545097d6932eea1d6c63c26e4f1fd6a4874f9cd8"},
        {"grid/finegrain",
         "9f5dab0481a7f78e7d079520d6cb9a99c0532768ba955734a122fc4c6131390d"},
        {"grid/finegrain/generator",
         "6e21371a0cc399070b4116f1790e6174e2ee0364f150e1160ecd77733b69d819"},
        {"grid/ineffectuality",
         "d900c058dbfa958ead124fb3d4d8093c0bdf3672da198c164a09c97abace43a7"},
        {"grid/ineffectuality/generator",
         "cc6958732870cf76d0635094dcf772f9fd706cbb46dd07c4b22175db3397de39"},
        {"grid/oracle",
         "4cc237b7aff1f9920993653165edb5c70adce31302d6edc65a1496ba4f972e2d"},
        {"grid/oracle/generator",
         "3b8005dc64d5f58ecd2cf29eef1a7498efb6fff84cb87ff95184849b35b07954"},
        {"monolithic/static",
         "20a0fa27036fa2fa8f2045aa62ade0f807d55e2457b3c19381d86c34043a22aa"},
        {"monolithic/static/generator",
         "0258d3b7d27a196add3fbd71de7ab2b854d2a2e9eb59952dd4964cf9d7cab9fa"},
    };

    WorkloadSpec w = makeBenchmark("gzip");
    std::size_t checked = 0;
    for (const Machine &m : machines) {
        auto buf = makeBuffer(w, m.cfg, kWarmup);
        for (std::size_t i = 0; i < m.controllers; i++) {
            for (bool generator : {false, true}) {
                const auto &[ctrl_name, make] = controllers[i];
                std::string name = std::string(m.name) + "/" + ctrl_name +
                                   (generator ? "/generator" : "");
                ReplaySource replay(buf);
                SyntheticWorkload gen(w);
                TraceSource *src = generator
                    ? static_cast<TraceSource *>(&gen)
                    : &replay;
                std::unique_ptr<ReconfigController> ctrl =
                    make ? make() : nullptr;
                Processor proc(m.cfg, src, ctrl.get());
                proc.run(kWarmup);
                std::string digest =
                    sha256Hex(serializeSnapshot(proc.snapshot()));
                auto it = pinned.find(name);
                if (it == pinned.end()) {
                    ADD_FAILURE() << "no pinned digest for " << name
                                  << ": " << digest;
                    continue;
                }
                EXPECT_EQ(digest, it->second) << name;
                checked++;
            }
        }
    }
    EXPECT_EQ(checked, pinned.size());
}

TEST(Checkpoint, IndicesAreBoundedByTheDonorShape)
{
    // A monolithic machine has one hardware cluster. A payload claiming
    // any other active or pending cluster count would index past the
    // restored machine's cluster list, so it must not load.
    ProcessorConfig cfg = monolithicConfig(16);
    auto buf = makeBuffer(makeBenchmark("gzip"), cfg, kWarmup);
    ReplaySource src(buf);
    Processor proc(cfg, &src, nullptr);
    proc.run(kWarmup);
    auto loads = [&](const Processor::Snapshot &s) {
        Processor::Snapshot donor = proc.snapshot();
        return deserializeSnapshot(serializeSnapshot(s), donor);
    };

    EXPECT_TRUE(loads(proc.snapshot()));
    for (int active : {0, 2}) {
        Processor::Snapshot s = proc.snapshot();
        s.activeClusters = active;
        EXPECT_FALSE(loads(s)) << "activeClusters " << active;
    }
    Processor::Snapshot s = proc.snapshot();
    s.pendingTarget = 2;
    EXPECT_FALSE(loads(s));
}

TEST(Checkpoint, EveryDeclaredBoundRejects)
{
    // For each bounded or shape-checked field in a fields() list, the
    // snapshot re-encoded with a just-out-of-range value in that
    // field's place must fail the load. The replay-fed, controller-less
    // machines cover the core (the centralized ring, the decentralized
    // grid and a monolithic machine); the controller cases cover each
    // controller's state, and the generator-fed cases the generator's:
    // those note sites only from the source-presence flag on.
    using Make = std::function<std::unique_ptr<ReconfigController>()>;
    struct Case {
        const char *name;
        ProcessorConfig cfg;
        Make make;
        bool generator = false;
    };
    const ProcessorConfig ring = clusteredConfig(16);
    const Case cases[] = {
        {"ring", ring, nullptr},
        {"grid", clusteredConfig(16, InterconnectKind::Grid, true),
         nullptr},
        {"monolithic", monolithicConfig(16), nullptr},
        {"ring/explore", ring, [] { return makeExploreController(); }},
        {"ring/ilp", ring, [] { return makeIlpController(10000); }},
        {"ring/finegrain", ring,
         [] { return makeFinegrainController(); }},
        {"ring/ineffectuality", ring,
         [] { return makeController("ineffectuality").make(); }},
        {"ring/oracle", ring,
         [] {
             return std::make_unique<OracleController>(
                 1, std::vector<int>(64, 4));
         }},
        {"ring/generator", ring, nullptr, true},
        {"ring/explore/generator", ring,
         [] { return makeExploreController(); }, true},
    };

    std::size_t patched = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto buf = makeBuffer(makeBenchmark("gzip"), c.cfg, kWarmup);
        ReplaySource replay(buf);
        SyntheticWorkload gen(makeBenchmark("gzip"));
        TraceSource *src = c.generator ? static_cast<TraceSource *>(&gen)
                                       : &replay;
        std::unique_ptr<ReconfigController> ctrl = c.make ? c.make()
                                                          : nullptr;
        Processor proc(c.cfg, src, ctrl.get());
        proc.run(kWarmup);
        Processor::Snapshot snap = proc.snapshot();
        const void *tail =
            c.make || c.generator ? &snap.tracePosition : nullptr;

        BoundRecorder plain(tail);
        const std::string payload = encodeThrough(snap, plain);
        ASSERT_EQ(payload, serializeSnapshot(snap));
        ASSERT_FALSE(plain.sites.empty());
        for (const BoundRecorder::Site &site : plain.sites) {
            BoundRecorder rec(tail, &site);
            const std::string bad = encodeThrough(snap, rec);
            Processor::Snapshot donor = proc.snapshot();
            EXPECT_FALSE(deserializeSnapshot(bad, donor))
                << BoundRecorder::describe(site);
            patched++;
        }
        Processor::Snapshot donor = proc.snapshot();
        EXPECT_TRUE(deserializeSnapshot(payload, donor));
    }
    // Each list's first visit is noted, so this counts fields() call
    // sites (both sides of a signed range count twice).
    EXPECT_GE(patched, 100u);
}

// ---------------------------------------------------------------------------
// Generator state
// ---------------------------------------------------------------------------

TEST(Checkpoint, GeneratorStateResumesTheStream)
{
    // A generator's state, saved and loaded into a fresh generator of
    // the same spec, resumes the stream exactly: at the start, one op
    // in, inside a call, just after a segment boundary and deep into
    // the stream, for every benchmark.
    constexpr std::uint64_t kDeep = 200000;
    constexpr int kNext = 20000;
    std::size_t calls = 0;
    std::size_t boundaries = 0;
    for (const std::string &name : benchmarkNames()) {
        SCOPED_TRACE(name);
        const WorkloadSpec w = makeBenchmark(name);

        std::uint64_t in_call = 0;
        std::uint64_t after_boundary = 0;
        {
            SyntheticWorkload scan(w);
            std::uint64_t left = scan.segmentLeft();
            while ((in_call == 0 || after_boundary == 0) &&
                   scan.generated() < 2000000) {
                MicroOp op = scan.next();
                if (in_call == 0 && op.op == OpClass::Call)
                    in_call = scan.generated();
                if (after_boundary == 0 && scan.segmentLeft() > left)
                    after_boundary = scan.generated();
                left = scan.segmentLeft();
            }
        }
        std::vector<std::uint64_t> positions = {0, 1, kDeep};
        if (in_call != 0) {
            positions.push_back(in_call);
            calls++;
        }
        if (after_boundary != 0) {
            positions.push_back(after_boundary);
            boundaries++;
        }

        for (std::uint64_t pos : positions) {
            SyntheticWorkload straight(w);
            for (std::uint64_t i = 0; i < pos; i++)
                straight.next();
            FieldWriter out;
            straight.checkpoint(out);
            const std::string state = out.take();

            SyntheticWorkload resumed(w);
            FieldReader in(state);
            resumed.checkpoint(in);
            ASSERT_TRUE(in.atEnd()) << "position " << pos;
            EXPECT_EQ(resumed.position(), pos);
            EXPECT_EQ(nextOps(resumed, kNext), nextOps(straight, kNext))
                << "position " << pos;
        }
    }
    // Every benchmark crosses a segment boundary; calls are common.
    EXPECT_EQ(boundaries, benchmarkNames().size());
    EXPECT_GT(calls, 0u);
}

TEST(Checkpoint, GeneratorStateFromAnotherSpecFailsToLoad)
{
    // The donor generator's shapes and stream identities check a
    // loaded state: one taken from another benchmark, or from the same
    // benchmark under another seed, does not load.
    auto state = [](const WorkloadSpec &w) {
        SyntheticWorkload gen(w);
        for (int i = 0; i < 1000; i++)
            gen.next();
        FieldWriter out;
        gen.checkpoint(out);
        return out.take();
    };
    auto loads = [](const WorkloadSpec &w, const std::string &s) {
        SyntheticWorkload gen(w);
        FieldReader in(s);
        gen.checkpoint(in);
        return in.atEnd();
    };
    const std::vector<std::string> &names = benchmarkNames();
    for (std::size_t i = 0; i < names.size(); i++) {
        const WorkloadSpec from = makeBenchmark(names[i]);
        const std::string s = state(from);
        EXPECT_TRUE(loads(from, s)) << names[i];
        const std::string &other = names[(i + 1) % names.size()];
        EXPECT_FALSE(loads(makeBenchmark(other), s))
            << names[i] << " into " << other;
        WorkloadSpec reseeded = from;
        reseeded.seed += 1;
        EXPECT_FALSE(loads(reseeded, s)) << names[i] << " reseeded";
    }
}

TEST(Checkpoint, PayloadOfTheOtherSourceKindRejected)
{
    // A generator-fed payload carries the generator's state and a
    // replay-fed one does not; each loads only into a processor fed by
    // the same kind of source.
    const WorkloadSpec w = makeBenchmark("gzip");
    const ProcessorConfig cfg = clusteredConfig(16);
    auto buf = makeBuffer(w, cfg, kWarmup);
    auto payload = [&](TraceSource &src) {
        Processor proc(cfg, &src, nullptr);
        proc.run(kWarmup);
        return serializeSnapshot(proc.snapshot());
    };
    auto loads = [&](TraceSource &src, const std::string &p) {
        Processor fresh(cfg, &src, nullptr);
        Processor::Snapshot donor = fresh.snapshot();
        return deserializeSnapshot(p, donor);
    };
    ReplaySource replay(buf);
    SyntheticWorkload gen(w);
    const std::string replayed = payload(replay);
    const std::string generated = payload(gen);

    ReplaySource replay_donor(buf);
    SyntheticWorkload gen_donor(w);
    EXPECT_TRUE(loads(replay_donor, replayed));
    EXPECT_FALSE(loads(replay_donor, generated));
    EXPECT_TRUE(loads(gen_donor, generated));
    EXPECT_FALSE(loads(gen_donor, replayed));
}

TEST(Checkpoint, WarmStartGeneratesOnlyTheMeasureWindow)
{
    // Restoring a generator-fed processor hands the stored generator
    // state to the live generator: the restore generates nothing, and
    // the measure window generates at most what it fetches past the
    // snapshot's trace position. The restored run matches the
    // uninterrupted one.
    class CountingWorkload : public SyntheticWorkload
    {
      public:
        using SyntheticWorkload::SyntheticWorkload;

        MicroOp
        next() override
        {
            calls++;
            return SyntheticWorkload::next();
        }

        std::uint64_t calls = 0;
    };
    constexpr std::uint64_t kLongWarmup = 50000;
    const WorkloadSpec w = makeBenchmark("gzip");
    const ProcessorConfig cfg = clusteredConfig(16);

    std::string payload;
    SimResult straight;
    {
        SyntheticWorkload gen(w);
        Processor proc(cfg, &gen, nullptr);
        proc.run(kLongWarmup);
        payload = serializeSnapshot(proc.snapshot());
        proc.resetStats();
        straight = measureWindow(proc, kMeasure);
    }

    CountingWorkload gen(w);
    Processor proc(cfg, &gen, nullptr);
    Processor::Snapshot donor = proc.snapshot();
    ASSERT_TRUE(deserializeSnapshot(payload, donor));
    proc.restore(donor);
    EXPECT_EQ(gen.calls, 0u);
    EXPECT_EQ(gen.generated(), donor.tracePosition);
    EXPECT_GE(donor.tracePosition, kLongWarmup);

    proc.resetStats();
    SimResult restored = measureWindow(proc, kMeasure);
    EXPECT_EQ(toJson(straight), toJson(restored));
    EXPECT_EQ(gen.generated() - donor.tracePosition, gen.calls);
    EXPECT_LE(gen.calls, kMeasure + replayMargin(cfg));
}

// ---------------------------------------------------------------------------
// Store addressing and integrity
// ---------------------------------------------------------------------------

TEST(Checkpoint, KeyCoversExactlyTheWarmupIdentity)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    TempDir dir;
    WarmupCheckpointStore store(dir.path());

    RunPoint base = points[0];
    std::string k = store.keyFor(base, 42);
    ASSERT_EQ(k.size(), 64u);

    // Same identity -> same key.
    EXPECT_EQ(k, store.keyFor(base, 42));

    // Measure length and label are deliberately outside the identity.
    RunPoint measure = base;
    measure.measure += 1;
    measure.label = "renamed";
    EXPECT_EQ(k, store.keyFor(measure, 42));

    // Stream seed, config, warmup count, controller: all inside.
    EXPECT_NE(k, store.keyFor(base, 43));
    RunPoint warm = base;
    warm.warmup += 1;
    EXPECT_NE(k, store.keyFor(warm, 42));
    RunPoint cfg = base;
    cfg.cfg.robSize += 16;
    EXPECT_NE(k, store.keyFor(cfg, 42));
    RunPoint ctrl = base;
    ctrl.makeController = [] { return makeExploreController(); };
    ctrl.controllerKey = "explore-default";
    EXPECT_NE(k, store.keyFor(ctrl, 42));

    // Salt is a version lever: a bump changes every address.
    WarmupCheckpointStore salted(dir.path(), "test-salt-v2");
    EXPECT_NE(k, salted.keyFor(base, 42));

    // No declared identity -> no key.
    RunPoint none = base;
    none.warmup = 0;
    EXPECT_TRUE(store.keyFor(none, 42).empty());
    RunPoint opaque = base;
    opaque.makeController = [] { return makeExploreController(); };
    opaque.controllerKey = ""; // opaque: never checkpointed
    EXPECT_TRUE(store.keyFor(opaque, 42).empty());
}

TEST(Checkpoint, InflightLeaseSerializesConcurrentComputes)
{
    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    std::string key(64, 'b');

    std::atomic<int> inside{0};
    std::atomic<int> max_inside{0};
    auto contend = [&]() {
        for (int i = 0; i < 50; i++) {
            auto lease = store.beginCompute({key});
            int now = ++inside;
            int prev = max_inside.load();
            while (now > prev && !max_inside.compare_exchange_weak(prev,
                                                                   now))
                ;
            --inside;
        }
    };
    std::thread a(contend), b(contend), c(contend);
    a.join();
    b.join();
    c.join();
    EXPECT_EQ(max_inside.load(), 1);

    // Empty keys claim nothing and never block.
    auto l1 = store.beginCompute({std::string()});
    auto l2 = store.beginCompute({});
    auto l3 = store.beginCompute({key});
}

// ---------------------------------------------------------------------------
// Cold-then-warm byte identity
// ---------------------------------------------------------------------------

namespace {

/** Count warm-started runs in a sweep result. */
std::size_t
warmCount(const SweepResult &res)
{
    std::size_t n = 0;
    for (const SweepRun &r : res.runs)
        n += r.warmStart ? 1 : 0;
    return n;
}

} // namespace

TEST(Checkpoint, ColdThenWarmSweepByteIdentical)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    SweepOptions plain;
    plain.threads = 1;
    std::string baseline = sweepReportJson(
        "ckpt", points, runSweep(points, plain), false);

    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    SweepOptions opts = plain;
    opts.checkpoints = &store;

    // Cold: four of the six points are keyed ("ctrl-unkeyed" and
    // "no-warmup" are not), and the two 4000-warmup static points share
    // one identity -- so three distinct blobs land on disk, and the
    // second sharer already warm-starts from the first one's store
    // (cross-point dedup working within a single cold sweep).
    SweepResult cold = runSweep(points, opts);
    EXPECT_EQ(warmCount(cold), 1u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, cold, false));
    std::uint64_t entries = 0, bytes = 0;
    store.diskUsage(entries, bytes);
    EXPECT_EQ(entries, 3u);
    EXPECT_EQ(store.stats().stores, 3u);

    // Warm: every keyed point restores; the report must not move.
    SweepResult warm = runSweep(points, opts);
    EXPECT_EQ(warmCount(warm), 4u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, warm, false));
    EXPECT_GE(store.stats().hits, 4u);

    // Warm, multi-threaded: same bytes.
    SweepOptions threaded = opts;
    threaded.threads = 4;
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points,
                              runSweep(points, threaded), false));
}

TEST(Checkpoint, EachPointCountsOneHitOrMiss)
{
    // A cold point loads, misses, takes the compute lease and looks
    // again before warming up; that is still one miss. Smoke derives a
    // distinct stream per point, so every warmup key is distinct.
    std::vector<RunPoint> points = makeSweepPreset("smoke", 1000, 2000);
    const std::uint64_t n = points.size();
    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    SweepOptions opts;
    opts.threads = 2;
    opts.checkpoints = &store;

    runSweep(points, opts);
    CheckpointStats cold = store.stats();
    EXPECT_EQ(cold.misses, n);
    EXPECT_EQ(cold.stores, n);
    EXPECT_EQ(cold.hits, 0u);

    // The warm rerun, as a new process would see it.
    WarmupCheckpointStore rerun(dir.path());
    opts.checkpoints = &rerun;
    SweepResult warm = runSweep(points, opts);
    EXPECT_EQ(warmCount(warm), n);
    CheckpointStats after = rerun.stats();
    EXPECT_EQ(after.hits, n);
    EXPECT_EQ(after.misses, 0u);
    EXPECT_EQ(after.stores, 0u);
}

TEST(Checkpoint, CorruptStaleAndSaltedBlobsRecompute)
{
    std::vector<RunPoint> points = sharedStreamPoints();
    SweepOptions plain;
    plain.threads = 1;
    std::string baseline = sweepReportJson(
        "ckpt", points, runSweep(points, plain), false);

    TempDir dir;
    WarmupCheckpointStore store(dir.path());
    SweepOptions opts = plain;
    opts.checkpoints = &store;
    runSweep(points, opts);

    // Corrupt every blob on disk: the sha mismatch degrades each load
    // to a miss, the sweep recomputes, and the report must not change.
    // (The one warm start is the shared-identity point restoring the
    // blob its sibling just re-stored, not a corrupt one.)
    ASSERT_EQ(corruptAllBlobs(dir.path()), 3u);
    SweepResult after = runSweep(points, opts);
    EXPECT_EQ(warmCount(after), 1u);
    EXPECT_EQ(baseline, sweepReportJson("ckpt", points, after, false));
    EXPECT_GE(store.stats().corrupt, 3u);

    // The recompute re-stored good blobs; now plant a stale-version
    // payload under a key the sweep will ask for. The store-level hash
    // is valid, so only the in-payload version stamp can reject it.
    std::string key =
        store.keyFor(points[0], planPoints(points, true)[0].seed);
    ASSERT_FALSE(key.empty());
    auto good = store.load(key);
    ASSERT_TRUE(good.has_value());
    std::string stale = *good;
    stale[0] = static_cast<char>(stale[0] ^ 0x01);
    store.store(key, stale);
    SweepResult versioned = runSweep(points, opts);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, versioned, false));
    // Point 0 rejects the stale blob and recomputes (overwriting it
    // with a good one, which its identity-sharing sibling then warms
    // from); the other two keyed points warm-start normally.
    EXPECT_EQ(warmCount(versioned), 3u);

    // A salt bump re-addresses everything: full recompute, same bytes.
    // (Again the sharer warms from its sibling's fresh store.)
    WarmupCheckpointStore salted(dir.path(), "bumped-salt-v2");
    SweepOptions sopts = plain;
    sopts.checkpoints = &salted;
    SweepResult resalted = runSweep(points, sopts);
    EXPECT_EQ(warmCount(resalted), 1u);
    EXPECT_EQ(baseline,
              sweepReportJson("ckpt", points, resalted, false));
}

TEST(Checkpoint, UndecodablePayloadsAreCorruptMisses)
{
    // A payload that passes the store's hash but fails to decode (here
    // a flipped format version under a valid header) is a corrupt miss,
    // not a hit: the point recomputes under the key's lease and
    // overwrites it, and the next run is warm throughout.
    std::vector<RunPoint> points = makeSweepPreset("smoke", 1000, 2000);
    const std::uint64_t n = points.size();
    SweepOptions opts;
    opts.threads = 2;
    const std::string baseline = sweepReportJson(
        "smoke", points, runSweep(points, opts), false);

    TempDir dir;
    {
        WarmupCheckpointStore fill(dir.path());
        opts.checkpoints = &fill;
        runSweep(points, opts);
        std::vector<PlannedPoint> plan = planPoints(points, true);
        for (std::size_t i = 0; i < points.size(); i++) {
            std::string key = fill.keyFor(points[i], plan[i].seed);
            std::optional<std::string> good = fill.load(key);
            ASSERT_TRUE(good.has_value());
            std::string stale = *good;
            stale[0] = static_cast<char>(stale[0] ^ 0x01);
            fill.store(key, stale);
        }
    }

    WarmupCheckpointStore rerun(dir.path());
    opts.checkpoints = &rerun;
    SweepResult res = runSweep(points, opts);
    EXPECT_EQ(warmCount(res), 0u);
    EXPECT_EQ(baseline, sweepReportJson("smoke", points, res, false));
    CheckpointStats st = rerun.stats();
    EXPECT_EQ(st.hits, 0u);
    EXPECT_EQ(st.misses, n);
    EXPECT_EQ(st.corrupt, n);
    EXPECT_EQ(st.stores, n);

    WarmupCheckpointStore warm(dir.path());
    opts.checkpoints = &warm;
    SweepResult again = runSweep(points, opts);
    EXPECT_EQ(warmCount(again), n);
    EXPECT_EQ(baseline, sweepReportJson("smoke", points, again, false));
    EXPECT_EQ(warm.stats().hits, n);
    EXPECT_EQ(warm.stats().misses, 0u);
}
