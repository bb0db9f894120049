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
#include <map>
#include <memory>
#include <set>
#include <source_location>
#include <sstream>
#include <string>
#include <thread>
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

/** A small grid whose points all share one stream (deriveSeeds=false),
 *  so two of them share one warmup identity. */
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
 * A FieldWriter that also notes, at the first visit of each bounded or
 * shape-checked field of a fields() list, where the field's bytes sit
 * and a value just outside what FieldReader accepts there. Writing that
 * value in place must make deserializeSnapshot() fail.
 */
class BoundRecorder : public FieldWriter
{
  public:
    using Where = std::source_location;

    struct Patch {
        std::size_t offset;
        int width;            ///< bytes, little-endian
        std::uint64_t value;
        std::string site;     ///< fields() call site, and which side
    };

    /** @param base Offset of this writer's first byte in the payload. */
    explicit BoundRecorder(std::size_t base = 0) : base_(base) {}

    std::vector<Patch> patches;

    template <class T>
    void
    u64(T &x)
    {
        FieldWriter::u64(x);
    }

    template <class T>
    void
    u64(T &x, std::uint64_t hi, Where w = Where::current())
    {
        if (hi != ~std::uint64_t(0))
            note(w, "", 8, hi + 1);
        FieldWriter::u64(x, hi);
    }

    void
    u32(std::uint32_t &x, std::uint32_t hi = 0xffffffffu,
        Where w = Where::current())
    {
        if (hi != 0xffffffffu)
            note(w, "", 4, std::uint64_t(hi) + 1);
        FieldWriter::u32(x, hi);
    }

    template <class T>
    void
    u8(T &x, unsigned hi, Where w = Where::current())
    {
        if (hi < 0xff)
            note(w, "", 1, hi + 1);
        FieldWriter::u8(x, hi);
    }

    void i64(std::int64_t &x) { FieldWriter::i64(x); }

    template <class T>
    void
    i64(T &x, std::int64_t lo, std::int64_t hi, Where w = Where::current())
    {
        note(w, " above", 8, static_cast<std::uint64_t>(hi + 1));
        note(w, " below", 8, static_cast<std::uint64_t>(lo - 1));
        FieldWriter::i64(x, lo, hi);
    }

    void
    boolean(bool &x, Where w = Where::current())
    {
        note(w, "", 1, 2);
        FieldWriter::boolean(x);
    }

    template <class T>
    void
    expect(const T &x, Where w = Where::current())
    {
        if constexpr (std::is_same_v<T, std::string>)
            note(w, "", 1, static_cast<std::uint8_t>(x[0] ^ 1), 8);
        else if constexpr (std::is_same_v<T, bool>)
            note(w, "", 1, x ? 0 : 1);
        else
            note(w, "", static_cast<int>(sizeof(T)),
                 static_cast<std::uint64_t>(x) + 1);
        FieldWriter::expect(x);
    }

    template <class C, class Fn>
    void
    list(C &c, std::uint64_t max, Fn &&elem, Where w = Where::current())
    {
        note(w, "", 8, max + 1);
        FieldWriter::list(c, max, elem);
    }

    template <class M, class Fn>
    void
    map(M &m, std::uint64_t max, Fn &&entry, Where w = Where::current())
    {
        note(w, "", 8, max + 1);
        FieldWriter::map(m, max, entry);
    }

    template <class T, class Fn>
    void
    optional(std::optional<T> &o, Fn &&elem, Where w = Where::current())
    {
        note(w, "", 1, 2);
        FieldWriter::optional(o, elem);
    }

  private:
    void
    note(const Where &w, const char *side, int width, std::uint64_t value,
         std::size_t skip = 0)
    {
        std::string site = std::string(w.file_name()) + ":" +
                           std::to_string(w.line()) + side;
        if (seen_.insert(site).second)
            patches.push_back({base_ + size() + skip, width, value, site});
    }

    std::size_t base_;
    std::set<std::string> seen_;
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
 * Every bound patch of a snapshot's payload. With a controller, only
 * the tail from the controller-presence flag on: the core's bounds are
 * covered by the controller-less machines.
 */
std::vector<BoundRecorder::Patch>
boundPatches(const Processor::Snapshot &s, const std::string &payload)
{
    BoundRecorder rec;
    const_cast<Processor::Snapshot &>(s).fields(rec);
    EXPECT_EQ(rec.take(), payload);
    if (!s.controller)
        return rec.patches;
    FieldWriter state;
    s.controller->checkpoint(state);
    std::size_t base = payload.size() - state.size();
    BoundRecorder crec(base);
    recordControllerBounds(*s.controller, crec);
    std::size_t tail = base - 8 - s.controller->name().size() - 1;
    std::vector<BoundRecorder::Patch> out;
    for (const BoundRecorder::Patch &p : rec.patches)
        if (p.offset >= tail)
            out.push_back(p);
    out.insert(out.end(), crec.patches.begin(), crec.patches.end());
    return out;
}

std::string
applyPatch(std::string payload, const BoundRecorder::Patch &p)
{
    for (int i = 0; i < p.width; i++)
        payload[p.offset + static_cast<std::size_t>(i)] =
            static_cast<char>((p.value >> (8 * i)) & 0xff);
    return payload;
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

    // Stale format version (the first little-endian u32).
    std::string stale = payload;
    stale[0] = static_cast<char>(stale[0] ^ 0x01);
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

TEST(Checkpoint, SerializedBytesArePinned)
{
    // The sha256 of serializeSnapshot() after a fixed short warmup,
    // for every controller family on the ring and on the decentralized
    // grid, plus a monolithic machine. The digests were recorded from
    // the hand-written serializer that the fields() visitors replaced;
    // they change only with the format, and a format change bumps
    // snapshotFormatVersion and defaultCheckpointSalt on purpose.
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
         "55ba410b7c03f0a4ac081ee5a4d1d719a962663269f8cb6c6d03e7240979ea27"},
        {"ring/explore",
         "8cb2a43ddfa663032d15158b1e15155877eafb22e2d764148e05fabef9b93e0c"},
        {"ring/ilp",
         "209ae4c462ea3b805c8e14e4c9d84390e0e0aa989a35fc353af10887264a0678"},
        {"ring/finegrain",
         "cca826b4c63cc70ef1d96749f929309dd2a8418397c7280e42df3248394f8147"},
        {"ring/ineffectuality",
         "0bbff02b67711f7878ce27f4d11f90480b48088bd74231299e2b4bf0469aad7b"},
        {"ring/oracle",
         "ad61bbc83c73ecb7cd130cff576010fd41737ca972f8441e4aa1365c4408eb08"},
        {"grid/static",
         "124a19a31eb3545ebbead942119a59471377fe57473c66c4248d5ec38ed8de3c"},
        {"grid/explore",
         "441f20e72b3f1da401b076cc0a8ed82a8c520c4e858ec62e4918d1f00aa0e198"},
        {"grid/ilp",
         "6478a309b723745652d378ada69c3c30c6635dbf0a53267060d722b7b4e7891a"},
        {"grid/finegrain",
         "f12d02d6d72b7f5c394f48de7cb774ef2629876817f4ca96f9a4021e492764f8"},
        {"grid/ineffectuality",
         "3632e9c856806eac77f0f805be590f2afc80a5cf0c4d1bf8af92c35c7d88d9ca"},
        {"grid/oracle",
         "9ea5fee6a42d045dea3ae28611ce355e3bf062bdd68d379eaa4d7f9da9e194c3"},
        {"monolithic/static",
         "be9dd673b3e1c7558ff7be6a8888aea8d02f454d621feec0f2147b83da684073"},
    };

    WorkloadSpec w = makeBenchmark("gzip");
    std::size_t checked = 0;
    for (const Machine &m : machines) {
        auto buf = makeBuffer(w, m.cfg, kWarmup);
        for (std::size_t i = 0; i < m.controllers; i++) {
            const auto &[ctrl_name, make] = controllers[i];
            std::string name = std::string(m.name) + "/" + ctrl_name;
            ReplaySource src(buf);
            std::unique_ptr<ReconfigController> ctrl =
                make ? make() : nullptr;
            Processor proc(m.cfg, &src, ctrl.get());
            proc.run(kWarmup);
            std::string digest =
                sha256Hex(serializeSnapshot(proc.snapshot()));
            auto it = pinned.find(name);
            if (it == pinned.end()) {
                ADD_FAILURE() << "no pinned digest for " << name << ": "
                              << digest;
                continue;
            }
            EXPECT_EQ(digest, it->second) << name;
            checked++;
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
    // For each bounded or shape-checked field in a fields() list, a
    // just-out-of-range value written in place of its bytes must fail
    // the load. The controller-less machines cover the core (the
    // centralized ring, the decentralized grid and a monolithic
    // machine); the controller cases cover each controller's state.
    using Make = std::function<std::unique_ptr<ReconfigController>()>;
    struct Case {
        const char *name;
        ProcessorConfig cfg;
        Make make;
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
    };

    std::size_t patched = 0;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        auto buf = makeBuffer(makeBenchmark("gzip"), c.cfg, kWarmup);
        ReplaySource src(buf);
        std::unique_ptr<ReconfigController> ctrl = c.make ? c.make()
                                                          : nullptr;
        Processor proc(c.cfg, &src, ctrl.get());
        proc.run(kWarmup);
        Processor::Snapshot snap = proc.snapshot();
        std::string payload = serializeSnapshot(snap);

        std::vector<BoundRecorder::Patch> patches =
            boundPatches(snap, payload);
        ASSERT_FALSE(patches.empty());
        for (const BoundRecorder::Patch &p : patches) {
            ASSERT_LE(p.offset + static_cast<std::size_t>(p.width),
                      payload.size());
            Processor::Snapshot donor = proc.snapshot();
            EXPECT_FALSE(deserializeSnapshot(applyPatch(payload, p), donor))
                << p.site << " at byte " << p.offset;
            patched++;
        }
        Processor::Snapshot donor = proc.snapshot();
        EXPECT_TRUE(deserializeSnapshot(payload, donor));
    }
    // Each list's first visit is recorded, so this counts fields() call
    // sites (both sides of a signed range count twice).
    EXPECT_GE(patched, 100u);
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
    plain.deriveSeeds = false;
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
    plain.deriveSeeds = false;
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
    std::string key = store.keyFor(points[0], points[0].workload.seed);
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
