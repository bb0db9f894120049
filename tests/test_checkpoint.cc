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
 * Every bound patch of a snapshot's payload. With a generator state or
 * a controller, only the tail from the source-presence flag on: the
 * core's bounds are covered by the replay-fed, controller-less
 * machines. The tail is the source flag, the generator's state, the
 * controller flag, then the controller's name and state.
 */
std::vector<BoundRecorder::Patch>
boundPatches(const Processor::Snapshot &s, const std::string &payload)
{
    BoundRecorder rec;
    const_cast<Processor::Snapshot &>(s).fields(rec);
    EXPECT_EQ(rec.take(), payload);
    if (!s.source && !s.controller)
        return rec.patches;
    std::vector<BoundRecorder::Patch> out;
    std::size_t tail = payload.size() - 1; // the controller flag
    if (s.controller) {
        FieldWriter state;
        s.controller->checkpoint(state);
        std::size_t base = payload.size() - state.size();
        BoundRecorder crec(base);
        recordControllerBounds(*s.controller, crec);
        out.insert(out.end(), crec.patches.begin(), crec.patches.end());
        tail = base - 8 - s.controller->name().size() - 1;
    }
    if (s.source) {
        FieldWriter state;
        s.source->checkpoint(state);
        const std::string bytes = state.take();
        tail -= bytes.size();
        BoundRecorder grec(tail);
        dynamic_cast<SyntheticWorkload &>(*s.source).fields(grec);
        EXPECT_EQ(grec.take(), bytes);
        out.insert(out.end(), grec.patches.begin(), grec.patches.end());
    }
    tail -= 1; // the source flag
    for (const BoundRecorder::Patch &p : rec.patches)
        if (p.offset >= tail)
            out.push_back(p);
    return out;
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
    // grid, plus a monolithic machine, each fed once from a replay
    // buffer and once from the generator ("/generator": the payload
    // carries the generator's state). The digests change only with
    // the format, and a format change bumps snapshotFormatVersion and
    // defaultCheckpointSalt on purpose. Format 2 added the source
    // block; a replay-fed format-2 payload with its version word set
    // back to 1 and its one-byte source block removed is the format-1
    // payload, byte for byte.
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
         "744f526e40b68837c66c20498ec9a2adc2521873e8c5645169250ddf83e06d4b"},
        {"ring/static/generator",
         "7b97c126665f4bf3117261533fb701f0c65d3f82133656a34b06861fa4651293"},
        {"ring/explore",
         "fe9c38e3e3da2aa2b80c3bf408ba22a484e6d713dcff1ae1613d64b1128827a2"},
        {"ring/explore/generator",
         "c0a1991352466824f55b5a14655aeb790d6096f9618e90d59ebea04d31e6b1c7"},
        {"ring/ilp",
         "da38ad57ef624d3cd12a2fdc7c3e638bac81ee1d7b6316e58775322ae72d56e2"},
        {"ring/ilp/generator",
         "66c233383877313dff94cff4b35c84a009063c9a41aa1ff2b1f5eadb2bae4611"},
        {"ring/finegrain",
         "f72e8002560fb913be5dd152d9ae52b155b06166423f06150d59a22fd871e8c1"},
        {"ring/finegrain/generator",
         "ce094b59245d1cf26a1303972fbbecd1f0dfaacd5bf9f7a549c5471a15aa3966"},
        {"ring/ineffectuality",
         "c26b292d9368c1e7e7dffb5471b1a169d56599f43293c8328e3e85f53c2afe9a"},
        {"ring/ineffectuality/generator",
         "dce526d0cfa6e17ae9d39b27571b221dee3e8c18732a86f170daff8923623b36"},
        {"ring/oracle",
         "93fbc51b84814943f5d5175f9303819d8b244c7a04c5223f8652f9db6bc605c0"},
        {"ring/oracle/generator",
         "c91d26fddcf402252c5f32c3ec36524641b09806ad928a118327a7121db7bcb4"},
        {"grid/static",
         "d0f64c7faf5b18f7e2404a61b2fffeb424a56e55abcf9434796925149747fe9b"},
        {"grid/static/generator",
         "94deca5710c70a0d64de02d9635bbedb8650a2ae227ed6c04a6c7f0753f06c11"},
        {"grid/explore",
         "0e074cd29b4d4bae109a966da768b4e24175e74ba89d1b53d8b2eb27d33288b0"},
        {"grid/explore/generator",
         "9f09b66e55d1c7f20149a393429c2e45bc74e84324f1f9fb2f8d2c7b74202ec6"},
        {"grid/ilp",
         "da1cf21d228f8f2de1c5ce56e73a4cf8d20023de2f6f1b77c9369d4544d3fe23"},
        {"grid/ilp/generator",
         "2c51930ad4a882264cf8ccdd023b25ca64beb796a51a6ec3840829f0e3694a20"},
        {"grid/finegrain",
         "e50d1ca7835e5ecd422279a1c89fd09cde5da7882bbd8a8cc2a63ee3c2709627"},
        {"grid/finegrain/generator",
         "957978946a5c554b4b69c129d4d7373da86dbc798d23bad6e350a3f4a20b552a"},
        {"grid/ineffectuality",
         "1c8e7b280f3c224a60551a3aca2e8e8d9ff0772de51b0cd8e5a7f01b4d0a4a91"},
        {"grid/ineffectuality/generator",
         "f1aa778921ffdacef4147f6ed9d14b83347b19ce45fdb35e3ed25213e6a8b251"},
        {"grid/oracle",
         "82dc26f8b2d54efa73093803f8788c76e7084b7a8222a2d26877dd720dcf2d79"},
        {"grid/oracle/generator",
         "a85c92ce03b5a34481d8c556dc307b1ad884b9e91fb9b2e54a6e0612798fca6b"},
        {"monolithic/static",
         "c10e7ab5d298509edb3740ba26439a3e0f26c8da5109aab9c162d0ea9e8a5d3a"},
        {"monolithic/static/generator",
         "e4e00f14b30a541cd0456fa012ee71dc5e0ef43ac16a289a285b23006c022519"},
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
    // For each bounded or shape-checked field in a fields() list, a
    // just-out-of-range value written in place of its bytes must fail
    // the load. The replay-fed, controller-less machines cover the core
    // (the centralized ring, the decentralized grid and a monolithic
    // machine); the controller cases cover each controller's state, and
    // the generator-fed cases the generator's.
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
