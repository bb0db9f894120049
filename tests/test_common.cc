/**
 * @file
 * Unit tests for the common utilities: RNG, saturating counters,
 * statistics, slot reservation, table formatting, and SHA-256 (the
 * dispatched block path held to the portable reference).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/resource.hh"
#include "common/sat_counter.hh"
#include "common/sha256.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace clustersim;

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    Rng a(42, 7);
    Rng b(42, 7);
    for (int i = 0; i < 1000; i++)
        EXPECT_EQ(a.next32(), b.next32());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiffer)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng r(3);
    for (std::uint32_t bound : {1u, 2u, 7u, 100u, 1000000u}) {
        for (int i = 0; i < 200; i++) {
            std::uint32_t v = r.range(bound);
            EXPECT_LT(v, bound);
        }
    }
}

TEST(Rng, RangeZeroReturnsZero)
{
    Rng r(3);
    EXPECT_EQ(r.range(0), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    double sum = 0;
    for (int i = 0; i < 10000; i++) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; i++) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(Rng, ChanceFrequency)
{
    Rng r(11);
    int hits = 0;
    for (int i = 0; i < 20000; i++)
        if (r.chance(0.3))
            hits++;
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(13);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; i++)
        sum += r.geometric(0.25);
    // Mean of geometric (failures before success) is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(21);
    Rng b = a.fork();
    int same = 0;
    for (int i = 0; i < 100; i++)
        if (a.next32() == b.next32())
            same++;
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// SatCounter
// ---------------------------------------------------------------------------

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; i++)
        c.increment();
    EXPECT_EQ(c.value(), 3);
    EXPECT_TRUE(c.predictTaken());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; i++)
        c.decrement();
    EXPECT_EQ(c.value(), 0);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, MidpointPredictsNotTaken)
{
    SatCounter c(2, 1); // weakly not-taken
    EXPECT_FALSE(c.predictTaken());
    c.update(true);
    EXPECT_TRUE(c.predictTaken()); // 2: weakly taken
}

TEST(SatCounter, HysteresisNeedsTwoFlips)
{
    SatCounter c(2, 3); // strongly taken
    c.update(false);
    EXPECT_TRUE(c.predictTaken());
    c.update(false);
    EXPECT_FALSE(c.predictTaken());
}

TEST(SatCounter, ThreeBitRange)
{
    SatCounter c(3, 0);
    for (int i = 0; i < 20; i++)
        c.increment();
    EXPECT_EQ(c.value(), 7);
    EXPECT_EQ(c.max(), 7);
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageMean)
{
    Average a;
    a.sample(1.0);
    a.sample(2.0);
    a.sample(3.0);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, AverageEmptyIsZero)
{
    Average a;
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Stats, HistogramBucketsAndMean)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; i++)
        h.sample(i + 0.5);
    EXPECT_EQ(h.totalSamples(), 10u);
    EXPECT_NEAR(h.mean(), 5.0, 1e-9);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 1u);
}

TEST(Stats, HistogramClampsOutliers)
{
    Histogram h(0.0, 10.0, 10);
    h.sample(-5.0);
    h.sample(50.0);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Stats, HistogramFractionAtLeast)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; i++)
        h.sample(i + 0.5);
    EXPECT_NEAR(h.fractionAtLeast(5.0), 0.5, 1e-9);
    EXPECT_NEAR(h.fractionAtLeast(0.0), 1.0, 1e-9);
}

TEST(Stats, StatSetRoundTrip)
{
    StatSet s;
    s.set("ipc", 1.5);
    s.set("cycles", 100);
    EXPECT_TRUE(s.has("ipc"));
    EXPECT_FALSE(s.has("nope"));
    EXPECT_DOUBLE_EQ(s.get("ipc"), 1.5);
    s.set("ipc", 2.0); // overwrite keeps one entry
    EXPECT_DOUBLE_EQ(s.get("ipc"), 2.0);
    EXPECT_EQ(s.entries().size(), 2u);
}

TEST(Stats, GeomeanAndAmean)
{
    std::vector<double> v = {1.0, 4.0};
    EXPECT_DOUBLE_EQ(geomean(v), 2.0);
    EXPECT_DOUBLE_EQ(amean(v), 2.5);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({1.0, 0.0}), 0.0); // non-positive guard
}

TEST(Stats, SafeRateClampsVanishingDenominator)
{
    // Ordinary denominators divide normally.
    EXPECT_DOUBLE_EQ(safeRate(100.0, 2.0), 50.0);
    EXPECT_DOUBLE_EQ(safeRate(5.0, 1e-6), 5.0e6);
    // A ~0 wall time must give a huge-but-finite rate, never inf: the
    // JSON writer spells inf as null, which poisons any later read of
    // the value (the perfbench --quick baseline regression).
    EXPECT_TRUE(std::isfinite(safeRate(1e6, 0.0)));
    EXPECT_DOUBLE_EQ(safeRate(1e6, 0.0), 1e6 / 1e-9);
    EXPECT_DOUBLE_EQ(safeRate(1e6, -1.0), 1e6 / 1e-9);
    EXPECT_DOUBLE_EQ(safeRate(0.0, 0.0), 0.0);
}

// ---------------------------------------------------------------------------
// SlotReserver
// ---------------------------------------------------------------------------

TEST(SlotReserver, SequentialConflictsPushBack)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserve(10), 10u);
    EXPECT_EQ(r.reserve(10), 11u);
    EXPECT_EQ(r.reserve(10), 12u);
    EXPECT_EQ(r.reserve(11), 13u);
}

TEST(SlotReserver, IndependentCyclesFree)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserve(5), 5u);
    EXPECT_EQ(r.reserve(100), 100u);
    EXPECT_EQ(r.reserve(7), 7u);
}

TEST(SlotReserver, WindowWrapTreatsStaleAsFree)
{
    SlotReserver r(16);
    EXPECT_EQ(r.reserve(3), 3u);
    // 3 + 16 maps to the same slot but is a different cycle: free.
    EXPECT_EQ(r.reserve(19), 19u);
}

TEST(SlotReserver, ReserveSpanContiguous)
{
    SlotReserver r(64);
    EXPECT_EQ(r.reserveSpan(10, 5), 10u); // occupies 10..14
    EXPECT_EQ(r.reserve(12), 15u);
    EXPECT_EQ(r.reserveSpan(13, 3), 16u); // next 3 free cycles 16..18
}

TEST(SlotReserver, SpanSkipsPartialHoles)
{
    SlotReserver r(64);
    r.reserve(11);
    // A 3-cycle span at 10 collides with 11 -> starts at 12.
    EXPECT_EQ(r.reserveSpan(10, 3), 12u);
}

TEST(SlotReserver, SpanEqualToWindowFits)
{
    SlotReserver r(16);
    EXPECT_EQ(r.reserveSpan(4, 16), 4u); // occupies 4..19 exactly
    // Every slot is now busy until its cycle passes; the next request
    // for an occupied cycle is pushed to the first cycle whose slot
    // has gone stale.
    EXPECT_EQ(r.reserve(4), 20u);
}

TEST(SlotReserver, SpanLongerThanWindowIsFatal)
{
    // A span longer than the window can never fit: any candidate start
    // collides with its own tail modulo the window, so the search
    // would spin forever. The reserver must report instead of looping.
    SlotReserver r(16);
    EXPECT_THROW(r.reserveSpan(0, 17), SimError);
    EXPECT_THROW(r.firstFreeSpan(0, 17), SimError);
}

// ---------------------------------------------------------------------------
// Table / logging
// ---------------------------------------------------------------------------

TEST(Table, FormatsAlignedColumns)
{
    Table t({"name", "value"});
    t.startRow();
    t.cell("alpha");
    t.cell(1.5, 1);
    t.startRow();
    t.cell("b");
    t.cell(std::uint64_t{42});
    std::string out = t.format();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.5"), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Logging, FatalThrowsSimError)
{
    EXPECT_THROW(fatal("boom ", 42), SimError);
}

// ---------------------------------------------------------------------------
// Sha256: the dispatched path against the portable reference
// ---------------------------------------------------------------------------

namespace clustersim {

/** Digests through the portable compress() alone, with the FIPS 180-4
 *  padding done here: the reference every other path must match. */
struct Sha256Reference {
    static std::array<std::uint8_t, 32>
    digest(const std::string &msg)
    {
        std::string padded = msg + '\x80';
        while (padded.size() % 64 != 56)
            padded.push_back('\0');
        const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
        for (int i = 7; i >= 0; i--)
            padded.push_back(static_cast<char>(bits >> (8 * i)));
        Sha256 h;
        const auto *p = reinterpret_cast<const std::uint8_t *>(padded.data());
        for (std::size_t off = 0; off < padded.size(); off += 64)
            h.compress(p + off);
        std::array<std::uint8_t, 32> out{};
        for (int i = 0; i < 32; i++)
            out[i] = static_cast<std::uint8_t>(h.state_[i / 4] >>
                                               (24 - 8 * (i % 4)));
        return out;
    }
};

} // namespace clustersim

namespace {

std::string
toHex(const std::array<std::uint8_t, 32> &d)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : d) {
        out.push_back(hex[b >> 4]);
        out.push_back(hex[b & 0xf]);
    }
    return out;
}

std::string
randomBytes(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::string out(n, '\0');
    for (char &c : out)
        c = static_cast<char>(rng.next32());
    return out;
}

/** Digest of msg fed to update() in seeded random pieces of 1..maxPiece
 *  bytes, so pieces start and end at every offset within a block. */
std::array<std::uint8_t, 32>
splitDigest(const std::string &msg, Rng &rng, std::uint32_t maxPiece)
{
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
        std::size_t n = std::min<std::size_t>(msg.size() - off,
                                              rng.range(maxPiece) + 1);
        h.update(msg.data() + off, n);
        off += n;
    }
    return h.digest();
}

std::array<std::uint8_t, 32>
oneShotDigest(const std::string &msg)
{
    Sha256 h;
    h.update(msg);
    return h.digest();
}

} // namespace

TEST(Sha256, ReportsTheDispatchedBlockPath)
{
    const std::string path = Sha256::blockPath();
    std::printf("sha256 block path: %s\n", path.c_str());
    RecordProperty("block_path", path);
#if defined(__x86_64__)
    EXPECT_TRUE(path == "sha-ni" || path == "portable") << path;
#else
    EXPECT_EQ(path, "portable");
#endif
}

TEST(Sha256, Fips180Vectors)
{
    const std::pair<std::string, const char *> vectors[] = {
        {"", "e3b0c44298fc1c149afbf4c8996fb924"
             "27ae41e4649b934ca495991b7852b855"},
        {"abc", "ba7816bf8f01cfea414140de5dae2223"
                "b00361a396177a9cb410ff61f20015ad"},
        {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
         "248d6a61d20638b8e5c026930c3e6039"
         "a33ce45964ff2167f6ecedd419db06c1"},
        {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
         "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
         "cf5b16a778af8380036ce59e7b049237"
         "0b249b11e8f07a51afac45037afee9d1"},
        {std::string(1000000, 'a'), "cdc76e5c9914fb9281a1c7e284d73e67"
                                    "f1809a48a497200e046d39ccc7112cd0"},
    };
    for (const auto &[msg, want] : vectors) {
        SCOPED_TRACE(msg.size());
        EXPECT_EQ(sha256Hex(msg), want);
        EXPECT_EQ(toHex(Sha256Reference::digest(msg)), want);
        Rng rng(msg.size());
        EXPECT_EQ(toHex(splitDigest(msg, rng, 4096)), want);
    }
}

TEST(Sha256, DispatchedMatchesPortableForEveryLengthTo1024)
{
    const std::string bytes = randomBytes(1024, 20030609);
    Rng rng(7);
    for (std::size_t len = 0; len <= bytes.size(); len++) {
        SCOPED_TRACE(len);
        const std::string msg = bytes.substr(0, len);
        const std::array<std::uint8_t, 32> want =
            Sha256Reference::digest(msg);
        ASSERT_EQ(oneShotDigest(msg), want);
        for (std::uint32_t maxPiece : {3u, 70u, 300u})
            ASSERT_EQ(splitDigest(msg, rng, maxPiece), want) << maxPiece;
    }
}

TEST(Sha256, DispatchedMatchesPortableOnACheckpointSizedBuffer)
{
    // The size of one warmup checkpoint payload.
    const std::string msg = randomBytes(1845354, 42);
    const std::array<std::uint8_t, 32> want = Sha256Reference::digest(msg);
    EXPECT_EQ(oneShotDigest(msg), want);
    Rng rng(11);
    for (std::uint32_t maxPiece : {100u, 5000u, 400000u})
        EXPECT_EQ(splitDigest(msg, rng, maxPiece), want) << maxPiece;
}

TEST(Sha256, ConcurrentHashesMatchTheReference)
{
    constexpr int threads = 4;
    std::vector<std::string> msgs;
    std::vector<std::array<std::uint8_t, 32>> want;
    for (int t = 0; t < threads; t++) {
        msgs.push_back(randomBytes(100000 + 777 * t, 100 + t));
        want.push_back(Sha256Reference::digest(msgs.back()));
    }
    std::vector<std::array<std::uint8_t, 32>> got(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; t++) {
        pool.emplace_back([&, t] {
            Rng rng(t);
            for (int rep = 0; rep < 8; rep++) {
                got[t] = rep % 2 ? oneShotDigest(msgs[t])
                                 : splitDigest(msgs[t], rng, 9000);
                if (got[t] != want[t])
                    return;
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    for (int t = 0; t < threads; t++)
        EXPECT_EQ(got[t], want[t]) << "thread " << t;
}
