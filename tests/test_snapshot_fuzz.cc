/**
 * @file
 * Mutation fuzzer over deserializeSnapshot() (sim/checkpoint.hh), the
 * decoder every warm start runs on bytes read back from the checkpoint
 * store.
 *
 * The seeds are real format-3 payloads: the centralized ring, the
 * decentralized grid and a monolithic machine, replay-fed and
 * generator-fed, with and without a controller. Each case applies one
 * to three mutations to one seed: a bit flip, inserted or deleted
 * bytes, a truncation, an overlong varint, a zero run made split,
 * empty or huge, or one scalar changed with its successor's difference
 * compensated (the only mutation that leaves most of a delta stream
 * intact, so most accepted cases come from it). Every case must keep
 * two properties: the decoder does not crash (the ASan/UBSan build also
 * checks memory and undefined behaviour), and a payload it accepts
 * re-serializes to exactly its own bytes, so the reader admits no
 * second encoding of any state.
 *
 * A failing case is shrunk to the fewest of its mutations that still
 * fail. (The shrinker in check/fuzz.hh minimizes simulation knobs by
 * re-running simulations; byte mutations shrink by dropping
 * mutations instead.) The run is deterministic: kFuzzSeed replays it.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/random.hh"
#include "core/processor.hh"
#include "reconfig/finegrain.hh"
#include "reconfig/interval_explore.hh"
#include "reconfig/oracle.hh"
#include "reconfig/registry.hh"
#include "sim/checkpoint.hh"
#include "sim/presets.hh"
#include "workload/benchmarks.hh"
#include "workload/replay.hh"
#include "workload/synthetic.hh"

using namespace clustersim;

namespace {

constexpr std::uint64_t kWarmup = 3000;
constexpr int kCases = 600;
constexpr std::uint64_t kFuzzSeed = 20030609;

/** A machine kept alive to hand out donors, and its payload. */
struct Seed {
    std::string name;
    std::unique_ptr<TraceSource> source;
    std::unique_ptr<ReconfigController> controller;
    std::unique_ptr<Processor> proc;
    std::string payload;
};

std::vector<Seed>
makeSeeds()
{
    using Make = std::function<std::unique_ptr<ReconfigController>()>;
    struct Spec {
        const char *name;
        ProcessorConfig cfg;
        Make make;
        bool generator;
    };
    const ProcessorConfig ring = clusteredConfig(16);
    const ProcessorConfig grid =
        clusteredConfig(16, InterconnectKind::Grid, true);
    const Spec specs[] = {
        {"ring", ring, nullptr, false},
        {"ring/explore/generator", ring,
         [] { return makeExploreController(); }, true},
        {"ring/oracle", ring,
         [] {
             return std::make_unique<OracleController>(
                 1, std::vector<int>(64, 4));
         },
         false},
        {"grid/finegrain", grid, [] { return makeFinegrainController(); },
         false},
        {"grid/ineffectuality/generator", grid,
         [] { return makeController("ineffectuality").make(); }, true},
        {"monolithic", monolithicConfig(16), nullptr, false},
        {"monolithic/generator", monolithicConfig(16), nullptr, true},
    };

    const WorkloadSpec w = makeBenchmark("gzip");
    std::vector<Seed> seeds;
    for (const Spec &spec : specs) {
        Seed s;
        s.name = spec.name;
        if (spec.generator)
            s.source = std::make_unique<SyntheticWorkload>(w);
        else
            s.source = std::make_unique<ReplaySource>(
                std::make_shared<const ReplayBuffer>(
                    w, kWarmup + replayMargin(spec.cfg)));
        if (spec.make)
            s.controller = spec.make();
        s.proc = std::make_unique<Processor>(spec.cfg, s.source.get(),
                                             s.controller.get());
        s.proc->run(kWarmup);
        s.payload = serializeSnapshot(s.proc->snapshot());
        seeds.push_back(std::move(s));
    }
    return seeds;
}

/** One mutation. `at` and `arg` are raw draws, reduced when applied. */
struct Mutation {
    enum Kind {
        Flip,
        Insert,
        Erase,
        Truncate,
        Overlong,
        SplitRun,
        EmptyRun,
        HugeRun,
        Edit,
        Kinds
    };
    Kind kind;
    std::uint64_t at;
    std::uint64_t arg;
};

std::string
describe(const Mutation &m)
{
    static const char *const names[] = {"flip",     "insert",    "erase",
                                        "truncate", "overlong",  "split-run",
                                        "empty-run", "huge-run",  "edit"};
    return std::string(names[m.kind]) + "(" + std::to_string(m.at) + "," +
           std::to_string(m.arg) + ")";
}

std::string
varint(std::uint64_t v)
{
    std::string out;
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<char>(v | 0x80));
    out.push_back(static_cast<char>(v));
    return out;
}

/** Offset one past the varint starting at i (or the end of p). */
std::size_t
varintEnd(const std::string &p, std::size_t i)
{
    while (i < p.size() && (p[i] & 0x80) != 0)
        i++;
    return i < p.size() ? i + 1 : i;
}

/** The value of the varint starting at i. */
std::uint64_t
varintAt(const std::string &p, std::size_t i)
{
    std::uint64_t v = 0;
    for (std::size_t j = varintEnd(p, i); j > i; j--)
        v = (v << 7) | (static_cast<unsigned char>(p[j - 1]) & 0x7f);
    return v;
}

std::string
zigzag(std::uint64_t d)
{
    return varint((d << 1) ^ (0 - (d >> 63)));
}

/**
 * Token offsets of p, and those of its zero runs, read as if p held no
 * string: the one string, a controller's name, misaligns only the few
 * tokens around it.
 */
void
tokenize(const std::string &p, std::vector<std::size_t> &tokens,
         std::vector<std::size_t> &runs)
{
    for (std::size_t i = 0; i < p.size();) {
        tokens.push_back(i);
        if (p[i] == 0) {
            runs.push_back(i);
            i = varintEnd(p, i + 1);
        } else {
            i = varintEnd(p, i);
        }
    }
}

std::string
apply(std::string p, const Mutation &m)
{
    std::vector<std::size_t> tokens, runs;
    if (m.kind >= Mutation::Overlong)
        tokenize(p, tokens, runs);
    if (p.empty() || (m.kind >= Mutation::Overlong && tokens.empty()))
        return p + varint(m.arg & 0xff);
    const std::size_t pos = m.at % p.size();
    switch (m.kind) {
        case Mutation::Flip:
            p[pos] = static_cast<char>(p[pos] ^ (1 << (m.arg % 8)));
            break;
        case Mutation::Insert:
            p.insert(pos, std::string(1 + m.arg % 4,
                                      static_cast<char>(m.arg >> 8)));
            break;
        case Mutation::Erase:
            p.erase(pos, 1 + m.arg % 4);
            break;
        case Mutation::Truncate:
            p.resize(pos);
            break;
        case Mutation::Overlong: {
            // One more varint group of zero bits: the same value, coded
            // one byte too long.
            const std::size_t t = tokens[m.at % tokens.size()];
            const std::size_t last = varintEnd(p, t) - 1;
            p[last] = static_cast<char>(p[last] | 0x80);
            p.insert(last + 1, 1, '\0');
            break;
        }
        case Mutation::SplitRun: {
            if (runs.empty())
                return apply(p, {Mutation::EmptyRun, m.at, m.arg});
            const std::size_t r = runs[m.at % runs.size()];
            const std::uint64_t n = varintAt(p, r + 1);
            if (n < 2)
                return apply(p, {Mutation::EmptyRun, m.at, m.arg});
            const std::uint64_t a = 1 + m.arg % (n - 1);
            const std::string zero(1, '\0');
            p.replace(r, varintEnd(p, r + 1) - r,
                      zero + varint(a) + zero + varint(n - a));
            break;
        }
        case Mutation::EmptyRun:
            p.insert(tokens[m.at % tokens.size()], std::string(2, '\0'));
            break;
        case Mutation::HugeRun: {
            const std::string huge = std::string(1, '\0') +
                                     varint(~std::uint64_t(0) >> (m.arg % 40));
            if (!runs.empty() && m.arg % 2 == 0) {
                // One time in four the last run: where a replay-fed,
                // controller-less payload ends, it is left unfinished.
                const std::size_t r = (m.arg >> 1) % 4 == 0
                                          ? runs.back()
                                          : runs[m.at % runs.size()];
                p.replace(r, varintEnd(p, r + 1) - r, huge);
            } else {
                p.insert(tokens[m.at % tokens.size()], huge);
            }
            break;
        }
        case Mutation::Edit: {
            // Scalar k moves by x: its own difference grows by x and the
            // next one shrinks by x, so every later scalar stays put.
            const std::size_t k = m.at % tokens.size();
            if (k + 1 == tokens.size() || p[tokens[k]] == 0 ||
                p[tokens[k + 1]] == 0)
                break;
            auto difference = [&](std::size_t t) {
                const std::uint64_t z = varintAt(p, t);
                return (z >> 1) ^ (0 - (z & 1));
            };
            const std::uint64_t x =
                m.arg % 2 ? m.arg >> 1 : (m.arg >> 1) % 64;
            const std::uint64_t d0 = difference(tokens[k]) + x;
            const std::uint64_t d1 = difference(tokens[k + 1]) - x;
            if (x == 0 || d0 == 0 || d1 == 0)
                break;
            p.replace(tokens[k], varintEnd(p, tokens[k + 1]) - tokens[k],
                      zigzag(d0) + zigzag(d1));
            break;
        }
        case Mutation::Kinds:
            break;
    }
    return p;
}

std::string
applyAll(const std::string &payload, const std::vector<Mutation> &ms)
{
    std::string p = payload;
    for (const Mutation &m : ms)
        p = apply(std::move(p), m);
    return p;
}

/** The property: rejected, or accepted and re-serialized exactly. */
bool
holds(const Seed &seed, const std::string &bytes, bool *accepted = nullptr)
{
    Processor::Snapshot donor = seed.proc->snapshot();
    const bool ok = deserializeSnapshot(bytes, donor);
    if (accepted != nullptr)
        *accepted = ok;
    return !ok || serializeSnapshot(donor) == bytes;
}

/** Drop mutations while the property still fails. */
std::vector<Mutation>
shrink(const Seed &seed, std::vector<Mutation> ms)
{
    for (std::size_t i = 0; i < ms.size();) {
        std::vector<Mutation> fewer = ms;
        fewer.erase(fewer.begin() + static_cast<std::ptrdiff_t>(i));
        if (!holds(seed, applyAll(seed.payload, fewer)))
            ms = std::move(fewer);
        else
            i++;
    }
    return ms;
}

} // namespace

TEST(SnapshotFuzz, MutatedPayloadsAreRejectedOrRoundTripExactly)
{
    const std::vector<Seed> seeds = makeSeeds();
    for (const Seed &seed : seeds) {
        bool accepted = false;
        EXPECT_TRUE(holds(seed, seed.payload, &accepted)) << seed.name;
        EXPECT_TRUE(accepted) << seed.name << ": the seed itself";
    }

    Rng rng(kFuzzSeed);
    int acceptedCases = 0;
    int failures = 0;
    for (int c = 0; c < kCases && failures < 5; c++) {
        const Seed &seed = seeds[rng.range(
            static_cast<std::uint32_t>(seeds.size()))];
        std::vector<Mutation> ms(1 + rng.range(3));
        for (Mutation &m : ms)
            m = {static_cast<Mutation::Kind>(rng.range(Mutation::Kinds)),
                 rng.next64(), rng.next64()};
        bool accepted = false;
        if (holds(seed, applyAll(seed.payload, ms), &accepted)) {
            acceptedCases += accepted ? 1 : 0;
            continue;
        }
        failures++;
        std::string chain;
        for (const Mutation &m : shrink(seed, ms))
            chain += " " + describe(m);
        ADD_FAILURE() << "case " << c << " (seed " << kFuzzSeed << ") on "
                      << seed.name
                      << ": accepted, but re-serializes to other bytes;"
                      << " shrunk to:" << chain;
    }
    std::printf("snapshot fuzz: %d cases over %zu payloads, %d accepted "
                "(each re-serialized exactly)\n",
                kCases, seeds.size(), acceptedCases);
}
