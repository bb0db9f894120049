/**
 * @file
 * Replay and checkpoint/restore correctness.
 *
 * Two layers, the second depending on the first:
 *  - the ReplayBuffer reproduces the synthetic generator's stream
 *    exactly, and a run fed from it is bit-identical to one fed from
 *    the generator;
 *  - a restored post-warmup snapshot continues bit-identically to the
 *    uninterrupted run, across every controller family and both
 *    interconnect topologies, and restores any number of times.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/processor.hh"
#include "sim/presets.hh"
#include "sim/sweep.hh"
#include "workload/replay.hh"
#include "workload/synthetic.hh"

using namespace clustersim;

namespace {

constexpr std::uint64_t kWarmup = 5000;
constexpr std::uint64_t kMeasure = 15000;

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

} // namespace

// ---------------------------------------------------------------------------
// Replay buffer
// ---------------------------------------------------------------------------

TEST(Replay, BufferReproducesGeneratorStream)
{
    WorkloadSpec w = makeBenchmark("parser");
    ReplayBuffer buf(w, 4096);
    SyntheticWorkload gen(w);
    ASSERT_EQ(buf.size(), 4096u);
    for (std::uint64_t i = 0; i < buf.size(); i++) {
        const MicroOp &a = buf.at(i);
        MicroOp b = gen.next();
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(static_cast<int>(a.op), static_cast<int>(b.op)) << i;
        ASSERT_EQ(a.src1, b.src1) << i;
        ASSERT_EQ(a.src2, b.src2) << i;
        ASSERT_EQ(a.dest, b.dest) << i;
        ASSERT_EQ(a.effAddr, b.effAddr) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
        ASSERT_EQ(a.target, b.target) << i;
    }
}

TEST(Replay, SeekIsExact)
{
    WorkloadSpec w = makeBenchmark("gzip");
    auto buf = std::make_shared<const ReplayBuffer>(w, 64);
    ReplaySource src(buf);
    for (int i = 0; i < 10; i++)
        src.next();
    EXPECT_EQ(src.position(), 10u);
    src.seek(3);
    EXPECT_EQ(src.position(), 3u);
    EXPECT_EQ(src.next().pc, buf->at(3).pc);
    src.seek(0);
    EXPECT_EQ(src.next().pc, buf->at(0).pc);
}

TEST(Replay, RunFromBufferMatchesGeneratorRun)
{
    WorkloadSpec w = makeBenchmark("gzip");
    ProcessorConfig cfg = clusteredConfig(16);

    SyntheticWorkload gen(w);
    Processor a(cfg, &gen, nullptr);
    a.run(kWarmup);
    a.resetStats();
    SimResult direct = measureWindow(a, kMeasure);

    SimResult replayed =
        straightLine(cfg, makeBuffer(w, cfg, kWarmup + kMeasure),
                     nullptr, kWarmup, kMeasure);
    EXPECT_EQ(toJson(direct), toJson(replayed));
}

// ---------------------------------------------------------------------------
// Snapshot / restore
// ---------------------------------------------------------------------------

TEST(Snapshot, RestoredRunMatchesStraightLine)
{
    // The restore() + run(k) == uninterrupted-run(k) property, the
    // foundation of warm checkpoint starts and perfbench --batched,
    // across every controller family (static, interval-explore,
    // interval-ILP, fine-grained) and both interconnects. The snapshot
    // is restored twice, with a deliberately diverging run in between,
    // so a restore that leaks earlier state cannot pass.
    struct Case {
        const char *name;
        std::function<std::unique_ptr<ReconfigController>()> make;
    };
    const Case cases[] = {
        {"static", nullptr},
        {"explore", [] { return makeExploreController(); }},
        {"ilp", [] { return makeIlpController(10000); }},
        {"finegrain", [] { return makeFinegrainController(); }},
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

            ReplaySource src(buf);
            std::unique_ptr<ReconfigController> ctrl;
            if (c.make)
                ctrl = c.make();
            Processor proc(cfg, &src, ctrl.get());
            proc.run(kWarmup);
            proc.resetStats();
            Processor::Snapshot snap = proc.snapshot();

            proc.run(kMeasure / 2); // diverge past the snapshot
            proc.restore(snap);
            SimResult first = measureWindow(proc, kMeasure);
            proc.restore(snap);
            SimResult second = measureWindow(proc, kMeasure);

            EXPECT_EQ(toJson(straight), toJson(first));
            EXPECT_EQ(toJson(first), toJson(second));
        }
    }
}
