#include "sim/plan.hh"

#include <cstring>

namespace clustersim {

namespace {

// --- byte-key primitives ---------------------------------------------------
// Each serializer lists its struct exhaustively, field-declaration
// order, with a separator between fields; see the header comment.

void
keyU(std::string &k, std::uint64_t v)
{
    for (int i = 0; i < 8; i++)
        k.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    k.push_back('\x1f');
}

void
keyI(std::string &k, std::int64_t v)
{
    keyU(k, static_cast<std::uint64_t>(v));
}

void
keyD(std::string &k, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    keyU(k, bits);
}

void
keyS(std::string &k, const std::string &s)
{
    keyU(k, s.size()); // length prefix: ("ab","c") != ("a","bc")
    k += s;
    k.push_back('\x1f');
}

void
keyPhase(std::string &k, const PhaseSpec &p)
{
    keyS(k, p.name);
    keyD(k, p.avgBlockLen);
    keyI(k, p.codeBlocks);
    keyD(k, p.fracCallBlocks);
    keyI(k, p.numFunctions);
    keyD(k, p.fracLoad);
    keyD(k, p.fracStore);
    keyD(k, p.fracFp);
    keyD(k, p.fracLongLat);
    keyI(k, p.chainCount);
    keyD(k, p.pChainDep);
    keyD(k, p.pSecondSrc);
    keyD(k, p.pAddrChainDep);
    keyD(k, p.fracBiased);
    keyD(k, p.fracPattern);
    keyD(k, p.biasedTakenProb);
    keyD(k, p.fracStreamMem);
    keyI(k, p.streamCount);
    keyI(k, p.streamStride);
    keyD(k, p.fracPointerChase);
    keyI(k, p.footprintKB);
    keyI(k, p.streamSpanKB);
    keyD(k, p.hotFraction);
    keyI(k, p.hotRegionKB);
    keyI(k, p.chaseRegionKB);
    keyU(k, p.uniformBlockMix ? 1 : 0);
    keyU(k, p.meanPhaseLen);
}

} // namespace

void
appendWorkloadKey(std::string &k, const WorkloadSpec &w)
{
    keyS(k, w.name);
    keyU(k, w.seed);
    keyU(k, w.phases.size());
    for (const PhaseSpec &p : w.phases)
        keyPhase(k, p);
    keyU(k, w.schedule.size());
    for (const Segment &s : w.schedule) {
        keyI(k, s.phase);
        keyU(k, s.meanLen);
    }
}

void
appendConfigKey(std::string &k, const ProcessorConfig &c)
{
    keyS(k, c.name);
    keyI(k, c.numClusters);
    keyI(k, c.cluster.intIssueQueue);
    keyI(k, c.cluster.fpIssueQueue);
    keyI(k, c.cluster.intRegs);
    keyI(k, c.cluster.fpRegs);
    keyI(k, c.cluster.intAlus);
    keyI(k, c.cluster.intMultDivs);
    keyI(k, c.cluster.fpAlus);
    keyI(k, c.cluster.fpMultDivs);
    keyU(k, c.cluster.fuEarliestFree ? 1 : 0);
    keyU(k, c.fuLat.intAlu);
    keyU(k, c.fuLat.intMult);
    keyU(k, c.fuLat.intDiv);
    keyU(k, c.fuLat.fpAlu);
    keyU(k, c.fuLat.fpMult);
    keyU(k, c.fuLat.fpDiv);
    keyI(k, static_cast<int>(c.interconnect));
    keyU(k, c.hopLatency);
    keyI(k, c.fetchWidth);
    keyI(k, c.fetchQueueSize);
    keyI(k, c.maxFetchBlocks);
    keyI(k, c.dispatchWidth);
    keyI(k, c.commitWidth);
    keyI(k, c.robSize);
    keyU(k, c.frontEndDepth);
    keyU(k, c.redirectPenalty);
    keyU(k, c.branch.bimodalEntries);
    keyU(k, c.branch.l1Entries);
    keyU(k, c.branch.l2Entries);
    keyI(k, c.branch.historyBits);
    keyU(k, c.branch.chooserEntries);
    keyU(k, c.branch.btbSets);
    keyI(k, c.branch.btbWays);
    keyU(k, c.branch.rasDepth);
    keyU(k, c.l1.decentralized ? 1 : 0);
    keyU(k, c.l1.sizeBytes);
    keyI(k, c.l1.ways);
    keyI(k, c.l1.lineBytes);
    keyI(k, c.l1.banks);
    keyU(k, c.l1.ramLatency);
    keyU(k, c.l1.bankSizeBytes);
    keyI(k, c.l1.bankWays);
    keyI(k, c.l1.bankLineBytes);
    keyU(k, c.l1.bankRamLatency);
    keyU(k, c.l2.sizeBytes);
    keyI(k, c.l2.ways);
    keyI(k, c.l2.lineBytes);
    keyU(k, c.l2.accessLatency);
    keyU(k, c.l2.memoryLatency);
    keyI(k, c.lsqPerCluster);
    keyU(k, c.icacheBytes);
    keyI(k, c.icacheWays);
    keyI(k, c.icacheLineBytes);
    keyI(k, c.loadBalanceThreshold);
    keyI(k, c.distantDepth);
    keyU(k, c.freeRegComm ? 1 : 0);
    keyU(k, c.freeMemComm ? 1 : 0);
    keyU(k, c.perfectBankPred ? 1 : 0);
    keyI(k, c.activeClustersAtReset);
    keyU(k, c.idleSkip ? 1 : 0);
}

std::vector<PlannedPoint>
planPoints(const std::vector<RunPoint> &points, bool derive_seeds)
{
    std::vector<PlannedPoint> out;
    out.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); i++) {
        const RunPoint &p = points[i];
        PlannedPoint m;
        m.index = i;
        m.label = !p.label.empty() ? p.label : p.cfg.name;
        m.seed = derive_seeds
            ? sweepSeed(p.workload.seed, p.workload.name,
                        !p.seedTag.empty() ? p.seedTag : m.label)
            : p.workload.seed;
        out.push_back(std::move(m));
    }
    return out;
}

SweepPlan
planSweep(const std::vector<RunPoint> &points, bool derive_seeds)
{
    return {planPoints(points, derive_seeds)};
}

bool
pointCacheable(const RunPoint &p)
{
    return !p.makeController || !p.controllerKey.empty();
}

std::string
pointIdentityKey(const RunPoint &p, const std::string &label,
                 std::uint64_t seed)
{
    if (!pointCacheable(p))
        return {};
    std::string k;
    appendConfigKey(k, p.cfg);
    WorkloadSpec w = p.workload;
    w.seed = seed;
    appendWorkloadKey(k, w);
    keyU(k, p.warmup);
    keyU(k, p.measure);
    keyS(k, label);
    if (p.makeController)
        keyS(k, "ctrl-" + p.controllerKey);
    else
        keyS(k, "no-controller");
    return k;
}

std::string
warmupIdentityKey(const RunPoint &p, std::uint64_t seed)
{
    if (!pointCacheable(p) || p.warmup == 0)
        return {};
    std::string k;
    appendConfigKey(k, p.cfg);
    WorkloadSpec w = p.workload;
    w.seed = seed;
    appendWorkloadKey(k, w);
    keyU(k, p.warmup);
    if (p.makeController)
        keyS(k, "ctrl-" + p.controllerKey);
    else
        keyS(k, "no-controller");
    return k;
}

} // namespace clustersim
