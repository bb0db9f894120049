/**
 * @file
 * Unit tests for the interconnect: ring and grid topologies (Section
 * 2.3 invariants: link counts, maximum hop distances) and the
 * link-reservation network (latency, sharing, contention).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>

#include "common/random.hh"

#include "interconnect/grid.hh"
#include "interconnect/network.hh"
#include "interconnect/ring.hh"

using namespace clustersim;
using namespace std::string_literals;

// ---------------------------------------------------------------------------
// Ring
// ---------------------------------------------------------------------------

TEST(Ring, PaperLinkAndHopCounts)
{
    // "a 16-cluster system has 32 total links ... with the maximum
    //  number of hops between any two nodes being 8."
    RingTopology ring(16);
    EXPECT_EQ(ring.numLinks(), 32);
    EXPECT_EQ(ring.maxHops(), 8);
}

TEST(Ring, HopsSymmetricShortestDirection)
{
    RingTopology ring(16);
    EXPECT_EQ(ring.hops(0, 1), 1);
    EXPECT_EQ(ring.hops(1, 0), 1);
    EXPECT_EQ(ring.hops(0, 15), 1); // wraps
    EXPECT_EQ(ring.hops(0, 8), 8);
    EXPECT_EQ(ring.hops(2, 0), 2);  // paper's cluster-3 load example
}

TEST(Ring, RouteLengthMatchesHops)
{
    RingTopology ring(16);
    for (int s = 0; s < 16; s++) {
        for (int d = 0; d < 16; d++) {
            EXPECT_EQ(static_cast<int>(ring.route(s, d).size()),
                      ring.hops(s, d));
        }
    }
}

TEST(Ring, RouteLinksValidAndDistinctDirections)
{
    RingTopology ring(8);
    // Clockwise route 0->3 uses clockwise link ids (< N).
    for (int link : ring.route(0, 3))
        EXPECT_LT(link, 8);
    // Counter-clockwise route 0->6 (2 hops back) uses ids >= N.
    for (int link : ring.route(0, 6))
        EXPECT_GE(link, 8);
}

TEST(Ring, SelfRouteEmpty)
{
    RingTopology ring(4);
    EXPECT_TRUE(ring.route(2, 2).empty());
    EXPECT_EQ(ring.hops(2, 2), 0);
}

TEST(Ring, SingleNodeDegenerate)
{
    RingTopology ring(1);
    EXPECT_EQ(ring.hops(0, 0), 0);
}

// ---------------------------------------------------------------------------
// Grid
// ---------------------------------------------------------------------------

TEST(Grid, PaperLinkAndHopCounts)
{
    // "For 16 clusters, there are 48 total links, with the maximum
    //  number of hops being 6."
    GridTopology grid(16);
    EXPECT_EQ(grid.rows(), 4);
    EXPECT_EQ(grid.cols(), 4);
    EXPECT_EQ(grid.numLinks(), 48);
    EXPECT_EQ(grid.maxHops(), 6);
}

TEST(Grid, ManhattanDistances)
{
    GridTopology grid(16);
    EXPECT_EQ(grid.hops(0, 5), 2);   // (0,0) -> (1,1)
    EXPECT_EQ(grid.hops(0, 15), 6);  // corner to corner
    EXPECT_EQ(grid.hops(3, 12), 6);
}

TEST(Grid, RouteLengthMatchesHops)
{
    GridTopology grid(16);
    for (int s = 0; s < 16; s++)
        for (int d = 0; d < 16; d++)
            EXPECT_EQ(static_cast<int>(grid.route(s, d).size()),
                      grid.hops(s, d));
}

TEST(Grid, RouteLinkIdsInRange)
{
    GridTopology grid(16);
    for (int s = 0; s < 16; s++) {
        for (int d = 0; d < 16; d++) {
            for (int link : grid.route(s, d)) {
                EXPECT_GE(link, 0);
                EXPECT_LT(link, grid.numLinks());
            }
        }
    }
}

TEST(Grid, XyRoutesAreDeterministic)
{
    GridTopology grid(16);
    EXPECT_EQ(grid.route(0, 15), grid.route(0, 15));
}

TEST(Grid, NonSquareFactorization)
{
    GridTopology grid(8); // 2x4
    EXPECT_EQ(grid.rows() * grid.cols(), 8);
    EXPECT_GE(grid.cols(), grid.rows());
    EXPECT_EQ(grid.maxHops(), grid.rows() - 1 + grid.cols() - 1);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

TEST(Network, UncontendedLatencyIsHopsTimesHopLatency)
{
    Network net(makeRing(16), 1);
    EXPECT_EQ(net.schedule(0, 4, 100), 104u);
    EXPECT_EQ(net.schedule(0, 15, 200), 201u);
}

TEST(Network, HopLatencyScales)
{
    Network net(makeRing(16), 2);
    EXPECT_EQ(net.schedule(0, 4, 100), 108u);
    EXPECT_EQ(net.latency(0, 4), 8u);
}

TEST(Network, SelfTransferFree)
{
    Network net(makeRing(16), 1);
    EXPECT_EQ(net.schedule(3, 3, 42), 42u);
    EXPECT_EQ(net.transfers(), 0u);
}

TEST(Network, ContentionSerializesSameLink)
{
    Network net(makeRing(16), 1);
    // Two transfers over the same first link at the same cycle: the
    // second is pushed back one cycle.
    Cycle a = net.schedule(0, 2, 100);
    Cycle b = net.schedule(0, 2, 100);
    EXPECT_EQ(a, 102u);
    EXPECT_EQ(b, 103u);
}

TEST(Network, DisjointLinksDoNotConflict)
{
    Network net(makeRing(16), 1);
    Cycle a = net.schedule(0, 1, 100);
    Cycle b = net.schedule(4, 5, 100);
    EXPECT_EQ(a, 101u);
    EXPECT_EQ(b, 101u);
}

TEST(Network, StatsAccumulate)
{
    Network net(makeRing(16), 1);
    net.schedule(0, 2, 10); // 2 hops
    net.schedule(0, 1, 20); // 1 hop
    EXPECT_EQ(net.transfers(), 2u);
    EXPECT_EQ(net.totalHops(), 3u);
    EXPECT_GT(net.avgLatency(), 0.0);
    net.resetStats();
    EXPECT_EQ(net.transfers(), 0u);
}

TEST(Network, HeavyContentionBacklog)
{
    Network net(makeRing(4), 1);
    // Saturate one link with many transfers at the same ready cycle;
    // arrivals must all be distinct (one per cycle).
    std::vector<Cycle> arrivals;
    for (int i = 0; i < 20; i++)
        arrivals.push_back(net.schedule(0, 1, 50));
    std::sort(arrivals.begin(), arrivals.end());
    for (std::size_t i = 1; i < arrivals.size(); i++)
        EXPECT_GT(arrivals[i], arrivals[i - 1]);
    EXPECT_EQ(arrivals.front(), 51u);
    EXPECT_EQ(arrivals.back(), 70u);
}

TEST(Network, GridNetworkRoutes)
{
    Network net(makeGrid(16), 1);
    EXPECT_EQ(net.schedule(0, 15, 100), 106u);
    EXPECT_EQ(net.latency(5, 10), 2u);
}

// ---------------------------------------------------------------------------
// Property tests over both topologies
// ---------------------------------------------------------------------------

// The kind is a std::string, not a const char *, so test listings print
// ("ring", 4) rather than the literal's address, and ctest names stay the
// same from one discovery run to the next.
class TopologyProperty
    : public ::testing::TestWithParam<std::pair<std::string, int>>
{
  protected:
    std::unique_ptr<Topology>
    make() const
    {
        const auto &[kind, nodes] = GetParam();
        return kind == "ring" ? makeRing(nodes) : makeGrid(nodes);
    }
};

TEST_P(TopologyProperty, RoutesHaveNoDuplicateLinks)
{
    auto topo = make();
    for (int s = 0; s < topo->numNodes(); s++) {
        for (int d = 0; d < topo->numNodes(); d++) {
            auto route = topo->route(s, d);
            std::set<int> seen(route.begin(), route.end());
            EXPECT_EQ(seen.size(), route.size());
        }
    }
}

TEST_P(TopologyProperty, RouteLengthMatchesHopsEverywhere)
{
    auto topo = make();
    for (int s = 0; s < topo->numNodes(); s++)
        for (int d = 0; d < topo->numNodes(); d++)
            EXPECT_EQ(static_cast<int>(topo->route(s, d).size()),
                      topo->hops(s, d))
                << s << "->" << d;
}

TEST_P(TopologyProperty, HopsSymmetric)
{
    auto topo = make();
    for (int s = 0; s < topo->numNodes(); s++)
        for (int d = 0; d < topo->numNodes(); d++)
            EXPECT_EQ(topo->hops(s, d), topo->hops(d, s));
}

TEST_P(TopologyProperty, TriangleInequality)
{
    auto topo = make();
    int n = topo->numNodes();
    for (int a = 0; a < n; a++)
        for (int b = 0; b < n; b++)
            for (int c = 0; c < n; c++)
                EXPECT_LE(topo->hops(a, c),
                          topo->hops(a, b) + topo->hops(b, c));
}

TEST_P(TopologyProperty, NetworkArrivalBounds)
{
    Network net(make(), 1);
    Rng rng(77);
    int n = net.topology().numNodes();
    for (int i = 0; i < 500; i++) {
        int s = static_cast<int>(rng.range(static_cast<uint32_t>(n)));
        int d = static_cast<int>(rng.range(static_cast<uint32_t>(n)));
        Cycle ready = 1000 + rng.range(100);
        Cycle arrive = net.schedule(s, d, ready);
        // Never earlier than the uncontended latency.
        EXPECT_GE(arrive, ready + net.latency(s, d));
    }
}

// The paper's Section 2.3 maxima, established by exhaustion rather
// than by trusting maxHops(): on the 16-cluster ring the farthest pair
// is 8 hops apart; on the 4x4 grid it is 6.
TEST(TopologyPaper, PinnedHopMaximaByExhaustion)
{
    struct Shape {
        const char *kind;
        int expect_max;
    };
    for (const Shape &shape :
         {Shape{"ring", 8}, Shape{"grid", 6}}) {
        std::unique_ptr<Topology> topo =
            std::string(shape.kind) == "ring" ? makeRing(16)
                                              : makeGrid(16);
        int max_hops = 0;
        for (int s = 0; s < 16; s++) {
            for (int d = 0; d < 16; d++) {
                int h = topo->hops(s, d);
                EXPECT_EQ(h, topo->hops(d, s))
                    << shape.kind << " " << s << "<->" << d;
                EXPECT_EQ(static_cast<int>(topo->route(s, d).size()),
                          h)
                    << shape.kind << " " << s << "->" << d;
                max_hops = std::max(max_hops, h);
            }
        }
        EXPECT_EQ(max_hops, shape.expect_max) << shape.kind;
        EXPECT_EQ(topo->maxHops(), shape.expect_max) << shape.kind;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopologyProperty,
    ::testing::Values(std::pair{"ring"s, 4}, std::pair{"ring"s, 16},
                      std::pair{"grid"s, 16}, std::pair{"grid"s, 8},
                      std::pair{"ring"s, 5}, std::pair{"grid"s, 12}));
