/**
 * @file
 * Unit tests for the load-store queue: ordering, disambiguation,
 * forwarding, and dummy-slot occupancy (distributed mode).
 */

#include <gtest/gtest.h>

#include <deque>

#include "common/random.hh"

#include "memory/lsq.hh"

using namespace clustersim;

// ---------------------------------------------------------------------------
// Centralized LSQ
// ---------------------------------------------------------------------------

TEST(LsqCentral, CapacityIsPerClusterTimesClusters)
{
    LoadStoreQueue lsq(false, 4, 2); // capacity 8
    for (InstSeqNum s = 1; s <= 8; s++) {
        ASSERT_TRUE(lsq.canAllocate(false, 0, 4));
        lsq.allocate(s, false, 0, 4);
    }
    EXPECT_FALSE(lsq.canAllocate(false, 0, 4));
    EXPECT_FALSE(lsq.canAllocate(true, 0, 4));
}

TEST(LsqCentral, LoadBlockedByUnresolvedOlderStore)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 0, 16);  // store, address unknown
    lsq.allocate(2, false, 1, 16); // load
    lsq.setAddress(2, 0x1000, 0, 100, 100);
    EXPECT_EQ(lsq.checkLoad(2).status, LoadCheck::BlockedOlderStore);
}

TEST(LsqCentral, LoadAccessAfterStoreResolvesElsewhere)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 0, 16);
    lsq.allocate(2, false, 1, 16);
    lsq.setAddress(2, 0x1000, 0, 100, 100);
    lsq.setAddress(1, 0x2000, 0, 150, 150); // different word
    LoadCheckResult res = lsq.checkLoad(2);
    EXPECT_EQ(res.status, LoadCheck::Access);
    // Conservative: the load may access only once the store's address
    // is visible, even though addresses end up different.
    EXPECT_EQ(res.readyCycle, 150u);
}

TEST(LsqCentral, SameWordStoreForwardsWhenDataReady)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 2, 16);
    lsq.allocate(2, false, 5, 16);
    lsq.setAddress(1, 0x1000, 0, 100, 100);
    lsq.setStoreData(1, 130);
    lsq.setAddress(2, 0x1004, 0, 110, 110); // same 8-byte word
    LoadCheckResult res = lsq.checkLoad(2);
    EXPECT_EQ(res.status, LoadCheck::Forward);
    EXPECT_EQ(res.readyCycle, 130u);
    EXPECT_EQ(res.srcCluster, 2);
    EXPECT_EQ(lsq.forwards(), 1u);
}

TEST(LsqCentral, ForwardWaitsForStoreData)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 0, 16);
    lsq.allocate(2, false, 0, 16);
    lsq.setAddress(1, 0x1000, 0, 100, 100);
    lsq.setAddress(2, 0x1000, 0, 110, 110);
    EXPECT_EQ(lsq.checkLoad(2).status, LoadCheck::WaitStoreData);
}

TEST(LsqCentral, LatestOlderMatchingStoreWins)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 1, 16);
    lsq.allocate(2, true, 2, 16);
    lsq.allocate(3, false, 3, 16);
    lsq.setAddress(1, 0x1000, 0, 50, 50);
    lsq.setStoreData(1, 60);
    lsq.setAddress(2, 0x1000, 0, 70, 70);
    lsq.setStoreData(2, 90);
    lsq.setAddress(3, 0x1000, 0, 80, 80);
    LoadCheckResult res = lsq.checkLoad(3);
    EXPECT_EQ(res.status, LoadCheck::Forward);
    EXPECT_EQ(res.srcCluster, 2); // the younger of the two stores
    EXPECT_EQ(res.readyCycle, 90u);
}

TEST(LsqCentral, YoungerStoresDoNotAffectLoad)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, false, 0, 16);
    lsq.allocate(2, true, 0, 16); // younger store, unresolved
    lsq.setAddress(1, 0x1000, 0, 100, 100);
    EXPECT_EQ(lsq.checkLoad(1).status, LoadCheck::Access);
}

TEST(LsqCentral, AccessReadyIsVisibilityBound)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, true, 0, 16);
    lsq.allocate(2, true, 0, 16);
    lsq.allocate(3, false, 0, 16);
    lsq.setAddress(1, 0x2000, 0, 300, 300);
    lsq.setAddress(2, 0x3000, 0, 200, 200);
    lsq.setAddress(3, 0x1000, 0, 100, 100);
    LoadCheckResult res = lsq.checkLoad(3);
    EXPECT_EQ(res.status, LoadCheck::Access);
    EXPECT_EQ(res.readyCycle, 300u); // latest older-store visibility
}

TEST(LsqCentral, ReleaseInOrder)
{
    LoadStoreQueue lsq(false, 16, 15);
    lsq.allocate(1, false, 0, 16);
    lsq.allocate(2, false, 0, 16);
    lsq.setAddress(1, 0x10, 0, 1, 1);
    lsq.setAddress(2, 0x20, 0, 1, 1);
    lsq.release(1);
    lsq.release(2);
    EXPECT_EQ(lsq.size(), 0u);
}

// ---------------------------------------------------------------------------
// Distributed LSQ (dummy slots)
// ---------------------------------------------------------------------------

TEST(LsqDist, StoreOccupiesDummySlotEverywhere)
{
    LoadStoreQueue lsq(true, 4, 2);
    lsq.allocate(1, true, 0, 4);
    // One dummy slot in each of the four active clusters: a second
    // unresolved store still fits, a third does not.
    lsq.allocate(2, true, 1, 4);
    EXPECT_FALSE(lsq.canAllocate(true, 0, 4));
    // Loads in a full cluster are rejected too.
    EXPECT_FALSE(lsq.canAllocate(false, 2, 4));
}

TEST(LsqDist, ResolutionFreesDummies)
{
    LoadStoreQueue lsq(true, 4, 2);
    lsq.allocate(1, true, 0, 4);
    lsq.allocate(2, true, 1, 4);
    // Resolve store 1 to bank 3: dummies in clusters 0-2 are freed.
    lsq.setAddress(1, 0x18, 3, 100, 120);
    // Clusters 0-2 now hold only store 2's dummy, so loads fit there;
    // a new store still needs a slot in (full) cluster 3.
    EXPECT_FALSE(lsq.canAllocate(true, 0, 4));
    EXPECT_TRUE(lsq.canAllocate(false, 0, 4));
    // Bank 3 still holds both store 1 and store 2's dummy: full.
    EXPECT_FALSE(lsq.canAllocate(false, 3, 4));
}

TEST(LsqDist, LoadCapacityPerCluster)
{
    LoadStoreQueue lsq(true, 4, 2);
    lsq.allocate(1, false, 0, 4);
    lsq.allocate(2, false, 0, 4);
    EXPECT_FALSE(lsq.canAllocate(false, 0, 4));
    EXPECT_TRUE(lsq.canAllocate(false, 1, 4));
}

TEST(LsqDist, VisibilityUsesBroadcastForOtherBanks)
{
    LoadStoreQueue lsq(true, 4, 15);
    lsq.allocate(1, true, 0, 4);
    lsq.allocate(2, false, 1, 4);
    // Store resolves to bank 0 at cycle 100; broadcast lands at 140.
    lsq.setAddress(1, 0x2000, 0, 100, 140);
    // Load in bank 1 (different word): must wait for the broadcast.
    lsq.setAddress(2, 0x1008, 1, 90, 90);
    LoadCheckResult res = lsq.checkLoad(2);
    EXPECT_EQ(res.status, LoadCheck::Access);
    EXPECT_EQ(res.readyCycle, 140u);
}

TEST(LsqDist, SameBankSeesAddressEarlier)
{
    LoadStoreQueue lsq(true, 4, 15);
    lsq.allocate(1, true, 0, 4);
    lsq.allocate(2, false, 1, 4);
    lsq.setAddress(1, 0x2000, 0, 100, 140);
    // Load in bank 0 (where the store resolved): sees it at 100.
    lsq.setAddress(2, 0x1000, 0, 90, 90);
    LoadCheckResult res = lsq.checkLoad(2);
    EXPECT_EQ(res.status, LoadCheck::Access);
    EXPECT_EQ(res.readyCycle, 100u);
}

TEST(LsqDist, ReleaseStoreFreesBankSlot)
{
    LoadStoreQueue lsq(true, 4, 1);
    lsq.allocate(1, true, 0, 4);
    lsq.setAddress(1, 0x18, 3, 10, 20);
    EXPECT_FALSE(lsq.canAllocate(false, 3, 4));
    lsq.release(1);
    EXPECT_TRUE(lsq.canAllocate(false, 3, 4));
    EXPECT_EQ(lsq.size(), 0u);
}

TEST(LsqDist, ForwardAcrossBanks)
{
    LoadStoreQueue lsq(true, 8, 15);
    lsq.allocate(1, true, 6, 8);
    lsq.allocate(2, false, 2, 8);
    lsq.setAddress(1, 0x40, 0, 50, 70);
    lsq.setStoreData(1, 90);
    lsq.setAddress(2, 0x44, 0, 60, 60); // same word, same bank 0
    LoadCheckResult res = lsq.checkLoad(2);
    EXPECT_EQ(res.status, LoadCheck::Forward);
    EXPECT_EQ(res.srcCluster, 6); // data lives at the store's cluster
}

// ---------------------------------------------------------------------------
// Randomized property test: occupancy accounting never corrupts
// ---------------------------------------------------------------------------

TEST(LsqProperty, RandomSequencesKeepInvariants)
{
    Rng rng(1234);
    for (int trial = 0; trial < 20; trial++) {
        bool distributed = trial % 2 == 0;
        LoadStoreQueue lsq(distributed, 4, 4);
        InstSeqNum next_seq = 1;
        std::deque<InstSeqNum> live;
        Cycle now = 0;

        for (int step = 0; step < 400; step++) {
            now += 1 + rng.range(3);
            int action = static_cast<int>(rng.range(3));
            if (action <= 1) { // allocate
                bool is_store = rng.chance(0.4);
                int cluster = static_cast<int>(rng.range(4));
                if (lsq.canAllocate(is_store, cluster, 4)) {
                    InstSeqNum s = next_seq++;
                    lsq.allocate(s, is_store, cluster, 4);
                    live.push_back(s);
                    // Resolve immediately half the time.
                    if (rng.chance(0.5)) {
                        Addr a = (rng.range(64) << 3);
                        lsq.setAddress(s, a,
                                       static_cast<int>((a >> 3) % 4),
                                       now, now + 5);
                        if (is_store && rng.chance(0.8))
                            lsq.setStoreData(s, now + 2);
                    }
                }
            } else if (!live.empty()) { // release head
                InstSeqNum s = live.front();
                const LsqEntry &e = lsq.entry(s);
                // Only resolved stores can commit.
                if (!e.isStore || e.addrValid) {
                    if (e.isStore && !e.addrValid)
                        continue;
                    if (!e.addrValid) {
                        lsq.setAddress(
                            s, rng.range(512) << 3,
                            0, now, now);
                    }
                    live.pop_front();
                    lsq.release(s);
                }
            }
            ASSERT_EQ(lsq.size(), live.size());
        }
        // Everything still allocatable after draining completely.
        while (!live.empty()) {
            InstSeqNum s = live.front();
            const LsqEntry &e = lsq.entry(s);
            if (!e.addrValid) {
                lsq.setAddress(s, rng.range(512) << 3, 0, now, now);
            }
            live.pop_front();
            lsq.release(s);
        }
        EXPECT_TRUE(lsq.canAllocate(true, 0, 4));
        EXPECT_TRUE(lsq.canAllocate(false, 3, 4));
    }
}
