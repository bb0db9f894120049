/**
 * @file
 * The content store (common/content_store.hh) under both of its
 * wrappers: the serve-layer result cache (`.cpt`, keyed on point
 * identity) and the warmup-checkpoint store (`.ckp`, keyed on warmup
 * identity). Each test runs once per store: round trip and restart
 * persistence, corrupt entries (every truncation, a flip of every
 * header byte, payload bit rot, an appended byte, mis-filed key,
 * foreign magic, a wrapping length) served as counted misses, the salt
 * moving every address, the disabled store, diskUsage, and a file
 * hand-written in today's on-disk layout loading -- the pin that keeps
 * existing stores readable.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/content_store.hh"
#include "common/sha256.hh"
#include "serve/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/plan.hh"
#include "sim/presets.hh"

using namespace clustersim;

namespace {

/** One store wrapper, with the format constants it writes today. */
struct StoreKind {
    const char *name;
    const char *magic;
    const char *suffix;
    const char *defaultSalt;
    std::function<std::shared_ptr<ContentStore>(const std::string &dir,
                                                const std::string &salt)>
        open;
    /** The wrapper's keyFor() and the identity bytes it hashes. */
    std::function<std::string(const ContentStore &, const RunPoint &,
                              const PlannedPoint &)>
        keyFor;
    std::function<std::string(const RunPoint &, const PlannedPoint &)>
        identity;
};

const StoreKind storeKinds[] = {
    {"cache", "clustersim-point-cache-v1", ".cpt", serve::defaultCacheSalt,
     [](const std::string &dir, const std::string &salt) {
         return std::make_shared<serve::CacheStore>(dir, salt);
     },
     [](const ContentStore &s, const RunPoint &p, const PlannedPoint &pp) {
         return static_cast<const serve::CacheStore &>(s).keyFor(
             p, pp.label, pp.seed);
     },
     [](const RunPoint &p, const PlannedPoint &pp) {
         return pointIdentityKey(p, pp.label, pp.seed);
     }},
    {"checkpoint", "clustersim-warmup-checkpoint-v1", ".ckp",
     defaultCheckpointSalt,
     [](const std::string &dir, const std::string &salt) {
         return std::make_shared<WarmupCheckpointStore>(dir, salt);
     },
     [](const ContentStore &s, const RunPoint &p, const PlannedPoint &pp) {
         return static_cast<const WarmupCheckpointStore &>(s).keyFor(
             p, pp.seed);
     },
     [](const RunPoint &p, const PlannedPoint &pp) {
         return warmupIdentityKey(p, pp.seed);
     }},
};

/** Names the parameter in test listings (ctest shows ".../cache"). */
void
PrintTo(const StoreKind &kind, std::ostream *os)
{
    *os << kind.name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

class ContentStoreTest : public ::testing::TestWithParam<StoreKind>
{
  protected:
    ContentStoreTest()
    {
        char tmpl[] = "/tmp/clustersim-store-XXXXXX";
        const char *p = mkdtemp(tmpl);
        EXPECT_NE(p, nullptr);
        dir_ = p != nullptr ? p : "";
    }
    ~ContentStoreTest() override
    {
        if (!dir_.empty())
            std::filesystem::remove_all(dir_);
    }

    std::shared_ptr<ContentStore>
    open(const std::string &salt = "test-salt")
    {
        return GetParam().open(dir_, salt);
    }
    std::string
    path(const std::string &key) const
    {
        return dir_ + "/" + key + GetParam().suffix;
    }

    std::string dir_;
};

/** A real point and its planned identity, as the sweep engine sees it. */
std::pair<RunPoint, PlannedPoint>
smokePoint()
{
    RunPoint p = makeSweepPreset("smoke", 500, 2000)[0];
    return {p, planPoints({p}, true)[0]};
}

} // namespace

TEST_P(ContentStoreTest, RoundTripAndPersistence)
{
    std::string key(64, 'a');
    std::string payload = "{\"ipc\":0.5}\n";
    payload += std::string(3, '\0') + "binary tail"; // opaque bytes
    {
        std::shared_ptr<ContentStore> store = open();
        EXPECT_TRUE(store->enabled());
        EXPECT_FALSE(store->contains(key));
        EXPECT_FALSE(store->load(key).has_value());
        store->store(key, payload);
        EXPECT_TRUE(store->contains(key));
        std::optional<std::string> got = store->load(key);
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, payload);
        StoreStats s = store->stats();
        EXPECT_EQ(s.hits, 1u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.stores, 1u);
        EXPECT_EQ(s.corrupt, 0u);
    }
    // A fresh store on the same directory (a restart) replays.
    std::optional<std::string> again = open()->load(key);
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(*again, payload);
}

TEST_P(ContentStoreTest, CorruptEntriesAreCountedMisses)
{
    std::shared_ptr<ContentStore> store = open();
    std::string key(64, 'b');
    std::string payload(200, 'p');
    std::string other(64, 'c');
    store->store(other, payload);
    const std::string misfiled = readFile(path(other));
    const std::string magic = GetParam().magic;
    // Both entries have the same header length: equal-size keys and
    // payloads.
    const std::size_t nl = misfiled.find('\n');
    ASSERT_NE(nl, std::string::npos);

    struct Mutation {
        std::string what;
        std::function<std::string(std::string)> apply;
    };
    const auto flip = [](std::size_t at) {
        return [at](std::string f) {
            f[at] ^= 0x01;
            return f;
        };
    };
    std::vector<Mutation> mutations = {
        {"no header newline", [&](std::string f) { return f.substr(0, nl); }},
        {"foreign magic",
         [&](std::string f) {
             return f.replace(0, magic.size(), "clustersim-other-v1");
         }},
        {"truncated payload",
         [](std::string f) { return f.substr(0, f.size() / 2); }},
        {"bit rot", flip(nl + 10)},
        {"mis-filed key", [&](std::string) { return misfiled; }},
        {"length that wraps",
         [&](std::string) {
             return magic + " " + key + " 18446744073709551615 " +
                    sha256Hex("") + "\n";
         }},
        {"first payload byte flipped", flip(nl + 1)},
        {"last payload byte flipped", flip(misfiled.size() - 2)},
        {"final newline flipped", flip(misfiled.size() - 1)},
        // A newline, so the entry still ends in one and only the
        // length check can catch it.
        {"one byte appended", [](std::string f) { return f + "\n"; }},
    };
    // Every truncation of the entry, and every byte of its header line
    // (newline included) with its low bit flipped.
    for (std::size_t n = 0; n < misfiled.size(); n++)
        mutations.push_back({"truncated to " + std::to_string(n) + " bytes",
                             [n](std::string f) { return f.substr(0, n); }});
    for (std::size_t at = 0; at <= nl; at++)
        mutations.push_back(
            {"header byte " + std::to_string(at) + " flipped", flip(at)});

    for (const Mutation &m : mutations) {
        SCOPED_TRACE(m.what);
        store->store(key, payload);
        ASSERT_TRUE(store->load(key).has_value());
        StoreStats before = store->stats();
        writeFile(path(key), m.apply(readFile(path(key))));
        EXPECT_FALSE(store->load(key).has_value());
        StoreStats after = store->stats();
        EXPECT_EQ(after.misses, before.misses + 1);
        EXPECT_EQ(after.corrupt, before.corrupt + 1);
    }

    // Recompute path: storing again overwrites the corpse and hits.
    store->store(key, payload);
    EXPECT_EQ(store->load(key), payload);
}

TEST_P(ContentStoreTest, SaltChangeMovesEveryAddress)
{
    auto [p, pp] = smokePoint();
    std::shared_ptr<ContentStore> a = open("salt-a");
    std::shared_ptr<ContentStore> b = open("salt-b");
    std::string ka = GetParam().keyFor(*a, p, pp);
    std::string kb = GetParam().keyFor(*b, p, pp);
    ASSERT_EQ(ka.size(), 64u);
    EXPECT_EQ(ka, GetParam().keyFor(*open("salt-a"), p, pp));
    EXPECT_NE(ka, kb);

    // Same directory, new salt: the old entry is unreachable.
    a->store(ka, "payload");
    EXPECT_TRUE(a->contains(ka));
    EXPECT_FALSE(b->contains(kb));
    EXPECT_FALSE(b->load(kb).has_value());
}

TEST_P(ContentStoreTest, DisabledStoreMissesEverything)
{
    std::shared_ptr<ContentStore> store = GetParam().open("", "salt");
    EXPECT_FALSE(store->enabled());
    std::string key(64, 'd');
    store->store(key, "payload");
    EXPECT_FALSE(store->contains(key));
    EXPECT_FALSE(store->load(key).has_value());
    StoreStats s = store->stats();
    EXPECT_EQ(s.stores, 0u);
    EXPECT_EQ(s.misses, 1u);
    std::uint64_t entries = 1, bytes = 1;
    store->diskUsage(entries, bytes);
    EXPECT_EQ(entries, 0u);
    EXPECT_EQ(bytes, 0u);

    // Keys still resolve: the server keys points before probing.
    auto [p, pp] = smokePoint();
    EXPECT_EQ(GetParam().keyFor(*store, p, pp).size(), 64u);
}

TEST_P(ContentStoreTest, DiskUsageCountsOnlyEntries)
{
    std::shared_ptr<ContentStore> store = open();
    std::string e(64, 'e'), f(64, 'f');
    store->store(e, std::string(100, 'x'));
    store->store(f, std::string(50, 'y'));
    const std::string foreign =
        std::string(GetParam().suffix) == ".cpt" ? ".ckp" : ".cpt";
    writeFile(dir_ + "/.tmp-1-2", "partial write");
    writeFile(dir_ + "/notes.txt", "not an entry");
    writeFile(dir_ + "/" + e + foreign, "the other store's entry");

    std::uint64_t entries = 0, bytes = 0;
    store->diskUsage(entries, bytes);
    EXPECT_EQ(entries, 2u);
    EXPECT_EQ(bytes, readFile(path(e)).size() + readFile(path(f)).size());
}

TEST_P(ContentStoreTest, LoadsTodaysOnDiskFormat)
{
    // Address: sha256(magic || salt || identity); file: one header line
    // "<magic> <key> <payload-bytes> <payload-sha256>", the payload and
    // a newline. A change to either strands every existing store.
    const StoreKind &kind = GetParam();
    auto [p, pp] = smokePoint();
    std::shared_ptr<ContentStore> store = open(kind.defaultSalt);
    std::string key = kind.keyFor(*store, p, pp);
    EXPECT_EQ(key, sha256Hex(std::string(kind.magic) + kind.defaultSalt +
                             kind.identity(p, pp)));

    std::string payload = "hand-written\npayload";
    std::string file = std::string(kind.magic) + " " + key + " " +
                       std::to_string(payload.size()) + " " +
                       sha256Hex(payload) + "\n" + payload + "\n";
    writeFile(path(key), file);
    EXPECT_TRUE(store->contains(key));
    EXPECT_EQ(store->load(key), payload);

    // And store() writes exactly that layout.
    std::filesystem::remove(path(key));
    store->store(key, payload);
    EXPECT_EQ(readFile(path(key)), file);
}

INSTANTIATE_TEST_SUITE_P(BothStores, ContentStoreTest,
                         ::testing::ValuesIn(storeKinds));
