/**
 * @file
 * Dependency-free SHA-256.
 *
 * Used for content-addressing and verification: cache keys of finished
 * sweep points, fingerprints of canonicalized job requests, and the
 * payload digest every content-store load re-computes before it trusts
 * an entry (common/content_store.hh). A cryptographic digest is
 * deliberate overkill for a local result cache -- what matters is that
 * two distinct (config, workload, seed) identities can never collide in
 * practice, so a cache hit is always byte-correct.
 *
 * Two block functions compute the same digest. On x86-64 CPUs with the
 * SHA extensions (CPUID leaf 7 EBX bit 29, plus SSSE3 and SSE4.1),
 * update() hashes runs of whole blocks with the sha256rnds2/msg1/msg2
 * instructions; the choice is made once per process from CPUID. Every
 * other host runs the portable compress(), which is also the reference
 * the tests hold the accelerated path to.
 */

#ifndef CLUSTERSIM_COMMON_SHA256_HH
#define CLUSTERSIM_COMMON_SHA256_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace clustersim {

/** Incremental SHA-256 (FIPS 180-4). */
class Sha256
{
  public:
    Sha256() { reset(); }

    void reset();
    void update(const void *data, std::size_t len);
    void update(const std::string &s) { update(s.data(), s.size()); }

    /** Finalize and return the 32-byte digest; the object is spent. */
    std::array<std::uint8_t, 32> digest();

    /** Finalize and return the digest as 64 lowercase hex characters;
     *  the object is spent. */
    std::string hexDigest();

    /** Block function update() uses in this process: "sha-ni" or
     *  "portable". */
    static const char *blockPath();

  private:
    /** Tests drive the portable compress() directly as the reference. */
    friend struct Sha256Reference;

    /** Fold whole 64-byte blocks into the state on this process's
     *  block path. */
    void compressBlocks(const std::uint8_t *data, std::size_t blocks);
    /** The portable block function. */
    void compress(const std::uint8_t *block);

    std::array<std::uint32_t, 8> state_;
    std::array<std::uint8_t, 64> buf_;
    std::size_t bufLen_ = 0;
    std::uint64_t totalBytes_ = 0;
};

/** One-shot digest, lowercase hex (64 characters). */
std::string sha256Hex(const std::string &data);

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_SHA256_HH
