#include "common/sha256.hh"

#include <algorithm>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace clustersim {

namespace {

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
    0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
    0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
    0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
    0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
    0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
    0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
    0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
    0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

std::uint32_t
rotr(std::uint32_t v, int n)
{
    return (v >> n) | (v << (32 - n));
}

#if defined(__x86_64__)

/** SHA extensions plus the SSSE3/SSE4.1 shuffles compressShaNi uses. */
bool
cpuHasShaNi()
{
    unsigned a = 0, b = 0, c = 0, d = 0;
    if (!__get_cpuid(1, &a, &b, &c, &d))
        return false;
    const bool ssse3 = (c >> 9) & 1;
    const bool sse41 = (c >> 19) & 1;
    if (!__get_cpuid_count(7, 0, &a, &b, &c, &d))
        return false;
    const bool sha = (b >> 29) & 1;
    return ssse3 && sse41 && sha;
}

bool
useShaNi()
{
    static const bool use = cpuHasShaNi();
    return use;
}

/**
 * FIPS 180-4 compression of `blocks` whole 64-byte blocks with the x86
 * SHA extensions. sha256rnds2 runs two rounds on the state split as
 * ABEF/CDGH; sha256msg1/msg2 extend the message schedule four words at
 * a time. Only this function is compiled for the extra ISA, and it is
 * reached only when cpuHasShaNi() says the CPU runs it.
 */
__attribute__((target("sha,sse4.1,ssse3"))) void
compressShaNi(std::uint32_t *state, const std::uint8_t *data,
              std::size_t blocks)
{
    // Per-word byte swap: the message words are big-endian.
    const __m128i bswap =
        _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    const auto *k = reinterpret_cast<const __m128i *>(kRound);

    // Lanes low to high: a b c d | e f g h -> f e b a | h g d c.
    __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i *>(state));
    __m128i hgfe =
        _mm_loadu_si128(reinterpret_cast<const __m128i *>(state + 4));
    __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
    __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
    __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
    __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

    for (; blocks > 0; blocks--, data += 64) {
        const __m128i abefIn = abef, cdghIn = cdgh;
        // w0..w3: the last sixteen schedule words, oldest first.
        __m128i w0 = _mm_setzero_si128(), w1 = w0, w2 = w0, w3 = w0;
        for (int q = 0; q < 16; q++) {
            __m128i w;
            if (q < 4) {
                w = _mm_shuffle_epi8(
                    _mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(data + 16 * q)),
                    bswap);
            } else {
                // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16]
                w = _mm_sha256msg1_epu32(w0, w1);
                w = _mm_add_epi32(w, _mm_alignr_epi8(w3, w2, 4));
                w = _mm_sha256msg2_epu32(w, w3);
            }
            w0 = w1;
            w1 = w2;
            w2 = w3;
            w3 = w;
            // Two rounds per sha256rnds2, taking W+K from the low two
            // lanes; after each pair the old ABEF is the new CDGH.
            __m128i wk = _mm_add_epi32(w, _mm_loadu_si128(k + q));
            __m128i abef2 = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            __m128i abef4 = _mm_sha256rnds2_epu32(
                abef, abef2, _mm_shuffle_epi32(wk, 0x0E));
            cdgh = abef2;
            abef = abef4;
        }
        abef = _mm_add_epi32(abef, abefIn);
        cdgh = _mm_add_epi32(cdgh, cdghIn);
    }

    __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
    __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    dcba = _mm_blend_epi16(feba, dchg, 0xF0);
    hgfe = _mm_alignr_epi8(dchg, feba, 8);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state), dcba);
    _mm_storeu_si128(reinterpret_cast<__m128i *>(state + 4), hgfe);
}

#endif // __x86_64__

} // namespace

const char *
Sha256::blockPath()
{
#if defined(__x86_64__)
    if (useShaNi())
        return "sha-ni";
#endif
    return "portable";
}

void
Sha256::reset()
{
    state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
              0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    bufLen_ = 0;
    totalBytes_ = 0;
}

void
Sha256::compress(const std::uint8_t *block)
{
    std::uint32_t w[64];
    for (int i = 0; i < 16; i++) {
        w[i] = (std::uint32_t(block[4 * i]) << 24) |
               (std::uint32_t(block[4 * i + 1]) << 16) |
               (std::uint32_t(block[4 * i + 2]) << 8) |
               std::uint32_t(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; i++) {
        std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^
                           (w[i - 15] >> 3);
        std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^
                           (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2],
                  d = state_[3], e = state_[4], f = state_[5],
                  g = state_[6], h = state_[7];
    for (int i = 0; i < 64; i++) {
        std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
        std::uint32_t ch = (e & f) ^ (~e & g);
        std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
        std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
        std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
        std::uint32_t t2 = s0 + maj;
        h = g;
        g = f;
        f = e;
        e = d + t1;
        d = c;
        c = b;
        b = a;
        a = t1 + t2;
    }
    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
}

void
Sha256::compressBlocks(const std::uint8_t *data, std::size_t blocks)
{
#if defined(__x86_64__)
    if (useShaNi()) {
        compressShaNi(state_.data(), data, blocks);
        return;
    }
#endif
    for (; blocks > 0; blocks--, data += 64)
        compress(data);
}

void
Sha256::update(const void *data, std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    totalBytes_ += len;
    if (bufLen_ > 0) {
        std::size_t take = std::min(len, buf_.size() - bufLen_);
        std::memcpy(buf_.data() + bufLen_, p, take);
        bufLen_ += take;
        p += take;
        len -= take;
        if (bufLen_ == buf_.size()) {
            compressBlocks(buf_.data(), 1);
            bufLen_ = 0;
        }
    }
    if (len >= 64) {
        std::size_t blocks = len / 64;
        compressBlocks(p, blocks);
        p += 64 * blocks;
        len -= 64 * blocks;
    }
    if (len > 0) {
        std::memcpy(buf_.data(), p, len);
        bufLen_ = len;
    }
}

std::array<std::uint8_t, 32>
Sha256::digest()
{
    std::uint64_t bits = totalBytes_ * 8;
    std::uint8_t pad = 0x80;
    update(&pad, 1);
    std::uint8_t zero = 0;
    while (bufLen_ != 56)
        update(&zero, 1);
    std::uint8_t len[8];
    for (int i = 0; i < 8; i++)
        len[i] = static_cast<std::uint8_t>(bits >> (8 * (7 - i)));
    update(len, 8);

    std::array<std::uint8_t, 32> out;
    for (int i = 0; i < 8; i++) {
        out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
        out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
        out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
        out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    return out;
}

std::string
Sha256::hexDigest()
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(64);
    for (std::uint8_t b : digest()) {
        out.push_back(hex[b >> 4]);
        out.push_back(hex[b & 0xf]);
    }
    return out;
}

std::string
sha256Hex(const std::string &data)
{
    Sha256 h;
    h.update(data);
    return h.hexDigest();
}

} // namespace clustersim
