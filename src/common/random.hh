/**
 * @file
 * Deterministic random number generation (PCG32).
 *
 * All stochastic behaviour in the simulator (workload synthesis in
 * particular) draws from explicitly seeded Rng instances so that every
 * experiment is exactly reproducible.
 */

#ifndef CLUSTERSIM_COMMON_RANDOM_HH
#define CLUSTERSIM_COMMON_RANDOM_HH

#include <cstdint>

namespace clustersim {

/**
 * PCG32 generator (O'Neill, pcg-random.org; XSH-RR variant).
 *
 * Small, fast, statistically solid, and -- unlike std::mt19937 --
 * guaranteed identical across standard library implementations.
 */
class Rng
{
  public:
    /** Seed with a stream id so derived generators are independent. */
    explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

    /** Next raw 32-bit value. */
    std::uint32_t next32();

    /** Next raw 64-bit value. */
    std::uint64_t next64();

    /** Uniform integer in [0, bound), bound > 0, without modulo bias. */
    std::uint32_t range(std::uint32_t bound);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with success probability p. */
    bool chance(double p);

    /**
     * Geometric variate: number of failures before the first success,
     * success probability p in (0, 1]. Mean (1-p)/p.
     */
    std::uint32_t geometric(double p);

    /** Fork a decorrelated child generator (for per-stream randomness). */
    Rng fork();

    /**
     * Checkpointed state (see core/snapshot_io.hh): the position in the
     * stream. The increment selects the stream, so it must equal the
     * donor's.
     */
    template <class V>
    void
    fields(V &v)
    {
        v.u64(state_);
        v.expect(inc_);
    }

  private:
    std::uint64_t state_;
    std::uint64_t inc_;
};

} // namespace clustersim

#endif // CLUSTERSIM_COMMON_RANDOM_HH
