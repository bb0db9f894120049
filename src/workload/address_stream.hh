/**
 * @file
 * Memory address generators for synthetic workloads.
 */

#ifndef CLUSTERSIM_WORKLOAD_ADDRESS_STREAM_HH
#define CLUSTERSIM_WORKLOAD_ADDRESS_STREAM_HH

#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace clustersim {

/** Locality parameters of a phase's data accesses. */
struct AddressStreamParams {
    int streams = 4;        ///< concurrent sequential streams
    int strideBytes = 8;    ///< per-access stride within a stream
    /** Each stream wraps within this span: spans that fit in L1 turn
     *  later passes into hits, large spans stay streaming misses. */
    int streamSpanKB = 16;
    int footprintKB = 256;  ///< random-access working set
    /** Fraction of random accesses landing in the hot sub-region. */
    double hotFraction = 0.7;
    int hotRegionKB = 16;   ///< hot sub-region size
    /** Pointer-chase working set (linked structures are mostly cache
     *  resident in real codes; chases serialize, they rarely all miss). */
    int chaseRegionKB = 32;
};

/**
 * A bundle of sequential (strided) streams plus a random-access region,
 * modelling the data side of a program phase. Streams wrap within a
 * configurable span (temporal reuse across passes); random accesses are
 * split between a hot sub-region and the full footprint; pointer-chase
 * addresses come from a permutation walk so consecutive chase addresses
 * are uncorrelated.
 */
class AddressStream
{
  public:
    AddressStream(Addr base, const AddressStreamParams &params, Rng rng);

    /** Next address from stream s (round-robin callers pass s). */
    Addr nextStream(int s);

    /** Random address: hot region with hotFraction, else footprint. */
    Addr nextRandom();

    /** Next pointer-chase address (permutation walk over footprint). */
    Addr nextChase();

    /** Restart all streams (phase re-entry keeps some locality). */
    void rewindStreams();

    int streamCount() const { return static_cast<int>(cursors_.size()); }
    const AddressStreamParams &params() const { return params_; }

    /**
     * Checkpointed state: the stream cursors, the chase walk and the
     * random-access generator. Every cursor value is safe (addresses
     * wrap within their span); the stream count must be the donor's.
     */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(cursors_.size());
        for (std::uint64_t &c : cursors_)
            v.u64(c);
        v.u64(chaseState_);
        rng_.fields(v);
    }

  private:
    // simlint-ignore(F001): built from the phase spec
    AddressStreamParams params_;
    Addr base_;                     // simlint-ignore(F001): from the spec
    std::uint64_t footprintBytes_;  // simlint-ignore(F001): from the spec
    std::uint64_t hotBytes_;        // simlint-ignore(F001): from the spec
    std::uint64_t streamSpan_;      // simlint-ignore(F001): from the spec
    std::vector<std::uint64_t> cursors_;
    std::uint64_t chaseState_;
    Rng rng_;
};

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_ADDRESS_STREAM_HH
