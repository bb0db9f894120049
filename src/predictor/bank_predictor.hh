/**
 * @file
 * Two-level cache-bank predictor (Yoaz et al.), used to steer loads and
 * stores to the cluster caching their data in the decentralized cache
 * model: 1024 first-level entries, 4096 second-level entries (Section 5).
 */

#ifndef CLUSTERSIM_PREDICTOR_BANK_PREDICTOR_HH
#define CLUSTERSIM_PREDICTOR_BANK_PREDICTOR_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace clustersim {

/**
 * Two-level bank predictor. The first level records, per memory
 * instruction, a short history of recently accessed banks; the second
 * level maps (history, pc) to the predicted next bank.
 *
 * Predictions are made with the *maximum* bank count (16) and truncated
 * by the caller when fewer clusters are active -- the low-order-bits
 * property the paper relies on so the predictor survives
 * reconfigurations unflushed.
 */
class BankPredictor
{
  public:
    BankPredictor(std::size_t l1_entries = 1024,
                  std::size_t l2_entries = 4096,
                  int max_banks = 16);

    /** Predict the bank (in [0, max_banks)) for the memory op at pc. */
    int predict(Addr pc) const;

    /** Train with the actual bank and advance the history. */
    void update(Addr pc, int actual_bank);

    std::uint64_t lookups() const { return lookups_.value(); }
    std::uint64_t correct() const { return correct_.value(); }

    /** Record a lookup outcome (caller decides modulo-active-banks). */
    void recordOutcome(bool was_correct);

    /**
     * Zero the lookup/correct counters, keeping the learned history and
     * bank tables. Called at the warmup/measure boundary so accuracy
     * reflects only the measurement window (the tables themselves are
     * warm state and must survive, like the branch predictor's).
     */
    void
    resetStats()
    {
        lookups_.reset();
        correct_.reset();
    }

    int maxBanks() const { return maxBanks_; }

    /** Checkpointed state (see core/snapshot_io.hh). */
    template <class V>
    void
    fields(V &v)
    {
        v.expect(historyTable_.size());
        for (std::uint32_t &h : historyTable_)
            v.u32(h);
        // predict() indexes clusters with these values directly
        v.expect(bankTable_.size());
        for (std::uint8_t &b : bankTable_)
            v.u8(b, static_cast<unsigned>(maxBanks_ - 1));
        lookups_.fields(v);
        correct_.fields(v);
    }

  private:
    std::size_t l1Index(Addr pc) const;
    std::size_t l2Index(Addr pc) const;

    std::vector<std::uint32_t> historyTable_;
    std::vector<std::uint8_t> bankTable_;
    std::size_t l1Mask_; // simlint-ignore(F001): index mask, from the config
    std::size_t l2Mask_; // simlint-ignore(F001): index mask, from the config
    int maxBanks_;       // simlint-ignore(F001): bank count, from the config

    Counter lookups_;
    Counter correct_;
};

} // namespace clustersim

#endif // CLUSTERSIM_PREDICTOR_BANK_PREDICTOR_HH
