/**
 * @file
 * Shared-workload replay: generate a benchmark's committed-path
 * instruction stream once and fan it out to any number of Processor
 * instances.
 *
 * A SyntheticWorkload regenerates every MicroOp on demand (RNG draws,
 * branch models, address streams). When several simulations consume the
 * *same* stream — repeated timing runs, sweep points sharing a workload
 * seed, checkpoint/restore experiments — that work can be done once: a
 * ReplayBuffer materializes the first N instructions of a WorkloadSpec
 * into a flat, immutable vector, and each consumer reads it through its
 * own lightweight ReplaySource cursor. Replay is bit-identical to
 * generation by construction (the buffer *is* the generator's output),
 * and ReplaySource::seek() is O(1), which makes post-warmup snapshot
 * restores cheap (see docs/PERF.md, "Warmup checkpoints").
 */

#ifndef CLUSTERSIM_WORKLOAD_REPLAY_HH
#define CLUSTERSIM_WORKLOAD_REPLAY_HH

#include <memory>
#include <vector>

#include "workload/synthetic.hh"
#include "workload/trace_source.hh"

namespace clustersim {

struct ProcessorConfig;

/**
 * An immutable, pre-generated instruction stream prefix.
 *
 * Thread-safe to share: after construction the buffer is never
 * mutated, so any number of ReplaySources (on any threads) may read it
 * concurrently through shared_ptr ownership.
 */
class ReplayBuffer
{
  public:
    /**
     * Generate the first `count` instructions of `spec`'s stream.
     * The caller sizes `count` for the longest run the buffer must
     * feed, plus the core's fetch-ahead margin (replayMargin()).
     */
    ReplayBuffer(const WorkloadSpec &spec, std::uint64_t count);

    const WorkloadSpec &spec() const { return spec_; }
    std::uint64_t size() const { return ops_.size(); }
    const MicroOp &at(std::uint64_t i) const { return ops_[i]; }

  private:
    WorkloadSpec spec_;
    std::vector<MicroOp> ops_;
};

/**
 * TraceSource replaying a shared ReplayBuffer through a private cursor.
 *
 * Running past the end of the buffer is a hard error (CSIM_PANIC), not
 * a silent wrap: it means the buffer was undersized for the run, which
 * would otherwise corrupt results undetectably.
 */
class ReplaySource : public TraceSource
{
  public:
    explicit ReplaySource(std::shared_ptr<const ReplayBuffer> buffer);

    MicroOp next() override;
    void reset() override { pos_ = 0; }

    bool seekable() const override { return true; }
    std::uint64_t position() const override { return pos_; }
    void seek(std::uint64_t pos) override;

    const ReplayBuffer &buffer() const { return *buffer_; }

  private:
    std::shared_ptr<const ReplayBuffer> buffer_;
    std::uint64_t pos_ = 0;
};

/**
 * Instructions the core may pull from a TraceSource beyond the run()
 * commit goal: fetch runs ahead of commit by at most the fetch queue,
 * the in-flight window (ROB), and one pending I-cache-missed op, plus
 * slack for the final partial cycle. Used to size ReplayBuffers.
 */
std::uint64_t replayMargin(const ProcessorConfig &cfg);

} // namespace clustersim

#endif // CLUSTERSIM_WORKLOAD_REPLAY_HH
