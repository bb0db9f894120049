/**
 * @file
 * Named processor configurations used across the paper's experiments.
 */

#ifndef CLUSTERSIM_SIM_PRESETS_HH
#define CLUSTERSIM_SIM_PRESETS_HH

#include <memory>
#include <string>
#include <vector>

#include "core/params.hh"
#include "sim/sweep.hh"

namespace clustersim {

/**
 * A clustered machine with `hw_clusters` hardware clusters, all active.
 *
 * @param hw_clusters   Hardware cluster count (2..16).
 * @param kind          Ring (default) or grid interconnect.
 * @param decentralized Decentralized L1 (Section 5) when true.
 */
ProcessorConfig clusteredConfig(int hw_clusters,
                                InterconnectKind kind =
                                    InterconnectKind::Ring,
                                bool decentralized = false);

/**
 * A 16-cluster machine restricted to `active` clusters at reset (the
 * paper's "statically using a fixed subset of clusters", Figure 3).
 */
ProcessorConfig staticSubsetConfig(int active,
                                   InterconnectKind kind =
                                       InterconnectKind::Ring,
                                   bool decentralized = false);

// --- Section 6 sensitivity variants (16-cluster, centralized, ring) -------

/** 10 issue-queue entries / 20 registers per cluster. */
ProcessorConfig fewerResourcesConfig();

/** 20 issue-queue entries / 40 registers per cluster. */
ProcessorConfig moreResourcesConfig();

/** Two FUs of each type per cluster. */
ProcessorConfig moreFusConfig();

/** Two-cycle interconnect hops. */
ProcessorConfig slowHopsConfig();

// --- Controller factories (paper schemes, repo-scaled bounds) -------------

/** Interval + exploration (Figure 4) with this repo's scaled bounds. */
std::unique_ptr<ReconfigController> makeExploreController();

/** Interval controller without exploration at a fixed length. */
std::unique_ptr<ReconfigController>
makeIlpController(std::uint64_t interval);

/** Fine-grained branch-boundary controller (paper defaults). */
std::unique_ptr<ReconfigController> makeFinegrainController();

/** Subroutine call/return variant (3 samples). */
std::unique_ptr<ReconfigController> makeSubroutineController();

// --- Named sweep presets (the paper's result grid) ------------------------

/**
 * Names accepted by makeSweepPreset: the paper's figures/tables
 * (table3, fig3, fig5, fig6, fig7, fig8, sensitivity), its in-text
 * communication-cost studies (commcost), the design-choice ablations
 * (ablation), "smoke" (a short static-vs-dynamic grid for CI-style
 * regression runs) and "tournament" (every dynamic policy raced
 * against the offline oracle).
 *
 * In fig5-8, sensitivity, commcost and ablation every point carries
 * the seedTag "paper", so each benchmark's variants race one
 * instruction stream. table3, fig3 and smoke derive one stream per
 * label; tournament tags its points "tournament".
 */
const std::vector<std::string> &sweepPresetNames();

/**
 * Build the run points of a named preset: every benchmark model
 * crossed with the machine variants of that figure/table.
 *
 * @param name    One of sweepPresetNames() (asserts otherwise).
 * @param warmup  Warmup instructions per run (0 = preset default).
 * @param measure Measured instructions per run (0 = preset default:
 *                1M for table3, fig3 and commcost, 2M for fig5-8,
 *                1.5M for sensitivity, 800K for ablation).
 */
std::vector<RunPoint> makeSweepPreset(const std::string &name,
                                      std::uint64_t warmup = 0,
                                      std::uint64_t measure = 0);

} // namespace clustersim

#endif // CLUSTERSIM_SIM_PRESETS_HH
