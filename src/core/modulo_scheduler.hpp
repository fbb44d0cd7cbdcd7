/**
 * @file
 * Software pipelining (Lam [9]) on top of communication scheduling:
 * modulo scheduling of a loop block. Resource reservations — including
 * every stub — repeat each initiation interval, so the same engine
 * that schedules plain blocks schedules pipelined loops with folded
 * reservation tables.
 *
 * The paper's performance metric for each kernel is the inverse of
 * the schedule length of its single software-pipelined loop; that is
 * the achieved II reported here.
 */

#ifndef CS_CORE_MODULO_SCHEDULER_HPP
#define CS_CORE_MODULO_SCHEDULER_HPP

#include "core/comm_scheduler.hpp"

namespace cs {

/** Result of pipelining one loop. */
struct PipelineResult
{
    bool success = false;
    /** Achieved initiation interval (cycles per iteration). */
    int ii = 0;
    /** Lower bounds that were computed before searching. */
    int resMii = 0;
    int recMii = 0;
    /**
     * Scheduling attempts launched, one per (II, retry variant) pair
     * tried. Under the serial sweep every launched attempt ran to
     * completion before the next started, so this is exactly the
     * number of attempts executed. Under the speculative parallel
     * search (pipeline/ii_search.hpp) attempts past the eventual
     * winner may be launched before the winner is known; those extras
     * are counted here too and reported in attemptsWasted, so
     * `attempts - attemptsWasted` always equals what the serial sweep
     * would have reported for the same inputs.
     */
    int attempts = 0;
    /**
     * Of `attempts`, how many were launched speculatively past the
     * winning (II, variant) and therefore discarded — whether they
     * were cancelled mid-run or completed before the winner emerged.
     * Always 0 for the serial sweep and for failed searches (every
     * attempt of a failed search would have run serially too).
     */
    int attemptsWasted = 0;
    ScheduleResult inner;
};

/**
 * Find the smallest initiation interval at which the loop block
 * schedules, searching upward from max(ResMII, RecMII). @p maxIiSlack
 * bounds the search: the search stops after MII + maxIiSlack.
 *
 * Thread safety: const-safe and reentrant, like scheduleBlock() —
 * each II attempt runs in its own BlockScheduler instance, so
 * concurrent calls are safe and deterministic (see src/pipeline).
 */
PipelineResult schedulePipelined(const Kernel &kernel, BlockId block,
                                 const Machine &machine,
                                 const SchedulerOptions &options = {},
                                 int maxIiSlack = 64,
                                 const std::atomic<bool> *abort = nullptr);

/**
 * Same, borrowing a prebuilt analysis context instead of building one:
 * byte-identical results for the context's (kernel, block, machine).
 * Lets the pipeline's ContextCache amortize the analysis across every
 * job in a sweep that revisits the pair. @p context must outlive the
 * call.
 */
PipelineResult
schedulePipelined(const BlockSchedulingContext &context,
                  const SchedulerOptions &options = {},
                  int maxIiSlack = 64,
                  const std::atomic<bool> *abort = nullptr);

/**
 * The retry variants the II search tries, in order, at every candidate
 * II: the options as given, then — when options.retryVariants — a
 * wider placement window and the flipped scheduling order. Exposed so
 * the speculative parallel search (pipeline/ii_search.hpp) enumerates
 * exactly the serial sweep's attempt sequence; attempt index
 * k = (ii - MII) * variants + v is the determinism key both share.
 */
std::vector<SchedulerOptions> iiRetryVariants(const SchedulerOptions
                                                  &options);

} // namespace cs

#endif // CS_CORE_MODULO_SCHEDULER_HPP
