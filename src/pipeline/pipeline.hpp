/**
 * @file
 * The scheduling pipeline: fans a batch of self-contained scheduling
 * jobs across a fixed-size thread pool, memoizing results in a shared
 * content-addressed cache and aggregating per-job scheduler counters
 * into one thread-safe CounterSet.
 *
 * Determinism contract: results come back indexed by submission
 * position and each job is closed over all of its inputs, so a batch
 * run on N threads produces byte-identical schedules (listings) to
 * the same batch run serially — only wall times and cache hit
 * patterns may differ. Tests assert this.
 *
 * This is the layer the ROADMAP's serving/sharding work builds on: a
 * front-end that accepts heavy streams of (kernel x machine x
 * options) compile requests and saturates the local hardware.
 */

#ifndef CS_PIPELINE_PIPELINE_HPP
#define CS_PIPELINE_PIPELINE_HPP

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "pipeline/context_cache.hpp"
#include "pipeline/job.hpp"
#include "pipeline/persistent_cache.hpp"
#include "pipeline/thread_pool.hpp"
#include "support/metrics.hpp"
#include "support/stats.hpp"

namespace cs {

/** Pipeline construction knobs. */
struct PipelineConfig
{
    /** Worker threads; 0 means std::thread::hardware_concurrency(). */
    unsigned numThreads = 0;
    /** Schedule-cache entries; 0 disables caching. */
    std::size_t cacheCapacity = 1024;
    /**
     * Sentinel for iiSearchWorkers: size the II pool to the machine.
     * On multi-core hardware this resolves to one worker per hardware
     * thread; on a single core speculation can only add overhead, so
     * it resolves to 0 (the serial sweep). The CLI front-ends expose
     * it as `--ii-workers auto`.
     */
    static constexpr unsigned kAutoIiWorkers = ~0u;

    /**
     * Worker budget for the speculative parallel II search of
     * pipelined jobs. 0 keeps the serial sweep. A positive value
     * spawns one dedicated pool of that many workers, shared by every
     * job in the batch — dedicated because job workers block waiting
     * for their II attempts, so running attempts on the job pool
     * itself would deadlock it. kAutoIiWorkers picks per the hardware.
     * Results are byte-identical either way; only wall time and the
     * attempt accounting change.
     */
    unsigned iiSearchWorkers = 0;
    /**
     * The II worker count a pipeline actually runs for @p requested:
     * kAutoIiWorkers resolves against the hardware, anything else
     * passes through. Front-ends use it to report the effective pool
     * size instead of the sentinel.
     */
    static unsigned resolvedIiWorkers(unsigned requested);
    /**
     * Directory for the persistent (disk) cache tier. Empty keeps the
     * cache memory-only, which preserves the classic batch behavior.
     * See pipeline/persistent_cache.hpp for the on-disk format.
     */
    std::string cacheDirectory;
    /** Shard-file count for the disk tier (ignored when memory-only). */
    int cacheShards = 8;
    /**
     * Milliseconds between flock-ownership retries on read-only disk
     * shards: a non-owner that finds the owner gone promotes itself
     * and starts appending (persistent_cache.hpp). 0 keeps the
     * PR 8 behavior (never retry). Ignored when memory-only.
     */
    int ownershipRetryMs = 0;
    /**
     * Shared-analysis cache entries: BlockSchedulingContexts (DDG,
     * MII bounds, serviceability tables) keyed by kernel x machine
     * content so jobs that revisit a pair — a sweep's option
     * variants, repeated service traffic — skip the analysis. 0
     * disables sharing (every job builds privately, the pre-cache
     * behavior). Results are byte-identical either way.
     */
    std::size_t contextCacheCapacity = 256;
    /**
     * Coalesce identical in-flight jobs: a job whose full content key
     * matches one currently scheduling attaches to that run's result
     * instead of scheduling again ("pipeline.dedup_joins"). Closes
     * the thundering-herd window the result cache cannot: concurrent
     * duplicates all miss before the first insert lands. Results stay
     * byte-identical; only wall time and counters differ.
     */
    bool dedupInFlight = true;
};

/**
 * A reusable batch scheduler. run() may be called repeatedly; the
 * cache persists across batches (that is the warm-cache win). One
 * pipeline instance must not have run() called concurrently from two
 * threads; everything inside a single run() is concurrent.
 */
class SchedulingPipeline
{
  public:
    explicit SchedulingPipeline(const PipelineConfig &config = {});

    /**
     * Schedule every job and return results in submission order.
     * Cached results are returned with cacheHit = true and a fresh
     * lookup wall time.
     */
    std::vector<JobResult> run(const std::vector<ScheduleJob> &jobs);

    /**
     * Asynchronous single-job entry point for serving front-ends:
     * enqueue one job and invoke @p done with its result on a worker
     * thread. Unlike run(), submit() is safe to call concurrently from
     * many threads (each request closes over its own inputs and
     * callback). Returns false if the pool has shut down. The caller
     * keeps the job's kernel/machine alive until @p done runs.
     */
    bool submit(ScheduleJob job, std::function<void(JobResult)> done);

    /**
     * Synchronous cache probe for serving fast paths: if @p job is a
     * warm hit, return its result exactly as runOne() would have
     * (cacheHit set, fresh lookup wall time, the same pipeline.jobs /
     * pipeline.cache_hits / pipeline.failures counter bumps) — without
     * touching the worker pool. A miss returns nullopt and bumps
     * *nothing* in the pipeline counters: the caller is expected to
     * fall back to submitMiss() (or submit()), which counts the miss
     * once. Safe to call concurrently from any thread.
     */
    std::optional<JobResult> lookupCached(const ScheduleJob &job);

    /** lookupCached() by a precomputed key (scheduleJobKey(job)). */
    std::optional<JobResult> lookupCached(std::uint64_t key);

    /**
     * submit() for a job whose lookupCached(@p key) just missed: the
     * worker skips the cache probe and schedules under @p key, so a
     * served cold request hashes its key once and probes each cache
     * tier once.
     */
    bool submitMiss(ScheduleJob job, std::uint64_t key,
                    std::function<void(JobResult)> done);

    /** Block until every submitted job has completed. */
    void waitIdle() { pool_.waitIdle(); }

    /** The shared result cache (for stats and tests). */
    const PersistentScheduleCache &cache() const { return cache_; }

    /** The shared analysis cache (for stats and tests). */
    const ContextCache &contextCache() const { return contextCache_; }

    /**
     * Aggregated counters across every job ever run: "pipeline.jobs",
     * "pipeline.cache_hits", "pipeline.cache_misses",
     * "pipeline.dedup_joins" (jobs that attached to an identical
     * in-flight run), "pipeline.failures", plus the merged per-job
     * scheduler counters. jobs = cache_hits + cache_misses +
     * dedup_joins, and scheduler counters are merged once per actual
     * scheduling run (misses only).
     */
    CounterSet statsSnapshot() const;

    /**
     * The pipeline's metrics view: statsSnapshot()'s counters, the
     * cache tiers' counters prefixed cache.memory.* / cache.disk.* /
     * context.* (the tiers share counter names, so the prefixes keep
     * the merge collision-free), and occupancy gauges —
     * cache.disk.shard_bytes, cache.disk.shard_records (summed over
     * the shard files) and pipeline.dedup_inflight (jobs currently
     * scheduling). Safe to call concurrently with workers.
     */
    MetricsSnapshot snapshot() const;

    unsigned numThreads() const { return pool_.size(); }

  private:
    /** One in-flight scheduling run joiners can attach to. */
    struct InFlightJob;

    JobResult runOne(const ScheduleJob &job);
    /** runOne() after the cache probe for @p key missed. */
    JobResult runMiss(const ScheduleJob &job, std::uint64_t key);
    /** Schedule (no cache probe), via the shared analysis cache. */
    JobResult scheduleOne(const ScheduleJob &job);
    /** Block until the leader finishes, then adopt its result. */
    JobResult joinInFlight(const ScheduleJob &job, std::uint64_t key,
                           InFlightJob &flight);
    /** Count one job that scheduled (a miss) and merge its counters. */
    void countScheduled(const JobResult &result);
    /** Count one job that adopted another run's result. */
    void countJoined(const JobResult &result);

    // Workers touch the caches and stats_ until the pools join, so
    // all must be declared before the pools (destroyed after them).
    PersistentScheduleCache cache_;
    ContextCache contextCache_;
    bool shareContexts_;
    bool dedupInFlight_;
    CounterSet stats_;
    mutable std::mutex inflightMutex_;
    /** Content key -> the run in flight for it (leader-owned). */
    std::unordered_map<std::uint64_t, std::shared_ptr<InFlightJob>>
        inflight_;
    ThreadPool pool_;
    /** Dedicated II-search workers (null when iiSearchWorkers == 0). */
    std::unique_ptr<ThreadPool> iiPool_;
};

} // namespace cs

#endif // CS_PIPELINE_PIPELINE_HPP
