#include "pipeline/pipeline.hpp"

#include <chrono>
#include <condition_variable>
#include <thread>

#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

/**
 * Rendezvous for duplicate in-flight jobs: the leader schedules and
 * publishes here; joiners block on the condition variable and copy
 * the result out. Held by shared_ptr so a leader that finishes after
 * its key was already re-inserted (or the map cleared) still has a
 * live object to publish into.
 */
struct SchedulingPipeline::InFlightJob
{
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    JobResult result;
};

namespace {

unsigned
resolveThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

unsigned
PipelineConfig::resolvedIiWorkers(unsigned requested)
{
    if (requested != kAutoIiWorkers)
        return requested;
    // Auto: speculation needs spare cores to run attempts on; a
    // single-core host only pays cancellation overhead, so it keeps
    // the serial sweep.
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? hw : 0;
}

SchedulingPipeline::SchedulingPipeline(const PipelineConfig &config)
    : cache_(config.cacheCapacity, config.cacheDirectory,
             config.cacheShards, config.ownershipRetryMs),
      contextCache_(config.contextCacheCapacity),
      shareContexts_(config.contextCacheCapacity != 0),
      dedupInFlight_(config.dedupInFlight),
      pool_(resolveThreads(config.numThreads))
{
    unsigned iiWorkers =
        PipelineConfig::resolvedIiWorkers(config.iiSearchWorkers);
    if (iiWorkers > 0)
        iiPool_ = std::make_unique<ThreadPool>(iiWorkers);
}

std::vector<JobResult>
SchedulingPipeline::run(const std::vector<ScheduleJob> &jobs)
{
    std::vector<JobResult> results(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        bool accepted = pool_.submit(
            [this, &jobs, &results, i] { results[i] = runOne(jobs[i]); });
        CS_ASSERT(accepted, "pipeline pool rejected a job");
    }
    pool_.waitIdle();
    return results;
}

bool
SchedulingPipeline::submit(ScheduleJob job,
                           std::function<void(JobResult)> done)
{
    return pool_.submit(
        [this, job = std::move(job), done = std::move(done)] {
            done(runOne(job));
        });
}

bool
SchedulingPipeline::submitMiss(ScheduleJob job, std::uint64_t key,
                               std::function<void(JobResult)> done)
{
    return pool_.submit(
        [this, job = std::move(job), key, done = std::move(done)] {
            done(runMiss(job, key));
        });
}

std::optional<JobResult>
SchedulingPipeline::lookupCached(const ScheduleJob &job)
{
    return lookupCached(scheduleJobKey(job));
}

std::optional<JobResult>
SchedulingPipeline::lookupCached(std::uint64_t key)
{
    auto start = std::chrono::steady_clock::now();
    std::optional<JobResult> cached = cache_.lookup(key);
    if (!cached.has_value())
        return std::nullopt;
    CS_TRACE_INSTANT1("cache_probe", "hit", 1);
    cached->cacheHit = true;
    auto end = std::chrono::steady_clock::now();
    cached->wallMs =
        std::chrono::duration<double, std::milli>(end - start).count();
    stats_.bump("pipeline.jobs");
    stats_.bump("pipeline.cache_hits");
    if (!cached->success)
        stats_.bump("pipeline.failures");
    return cached;
}

JobResult
SchedulingPipeline::scheduleOne(const ScheduleJob &job)
{
    IiSearchConfig ii_search;
    ii_search.pool = iiPool_.get();
    // Borrow the shared analysis when sharing is on: jobs that pair
    // the same kernel dataflow with the same machine shape (a sweep's
    // option variants, repeat traffic) skip DDG/serviceability-table
    // construction. The shared_ptr keeps the entry alive past any
    // eviction for the duration of the run.
    std::shared_ptr<const SharedBlockContext> shared;
    if (shareContexts_)
        shared = contextCache_.acquire(job.kernel, job.block,
                                       *job.machine);
    return runScheduleJob(job, ii_search,
                          shared != nullptr ? &shared->context()
                                            : nullptr);
}

JobResult
SchedulingPipeline::joinInFlight(const ScheduleJob &job,
                                 std::uint64_t key, InFlightJob &flight)
{
    auto start = std::chrono::steady_clock::now();
    {
        std::unique_lock<std::mutex> lock(flight.mutex);
        while (!flight.done) {
            if (job.abortFlag != nullptr &&
                job.abortFlag->load(std::memory_order_relaxed)) {
                // Our deadline, not the leader's: abandon the join.
                JobResult out;
                out.cancelled = true;
                auto end = std::chrono::steady_clock::now();
                out.wallMs = std::chrono::duration<double, std::milli>(
                                 end - start)
                                 .count();
                stats_.bump("pipeline.cancelled");
                countJoined(out);
                return out;
            }
            // Timed wait only to poll the abort flag; an unarmed job
            // sleeps until the leader's notify.
            if (job.abortFlag != nullptr) {
                flight.cv.wait_for(lock, std::chrono::milliseconds(1));
            } else {
                flight.cv.wait(lock);
            }
        }
        if (!flight.result.cancelled) {
            JobResult out = flight.result;
            auto end = std::chrono::steady_clock::now();
            out.wallMs =
                std::chrono::duration<double, std::milli>(end - start)
                    .count();
            countJoined(out);
            return out;
        }
    }
    // The leader hit *its* deadline; its result says nothing about
    // ours. Schedule for ourselves (rare: only under cancellation).
    JobResult result = scheduleOne(job);
    if (!result.cancelled)
        cache_.insert(key, result);
    countScheduled(result);
    return result;
}

JobResult
SchedulingPipeline::runOne(const ScheduleJob &job)
{
    // The hit path *is* the serving fast path: runOne and the
    // reader-thread probe in serve/server.cpp must count and shape
    // hits identically, so both go through lookupCached.
    std::uint64_t key = scheduleJobKey(job);
    if (std::optional<JobResult> cached = lookupCached(key))
        return *cached;
    return runMiss(job, key);
}

JobResult
SchedulingPipeline::runMiss(const ScheduleJob &job, std::uint64_t key)
{
    CS_TRACE_INSTANT1("cache_probe", "hit", 0);

    // Singleflight: concurrent duplicates all miss the cache (the
    // first insert has not landed yet), so the first one in becomes
    // the leader and the rest attach to its result.
    std::shared_ptr<InFlightJob> flight;
    bool leader = true;
    if (dedupInFlight_) {
        auto start = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(inflightMutex_);
        auto it = inflight_.find(key);
        if (it == inflight_.end()) {
            // A leader for this key may have finished between our
            // probe and now (a served miss waits in the queue); it
            // inserted before retiring its key, so adopt that result
            // as a late join instead of scheduling again. peekMemory
            // counts nothing: the probe already counted this job's
            // tier lookups.
            if (std::optional<JobResult> late = cache_.peekMemory(key)) {
                auto end = std::chrono::steady_clock::now();
                late->cacheHit = false;
                late->wallMs =
                    std::chrono::duration<double, std::milli>(end - start)
                        .count();
                countJoined(*late);
                return *late;
            }
            it = inflight_.emplace(key, std::make_shared<InFlightJob>())
                     .first;
        } else {
            leader = false;
        }
        flight = it->second;
    }
    if (!leader) {
        CS_TRACE_INSTANT1("dedup_join", "hit", 1);
        return joinInFlight(job, key, *flight);
    }

    JobResult result = scheduleOne(job);
    // A cancelled result reflects the caller's deadline, not the job's
    // content — caching it would serve a stale abort to future callers.
    if (!result.cancelled)
        cache_.insert(key, result);

    if (flight != nullptr) {
        // Retire the key first so late arrivals start a fresh run (or
        // adopt the cached result) instead of attaching to a completed
        // flight, then publish for the joiners already attached.
        {
            std::lock_guard<std::mutex> lock(inflightMutex_);
            inflight_.erase(key);
        }
        {
            std::lock_guard<std::mutex> lock(flight->mutex);
            flight->result = result;
            flight->done = true;
        }
        flight->cv.notify_all();
    }
    countScheduled(result);
    return result;
}

void
SchedulingPipeline::countScheduled(const JobResult &result)
{
    stats_.bump("pipeline.jobs");
    stats_.bump("pipeline.cache_misses");
    if (result.cancelled)
        stats_.bump("pipeline.cancelled");
    if (!result.success)
        stats_.bump("pipeline.failures");
    if (!result.verifierErrors.empty())
        stats_.bump("pipeline.verifier_rejects");
    stats_.merge(result.sched.stats);
}

void
SchedulingPipeline::countJoined(const JobResult &result)
{
    stats_.bump("pipeline.jobs");
    stats_.bump("pipeline.dedup_joins");
    if (!result.success && !result.cancelled)
        stats_.bump("pipeline.failures");
}

CounterSet
SchedulingPipeline::statsSnapshot() const
{
    return stats_;
}

MetricsSnapshot
SchedulingPipeline::snapshot() const
{
    MetricsSnapshot out;
    out.addCounters(stats_);
    out.addCounters(toCounterSet(cache_.stats()), "cache.memory.");
    out.addCounters(toCounterSet(cache_.diskStats()), "cache.disk.");
    out.addCounters(toCounterSet(contextCache_.stats()), "context.");
    PersistentScheduleCache::ShardTotals shards = cache_.shardTotals();
    out.gauges["cache.disk.shard_bytes"] =
        static_cast<std::int64_t>(shards.bytes);
    out.gauges["cache.disk.shard_records"] =
        static_cast<std::int64_t>(shards.records);
    std::lock_guard<std::mutex> lock(inflightMutex_);
    out.gauges["pipeline.dedup_inflight"] =
        static_cast<std::int64_t>(inflight_.size());
    return out;
}

} // namespace cs
