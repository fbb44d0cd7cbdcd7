/**
 * @file
 * The one metrics surface: a registry of named counters, streaming
 * histograms and gauges, and the one snapshot schema every live view
 * prints — the Stats reply, each telemetry JSONL line and each Watch
 * frame (support/telemetry.hpp) — plus the low-level JSON writers the
 * bench harnesses use so nobody hand-rolls stats blocks.
 *
 * Counters are monotonically increasing integers ("ops_scheduled").
 * Histograms are StreamingHistograms (support/histogram.hpp):
 * fixed-footprint, wait-free to record, snapshot-able from a sampler
 * thread while workers keep recording; units are part of the name
 * ("serve.latency_us.all"). Gauges are point-in-time signed levels
 * ("serve.inflight") read and written atomically.
 */

#ifndef CS_SUPPORT_METRICS_HPP
#define CS_SUPPORT_METRICS_HPP

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/histogram.hpp"
#include "support/stats.hpp"

namespace cs {

/**
 * A point-in-time view of a component's metrics: counters (flat,
 * sorted by name), histogram summaries and gauges. Components merge
 * their parts into one (the server adds its serve.* registry to the
 * pipeline's snapshot) and every view prints it through fields().
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSummary> histograms;
    std::map<std::string, std::int64_t> gauges;

    /** Add every counter of @p set, each name prefixed by @p prefix. */
    void addCounters(const CounterSet &set, const std::string &prefix = "");

    /** Fold @p other in: counters add up, histograms and gauges are
     *  taken from @p other by name. */
    void merge(const MetricsSnapshot &other);

    /**
     * Write the snapshot as JSON object members, without the braces:
     *
     *   "counters":{"name":value,...},
     *   "histograms":{"name":{"count":..,"mean":..,"p50":..,"p90":..,
     *                         "p99":..,"p999":..,"max":..},...},
     *   "gauges":{"name":value,...}
     *
     * Keys are sorted, so the bytes depend only on the values.
     */
    void writeFields(std::ostream &os) const;

    /** The snapshot as one JSON object: `{` writeFields() `}`. */
    std::string json() const;
};

class MetricsRegistry
{
  public:
    /** The counter side; bump via counters().bump(...) or merge a
     * scheduler's CounterSet in wholesale. */
    CounterSet &counters() { return counters_; }
    const CounterSet &counters() const { return counters_; }

    /**
     * Named streaming histogram, created on first use. The reference
     * is stable for the registry's lifetime (unique_ptr storage), so
     * hot paths resolve the name once and record lock-free after.
     */
    StreamingHistogram &streamingHistogram(const std::string &name);

    /** Snapshots of every streaming histogram, keyed by name. */
    std::map<std::string, StreamingHistogram::Snapshot>
    streamingSnapshot() const;

    /**
     * Named gauge (signed level, e.g. in-flight depth), created on
     * first use at 0. Stable reference; read/write with atomic ops.
     */
    std::atomic<std::int64_t> &gauge(const std::string &name);

    /** Counters, histogram summaries and gauges, in one view. */
    MetricsSnapshot snapshot() const;

  private:
    CounterSet counters_;
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<StreamingHistogram>>
        streaming_;
    std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>>
        gauges_;
};

/** JSON-escape and quote @p s onto @p os. */
void writeJsonQuoted(std::ostream &os, const std::string &s);

/**
 * Write the named counters of @p stats as a JSON object in sorted
 * key order: {"a":1,"b":2}. Absent counters print as 0. Sorting is
 * deliberate: every call site (cs_batch/cs_sweep --json, the bench
 * harnesses) emits the same byte layout for the same name set
 * regardless of the order the caller listed them in, so diffs of
 * BENCH_sched.json never churn on emission order. Pinned by
 * MetricsJson.CounterObjectSortsKeys.
 */
void writeCounterObject(std::ostream &os, const CounterSet &stats,
                        const char *const *names, std::size_t count);

template <std::size_t N>
void
writeCounterObject(std::ostream &os, const CounterSet &stats,
                   const char *const (&names)[N])
{
    writeCounterObject(os, stats, names, N);
}

/**
 * Write one streaming-histogram summary as a JSON object:
 * {"count":..,"mean":..,"p50":..,"p90":..,"p99":..,"p999":..,"max":..}
 * (quantiles in the histogram's recorded unit, integers).
 */
void writeHistogramSummary(std::ostream &os,
                           const HistogramSummary &summary);

} // namespace cs

#endif // CS_SUPPORT_METRICS_HPP
