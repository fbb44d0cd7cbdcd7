/**
 * @file
 * Time-series telemetry: a stream of JSON lines, each one snapshot of
 * a process's metrics and resource footprint, and a background
 * sampler that appends one such line to a file every N ms, so a long
 * soak can be watched (and asserted on) instead of inspected
 * post-hoc.
 *
 * Each line is one self-contained JSON object:
 *
 *   {"seq":3,"t_ms":750,"rss_kb":41288,
 *    "counters":{...},"histograms":{...},"gauges":{...},
 *    "deltas":{...only the counters that changed since the previous
 *              line...}}
 *
 * The middle is the MetricsSnapshot schema (support/metrics.hpp), so
 * a line minus seq/t_ms/rss_kb/deltas is byte for byte what a Stats
 * reply carries for the same state. TelemetryStream writes the
 * lines; the file sampler owns one stream and the server owns one per
 * Watch subscription, so both views are the same writer.
 *
 * The snapshot comes from a caller-supplied closure, so one sampler
 * works for the server, cs_batch and cs_sweep alike. The closure runs
 * on the sampler thread — it must be safe to call concurrently with
 * the workers (CounterSet snapshots and the registry's streaming
 * histograms are).
 *
 * Shutdown contract: stop() (and the destructor) wakes the thread,
 * writes one final sample, flushes, and joins — the last line of the
 * file always reflects the end state, and no partial line is ever
 * left behind (every sample is written and flushed whole).
 */

#ifndef CS_SUPPORT_TELEMETRY_HPP
#define CS_SUPPORT_TELEMETRY_HPP

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "support/metrics.hpp"

namespace cs {

/** Resident set size in KiB from /proc/self/statm (0 on failure). */
std::uint64_t readRssKb();

/**
 * One telemetry line sequence: seq counts from 0, t_ms runs from
 * construction, and deltas are taken against the previous line's
 * counters. Not thread-safe; each stream has one writer thread.
 */
class TelemetryStream
{
  public:
    TelemetryStream() : start_(std::chrono::steady_clock::now()) {}

    /** Write the next line for @p snapshot (no trailing newline). */
    void writeLine(std::ostream &os, const MetricsSnapshot &snapshot);

  private:
    std::uint64_t seq_ = 0;
    std::chrono::steady_clock::time_point start_;
    std::map<std::string, std::uint64_t> previous_;
};

struct TelemetryConfig
{
    std::string path;        ///< JSONL output file (truncated).
    unsigned intervalMs = 250; ///< Sample period.
};

class TelemetrySampler
{
  public:
    /** The metrics to record (called on the sampler thread). */
    using SnapshotFn = std::function<MetricsSnapshot()>;

    TelemetrySampler() = default;
    ~TelemetrySampler() { stop(); }
    TelemetrySampler(const TelemetrySampler &) = delete;
    TelemetrySampler &operator=(const TelemetrySampler &) = delete;

    /**
     * Open @p config.path and start sampling. Returns false (without
     * starting) if the file cannot be opened.
     */
    bool start(const TelemetryConfig &config, SnapshotFn snapshot);

    /** Final sample + flush + join. Idempotent; the destructor calls
     *  it. */
    void stop();

    bool running() const { return thread_.joinable(); }

  private:
    void loop();

    TelemetryConfig config_;
    SnapshotFn snapshot_;
    std::ofstream out_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
    TelemetryStream stream_;
};

} // namespace cs

#endif // CS_SUPPORT_TELEMETRY_HPP
