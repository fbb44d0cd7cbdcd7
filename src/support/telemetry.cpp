#include "support/telemetry.hpp"

#include <cstdio>

#include <unistd.h>

namespace cs {

std::uint64_t
readRssKb()
{
    // /proc/self/statm: "size resident shared text lib data dt" in
    // pages; field 2 is the resident set.
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    unsigned long long size = 0, resident = 0;
    int matched = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (matched != 2)
        return 0;
    long pageSize = ::sysconf(_SC_PAGESIZE);
    if (pageSize <= 0)
        pageSize = 4096;
    return static_cast<std::uint64_t>(resident) *
           static_cast<std::uint64_t>(pageSize) / 1024u;
}

void
TelemetryStream::writeLine(std::ostream &os,
                           const MetricsSnapshot &snapshot)
{
    auto tMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start_)
                   .count();
    os << "{\"seq\":" << seq_++ << ",\"t_ms\":" << tMs
       << ",\"rss_kb\":" << readRssKb() << ",";
    snapshot.writeFields(os);
    os << ",\"deltas\":{";
    bool first = true;
    for (const auto &[name, value] : snapshot.counters) {
        auto it = previous_.find(name);
        std::uint64_t before = it == previous_.end() ? 0 : it->second;
        if (value == before)
            continue;
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        // Counters are monotone in practice, but a snapshot race can
        // present a transient decrease; clamp at 0 so deltas stay
        // non-negative.
        os << ":" << (value > before ? value - before : 0);
    }
    os << "}}";
    previous_ = snapshot.counters;
}

bool
TelemetrySampler::start(const TelemetryConfig &config,
                        SnapshotFn snapshot)
{
    stop();
    out_.open(config.path, std::ios::trunc);
    if (!out_)
        return false;
    config_ = config;
    snapshot_ = std::move(snapshot);
    stop_ = false;
    stream_ = TelemetryStream();
    thread_ = std::thread([this] { loop(); });
    return true;
}

void
TelemetrySampler::stop()
{
    if (!thread_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    out_.close();
}

void
TelemetrySampler::loop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        bool stopping = cv_.wait_for(
            lock, std::chrono::milliseconds(config_.intervalMs),
            [this] { return stop_; });
        // One sample per wake, including the final one on stop, so
        // the file always ends with the end state.
        stream_.writeLine(out_, snapshot_());
        out_ << "\n" << std::flush;
        if (stopping)
            return;
    }
}

} // namespace cs
