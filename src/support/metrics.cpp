#include "support/metrics.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>
#include <sstream>
#include <vector>

namespace cs {

namespace {

/** Write a name-keyed map as one JSON object, values via @p value. */
template <typename Map, typename WriteValue>
void
writeObject(std::ostream &os, const Map &map, WriteValue value)
{
    os << "{";
    bool first = true;
    for (const auto &[name, v] : map) {
        if (!first)
            os << ",";
        first = false;
        writeJsonQuoted(os, name);
        os << ":";
        value(v);
    }
    os << "}";
}

} // namespace

void
MetricsSnapshot::addCounters(const CounterSet &set,
                             const std::string &prefix)
{
    set.forEach([&](const std::string &name, std::uint64_t value) {
        counters[prefix + name] += value;
    });
}

void
MetricsSnapshot::merge(const MetricsSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, summary] : other.histograms)
        histograms[name] = summary;
    for (const auto &[name, value] : other.gauges)
        gauges[name] = value;
}

void
MetricsSnapshot::writeFields(std::ostream &os) const
{
    os << "\"counters\":";
    writeObject(os, counters, [&os](std::uint64_t v) { os << v; });
    os << ",\"histograms\":";
    writeObject(os, histograms, [&os](const HistogramSummary &s) {
        writeHistogramSummary(os, s);
    });
    os << ",\"gauges\":";
    writeObject(os, gauges, [&os](std::int64_t v) { os << v; });
}

std::string
MetricsSnapshot::json() const
{
    std::ostringstream os;
    os << "{";
    writeFields(os);
    os << "}";
    return os.str();
}

StreamingHistogram &
MetricsRegistry::streamingHistogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = streaming_[name];
    if (!slot)
        slot = std::make_unique<StreamingHistogram>();
    return *slot;
}

std::map<std::string, StreamingHistogram::Snapshot>
MetricsRegistry::streamingSnapshot() const
{
    std::map<std::string, StreamingHistogram::Snapshot> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, histogram] : streaming_)
        out.emplace(name, histogram->snapshot());
    return out;
}

std::atomic<std::int64_t> &
MetricsRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<std::atomic<std::int64_t>>(0);
    return *slot;
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot out;
    out.addCounters(counters_);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, histogram] : streaming_)
        out.histograms.emplace(name,
                               summarizeHistogram(histogram->snapshot()));
    for (const auto &[name, value] : gauges_)
        out.gauges.emplace(name, value->load(std::memory_order_relaxed));
    return out;
}

void
writeJsonQuoted(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const char *hex = "0123456789abcdef";
                os << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
writeCounterObject(std::ostream &os, const CounterSet &stats,
                   const char *const *names, std::size_t count)
{
    // Sort a copy of the name list so the byte layout depends only on
    // the name set, never on call-site declaration order.
    std::vector<const char *> sorted(names, names + count);
    std::sort(sorted.begin(), sorted.end(),
              [](const char *a, const char *b) {
                  return std::strcmp(a, b) < 0;
              });
    os << "{";
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (i)
            os << ",";
        os << "\"" << sorted[i] << "\":" << stats.get(sorted[i]);
    }
    os << "}";
}

void
writeHistogramSummary(std::ostream &os, const HistogramSummary &summary)
{
    os << "{\"count\":" << summary.count << ",\"mean\":" << summary.mean
       << ",\"p50\":" << summary.p50 << ",\"p90\":" << summary.p90
       << ",\"p99\":" << summary.p99 << ",\"p999\":" << summary.p999
       << ",\"max\":" << summary.max << "}";
}

} // namespace cs
