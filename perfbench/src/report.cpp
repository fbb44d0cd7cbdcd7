#include "bench.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <time.h>
#include <unistd.h>
#include <unordered_map>

#include "machine/builders.hpp"

namespace pb {

int
classIndex(std::string_view id)
{
    for (int i = 0; i < kNumClasses; ++i) {
        if (id == kClassIds[i])
            return i;
    }
    throw RunAborted("unknown machine class '" + std::string(id) + "'");
}

cs::Machine
buildPaperMachine(int cls)
{
    switch (cls) {
    case 0:
        return cs::makeCentral();
    case 1:
        return cs::makeClustered({}, 2);
    case 2:
        return cs::makeClustered({}, 4);
    default:
        return cs::makeDistributed();
    }
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = {value, unit};
    std::cout << "metric " << std::left << std::setw(36) << name << " "
              << std::setprecision(6) << value << " " << unit << "\n";
}

void
Report::note(const std::string &key, double value)
{
    std::cout << "note   " << std::left << std::setw(36) << key << " "
              << std::setprecision(6) << value << "\n";
}

void
Report::fail(const std::string &what)
{
    if (failed_ < 20)
        std::cout << "FAIL   " << what << "\n";
    ++failed_;
}

void
Report::requireOps(const std::string &section, std::uint64_t ops)
{
    if (ops == 0)
        throw RunAborted("section '" + section + "' ran zero operations");
}

void
Report::print() const
{
    std::ostringstream os;
    os << std::setprecision(17);
    os << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : metrics_) {
        if (!first)
            os << ", ";
        first = false;
        double value = std::isfinite(entry.first) ? entry.first : -1.0;
        os << "\"" << name << "\": {\"value\": " << value
           << ", \"unit\": \"" << entry.second << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
processCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

double
threadCpuMs()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

std::map<int, double>
otherThreadsCpuMs()
{
    const int self = static_cast<int>(::gettid());
    std::map<int, double> cpu;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/task", ec)) {
        int tid = std::atoi(entry.path().filename().c_str());
        // The kernel's per-thread CPU clock id (what
        // pthread_getcpuclockid returns): exact even while the thread
        // runs, unlike /proc's schedstat.
        clockid_t clock = static_cast<clockid_t>((~tid) << 3) | 6;
        timespec ts{};
        if (tid > 0 && tid != self && ::clock_gettime(clock, &ts) == 0)
            cpu[tid] = static_cast<double>(ts.tv_sec) * 1e3 +
                       static_cast<double>(ts.tv_nsec) / 1e6;
    }
    if (ec)
        throw RunAborted("cannot list this process's threads");
    return cpu;
}

double
busiestThreadMs(const std::map<int, double> &before,
                const std::map<int, double> &after)
{
    double busiest = 0.0;
    for (const auto &[tid, ms] : after) {
        auto it = before.find(tid);
        busiest = std::max(busiest,
                           ms - (it == before.end() ? 0.0 : it->second));
    }
    return busiest;
}

namespace {

/** One round of the fixed reference work on the calling thread. */
double
referenceRoundMs()
{
    double start = threadCpuMs();
    std::vector<std::uint64_t> keys(1u << 15);
    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    for (std::uint64_t &k : keys) {
        // splitmix64
        std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        k = z ^ (z >> 31);
    }
    std::vector<std::uint64_t> sorted = keys;
    std::sort(sorted.begin(), sorted.end());
    std::unordered_map<std::uint64_t, std::uint32_t> index;
    for (std::uint32_t i = 0; i < sorted.size(); ++i)
        index.emplace(sorted[i], i);
    std::uint64_t sum = 0;
    for (std::uint64_t k : keys) {
        auto hit = index.find(k);
        auto miss = index.find(k + 1);
        sum += hit->second + (miss == index.end() ? 0 : miss->second);
    }
    if (sum == 0)
        throw RunAborted("reference work computed nothing");
    return threadCpuMs() - start;
}

} // namespace

double
referenceCpuMs(unsigned threads)
{
    constexpr int kRounds = 9;
    std::vector<double> rounds;
    for (int r = 0; r < kRounds; ++r) {
        std::vector<double> perThread(threads, 0.0);
        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t)
            workers.emplace_back(
                [&perThread, t] { perThread[t] = referenceRoundMs(); });
        for (std::thread &w : workers)
            w.join();
        rounds.push_back(median(perThread));
    }
    return median(rounds);
}

double
peakRssMb()
{
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t
fnv1a(std::string_view data)
{
    std::uint64_t state = 14695981039346656037ull;
    for (unsigned char c : data) {
        state ^= c;
        state *= 1099511628211ull;
    }
    return state;
}

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t purpose)
{
    // splitmix64 over (seed, purpose).
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + purpose +
                      0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

namespace layer {

const std::array<const char *, kNumModules> kModuleNames = {
    "machine", "kernels", "ir",        "core", "pipeline",
    "serve",   "costmodel", "sim", "support"};

namespace {

struct Record
{
    Module module;
    std::int64_t startNs;
    std::int64_t endNs;
    int parent;
};

struct ThreadSpans
{
    std::vector<Record> records;
    std::vector<int> stack;
};

std::atomic<bool> gEnabled{false};
std::mutex gRegistryMutex;
std::vector<std::shared_ptr<ThreadSpans>> gRegistry;

ThreadSpans &
threadSpans()
{
    thread_local std::shared_ptr<ThreadSpans> mine = [] {
        auto spans = std::make_shared<ThreadSpans>();
        std::lock_guard<std::mutex> lock(gRegistryMutex);
        gRegistry.push_back(spans);
        return spans;
    }();
    return *mine;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

void
setEnabled(bool on)
{
    gEnabled.store(on);
}

Span::Span(Module module)
{
    if (!gEnabled.load(std::memory_order_relaxed))
        return;
    ThreadSpans &spans = threadSpans();
    int parent = spans.stack.empty() ? -1 : spans.stack.back();
    index_ = static_cast<int>(spans.records.size());
    spans.records.push_back({module, nowNs(), -1, parent});
    spans.stack.push_back(index_);
}

Span::~Span()
{
    if (index_ < 0)
        return;
    ThreadSpans &spans = threadSpans();
    spans.records[static_cast<std::size_t>(index_)].endNs = nowNs();
    spans.stack.pop_back();
}

std::array<ModuleTotals, kNumModules>
aggregate()
{
    std::array<ModuleTotals, kNumModules> totals{};
    std::lock_guard<std::mutex> lock(gRegistryMutex);
    for (const auto &spans : gRegistry) {
        const std::vector<Record> &records = spans->records;
        std::vector<std::int64_t> childNs(records.size(), 0);
        for (const Record &r : records) {
            if (r.parent >= 0 && r.endNs >= 0)
                childNs[static_cast<std::size_t>(r.parent)] +=
                    r.endNs - r.startNs;
        }
        for (std::size_t i = 0; i < records.size(); ++i) {
            const Record &r = records[i];
            if (r.endNs < 0)
                continue;
            ModuleTotals &t = totals[r.module];
            t.selfMs +=
                static_cast<double>(r.endNs - r.startNs - childNs[i]) /
                1e6;
            ++t.calls;
        }
    }
    return totals;
}

} // namespace layer
} // namespace pb
