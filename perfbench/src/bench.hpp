/**
 * @file
 * Shared pieces of the repository benchmark: the canonical machine
 * list, the run report (metrics, operation and failure counts), small
 * statistics helpers, and the benchmark-side layer tracer that times
 * calls into each scheduler module from the benchmark's own code.
 */

#ifndef PB_BENCH_HPP
#define PB_BENCH_HPP

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "machine/machine.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double
msSince(Clock::time_point a)
{
    return msBetween(a, Clock::now());
}

/**
 * The paper's four evaluation machines, under the ids every metric
 * name uses. This is the one machine list of the benchmark: workloads
 * map design points and requests onto these ids, never onto display
 * names.
 */
inline constexpr std::array<const char *, 4> kClassIds = {
    "central", "clustered2", "clustered4", "distributed"};
inline constexpr int kNumClasses = 4;

/** Index of @p id in kClassIds; RunAborted for an unknown id. */
int classIndex(std::string_view id);

/** Build the paper machine for class @p cls. */
cs::Machine buildPaperMachine(int cls);

/**
 * The run cannot produce a valid result (missing inputs, a section
 * with zero operations, a generator that fell behind). Thrown so that
 * servers and threads unwind; main reports it and prints no result.
 */
struct RunAborted : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Checkout root (holds src/ and tests/). */
    std::string root = ".";
    /** Scratch directory inside the checkout for sockets and caches. */
    std::string scratch;
    unsigned nproc = 1;
};

/** What one run measured and whether its outputs were right. */
class Report
{
  public:
    /** Record an output metric (name as in BENCHMARK.json). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Print a side note (sample counts, sizes) to stdout. */
    void note(const std::string &key, double value);

    void attempted(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one failed or wrong operation; the first few are logged. */
    void fail(const std::string &what);

    /**
     * A section that ran zero operations is a broken benchmark, not a
     * result: abort the run (RunAborted) without printing one.
     */
    void requireOps(const std::string &section, std::uint64_t ops);

    /** Print the final one-line JSON result. */
    void print() const;

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::map<std::string, std::pair<double, std::string>> metrics_;
};

/** @name Statistics over plain sample vectors */
/// @{
double median(std::vector<double> values);
/** Nearest-rank quantile (q in [0,1]); 0 for an empty set. */
double quantile(std::vector<double> values, double q);
/// @}

/**
 * CPU time this process has used, all threads, in ms. On a VM with
 * paravirtual steal accounting it excludes time the host gave to other
 * guests, which wall time does not.
 */
double processCpuMs();

/** CPU time of the calling thread, in ms (same steal caveat). */
double threadCpuMs();

/**
 * CPU time of every live thread of this process except the calling
 * one, in ms, by thread id.
 */
std::map<int, double> otherThreadsCpuMs();

/**
 * The most CPU time any one thread spent between two
 * otherThreadsCpuMs() snapshots; threads new since @p before count
 * from zero.
 *
 * The calling thread's CPU plus this is the benchmark's critical-path
 * CPU time. Like CPU time it leaves out time the host gave to others;
 * like wall time it grows when parallel work is serialised, because
 * one thread then does all of it.
 */
double busiestThreadMs(const std::map<int, double> &before,
                       const std::map<int, double> &after);

/**
 * How fast the box runs right now: the CPU time (ms) of a fixed piece
 * of benchmark-owned work, a sort and hash-map build and probe over
 * seeded keys, run on @p threads threads at once; the median of
 * several such rounds and of the threads within each. No change to
 * the scheduler can move it, so dividing a time by it cancels the
 * machine's own drift.
 */
double referenceCpuMs(unsigned threads);

/**
 * A typical referenceCpuMs(4) of the 4-vCPU development box. Times
 * scaled by kReferenceMs / referenceCpuMs() read as ms on that box
 * at that speed.
 */
inline constexpr double kReferenceMs = 7.5;

/** Peak resident set size of this process, in MiB. */
double peakRssMb();

/** 64-bit FNV-1a, the hash tests/golden_listings.txt records. */
std::uint64_t fnv1a(std::string_view data);

/** Deterministic per-purpose seed derived from the run seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t purpose);

/**
 * Benchmark-side spans around calls into each scheduler module. Only
 * the traced run enables them. A module's self time is its spans'
 * duration minus the part covered by nested spans on the same thread.
 */
namespace layer {

enum Module : int {
    Machine,
    Kernels,
    Ir,
    Core,
    Pipeline,
    Serve,
    Costmodel,
    Sim,
    Support,
    kNumModules
};

extern const std::array<const char *, kNumModules> kModuleNames;

void setEnabled(bool on);

class Span
{
  public:
    explicit Span(Module module);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_ = -1;
};

struct ModuleTotals
{
    double selfMs = 0.0;
    std::uint64_t calls = 0;
};

std::array<ModuleTotals, kNumModules> aggregate();

} // namespace layer

#define PB_CAT2(a, b) a##b
#define PB_CAT(a, b) PB_CAT2(a, b)
/** Span of module @p mod over the rest of the enclosing scope. */
#define PB_SPAN(mod) ::pb::layer::Span PB_CAT(pb_span_, __LINE__)(::pb::layer::mod)

/** @name Workloads: timed and traced entries; serve_mix is traced only */
/// @{
void runCompileSuite(const Options &options, Report &report);
void traceCompileSuite(const Options &options, Report &report);
void traceServeMix(const Options &options, Report &report);
void runDseSweep(const Options &options, Report &report);
void traceDseSweep(const Options &options, Report &report);
/// @}

} // namespace pb

#endif // PB_BENCH_HPP
