/**
 * @file
 * dse_sweep: a closed batch. One cold design-space sweep goes through
 * one SchedulingPipeline::run at nproc threads: enumerateMachineSpace
 * x the cheap Table-1 kernels x option variants x herd duplicates,
 * pipelined with the serial II search, ContextCache and in-flight
 * dedup at their defaults. The design space itself is fixed
 * (kSpaceSeed) so every seed sweeps the same amount of work; the run
 * seed sets each sweep's submission order and the option-variant
 * budgets.
 */

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <tuple>

#include "bench.hpp"
#include "costmodel/dse.hpp"
#include "costmodel/machine_cost.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/pipeline.hpp"
#include "support/stats.hpp"

namespace pb {
namespace {

constexpr std::uint64_t kSpaceSeed = 1;
constexpr int kPoints = 64;
constexpr int kOptionVariants = 2;
constexpr int kHerd = 2;
/** Set-ups timed before the first sweep and again after every sweep. */
constexpr int kSetupReps = 10;
const char *const kSweepKernels[] = {"FFT", "Block Warp", "FIR-FP", "DCT"};

struct Sweep
{
    std::vector<cs::DsePoint> points;
    std::vector<int> pointClass;
    std::vector<cs::MachineCost> costs;
    std::vector<cs::Kernel> kernels;
    /** Variant v > 0 adds v * budgetStep to an unreached permutation
     *  budget: same analysis, different content key. */
    int budgetStep = 1;
    std::vector<cs::ScheduleJob> batch;
    /** Per batch entry: design point, kernel, option variant, herd copy. */
    std::vector<int> jobPoint, jobKernel, jobVariant, jobCopy;
};

/**
 * (Re)build the batch with the design points in a seeded order. One
 * design point's work stays adjacent (option variants, then herd
 * copies) so duplicates overlap in flight, as cs_sweep submits it.
 */
void
orderBatch(Sweep &sweep, std::uint64_t orderSeed)
{
    std::vector<int> order(sweep.points.size());
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(orderSeed);
    std::shuffle(order.begin(), order.end(), rng);
    sweep.batch.clear();
    sweep.jobPoint.clear();
    sweep.jobKernel.clear();
    sweep.jobVariant.clear();
    sweep.jobCopy.clear();
    for (int p : order) {
        for (std::size_t k = 0; k < sweep.kernels.size(); ++k) {
            for (int v = 0; v < kOptionVariants; ++v) {
                cs::ScheduleJob job;
                job.label = std::string(kSweepKernels[k]) + "@" +
                            sweep.points[p].name;
                job.kernel = sweep.kernels[k];
                job.block = cs::BlockId(0);
                job.machine = &sweep.points[p].machine;
                job.options.permutationBudget += v * sweep.budgetStep;
                for (int r = 0; r < kHerd; ++r) {
                    sweep.batch.push_back(job);
                    sweep.jobPoint.push_back(p);
                    sweep.jobKernel.push_back(static_cast<int>(k));
                    sweep.jobVariant.push_back(v);
                    sweep.jobCopy.push_back(r);
                }
            }
        }
    }
}

std::unique_ptr<Sweep>
buildSweep(const Options &options)
{
    auto sweep = std::make_unique<Sweep>();
    {
        PB_SPAN(Costmodel);
        sweep->points = cs::enumerateMachineSpace({kSpaceSeed, kPoints});
    }
    for (const cs::DsePoint &point : sweep->points) {
        sweep->pointClass.push_back(classIndex(point.style));
        PB_SPAN(Costmodel);
        sweep->costs.push_back(cs::machineCost(point.machine));
    }
    for (const char *name : kSweepKernels) {
        PB_SPAN(Kernels);
        sweep->kernels.push_back(cs::kernelByName(name).build());
    }
    sweep->budgetStep =
        1 + static_cast<int>(subSeed(options.seed, 4001) % 50);
    orderBatch(*sweep, subSeed(options.seed, 4000));
    return sweep;
}

/**
 * Check one sweep's results and reduce them to the Pareto frontier
 * (design-point names in enumeration order). Returns the total cycles
 * per iteration over the distinct (point, kernel) pairs.
 */
double
checkSweep(const Sweep &sweep, const std::vector<cs::JobResult> &results,
           std::vector<std::string> *frontier, Report &report)
{
    std::vector<double> achieved(sweep.points.size(), 0.0);
    std::vector<bool> feasible(sweep.points.size(), true);
    double cycles = 0.0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const cs::JobResult &r = results[i];
        report.attempted();
        if (!r.success || !r.verifierErrors.empty()) {
            report.fail(sweep.batch[i].label + ": sweep job failed");
            feasible[sweep.jobPoint[i]] = false;
            continue;
        }
        if (sweep.jobVariant[i] == 0 && sweep.jobCopy[i] == 0) {
            achieved[sweep.jobPoint[i]] += r.ii;
            cycles += r.ii;
        }
    }
    std::vector<cs::DseOutcome> outcomes;
    {
        PB_SPAN(Costmodel);
        for (std::size_t p = 0; p < sweep.points.size(); ++p) {
            if (!feasible[p])
                continue;
            cs::DseOutcome o;
            o.machine = sweep.points[p].name;
            o.area = sweep.costs[p].area();
            o.power = sweep.costs[p].power();
            o.delay = sweep.costs[p].delay;
            o.achievedIi = achieved[p];
            outcomes.push_back(o);
        }
        frontier->clear();
        for (std::size_t i : cs::paretoFrontier(outcomes))
            frontier->push_back(outcomes[i].machine);
    }
    return cycles;
}

/** One sweep through a fresh pipeline, per batch entry. */
struct SweepRun
{
    std::vector<cs::JobResult> results;
    /** CPU time the worker spent on each job (its thread CPU since the
     *  previous job it finished). */
    std::vector<double> cpuMs;
    std::vector<Clock::time_point> submitted, completed;
    double wallMs = 0.0;
    /** Process CPU time over the whole sweep. */
    double cpuTotalMs = 0.0;
    cs::ContextCache::Stats contexts;
    std::uint64_t dedupJoins = 0;
};

/**
 * Run the batch through one pipeline at nproc threads. Jobs go in
 * through submit(), which is what run() does per job, so that each
 * job's completion time and worker CPU time can be read.
 */
SweepRun
runSweep(const Options &options, const Sweep &sweep)
{
    const std::size_t n = sweep.batch.size();
    SweepRun run;
    run.results.resize(n);
    run.cpuMs.resize(n);
    run.submitted.resize(n);
    run.completed.resize(n);
    // Cold: the II search's adaptive ordering must not learn from an
    // earlier sweep.
    cs::PortfolioStats::global().clear();
    cs::PipelineConfig config;
    config.numThreads = options.nproc;
    cs::SchedulingPipeline pipeline(config);
    auto t0 = Clock::now();
    double cpu0 = processCpuMs();
    {
        PB_SPAN(Pipeline);
        for (std::size_t i = 0; i < n; ++i) {
            run.submitted[i] = Clock::now();
            pipeline.submit(sweep.batch[i], [&run, i](cs::JobResult r) {
                // Pool threads are new for every pipeline, so this
                // starts at zero with the thread's CPU clock.
                thread_local double lastCpu = 0.0;
                double now = threadCpuMs();
                run.cpuMs[i] = now - lastCpu;
                lastCpu = now;
                run.completed[i] = Clock::now();
                run.results[i] = std::move(r);
            });
        }
        pipeline.waitIdle();
    }
    run.wallMs = msSince(t0);
    run.cpuTotalMs = processCpuMs() - cpu0;
    run.contexts = pipeline.contextCache().stats();
    run.dedupJoins = pipeline.statsSnapshot().get("pipeline.dedup_joins");
    return run;
}

} // namespace

void
runDseSweep(const Options &options, Report &report)
{
    // Set-up is timed in blocks spread over the run, each followed by
    // a reading of the box's speed, as in compile_suite.
    std::unique_ptr<Sweep> sweep;
    std::vector<double> setupS, references;
    auto timeSetups = [&] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            sweep.reset();
            double cpu0 = threadCpuMs();
            sweep = buildSweep(options);
            setupS.push_back((threadCpuMs() - cpu0) / 1000.0);
        }
        references.push_back(referenceCpuMs(options.nproc));
    };
    timeSetups();
    report.requireOps("dse_sweep jobs", sweep->batch.size());

    std::vector<double> sweepMs, sweepCpuMs;
    std::array<std::vector<double>, kNumClasses> perClass;
    std::vector<double> scheduled;
    std::vector<std::string> firstFrontier, frontier;
    double cycles = 0.0;
    double peakRss = 0.0;
    auto start = Clock::now();
    for (int rep = 0; rep == 0 || msSince(start) < options.seconds * 1000.0;
         ++rep) {
        // Every sweep submits in a fresh seeded order, so the median
        // does not rest on one order's tail.
        if (rep > 0)
            orderBatch(*sweep, subSeed(options.seed, 4000 + rep));
        SweepRun run = runSweep(options, *sweep);
        const std::vector<cs::JobResult> &results = run.results;
        sweepMs.push_back(run.wallMs);
        sweepCpuMs.push_back(run.cpuTotalMs);

        cycles = checkSweep(*sweep, results, &frontier, report);
        if (rep == 0) {
            firstFrontier = frontier;
            // After one sweep: each sweep's fresh pipeline leaves the
            // allocator's arenas a little larger, so a later reading
            // would grow with the number of sweeps that fit in the run.
            peakRss = peakRssMb();
        } else if (frontier != firstFrontier)
            report.fail("Pareto frontier differs between sweeps");
        // One sample per (point, kernel, variant): the worker CPU of its
        // herd copies together. Whichever copy leads schedules; the
        // other joins the flight or hits the cache and costs ~0.
        std::map<std::tuple<int, int, int>, double> jobCpu;
        for (std::size_t i = 0; i < results.size(); ++i)
            jobCpu[{sweep->jobPoint[i], sweep->jobKernel[i],
                    sweep->jobVariant[i]}] += run.cpuMs[i];
        for (const auto &[key, ms] : jobCpu) {
            perClass[sweep->pointClass[std::get<0>(key)]].push_back(ms);
            scheduled.push_back(ms);
        }
        timeSetups();
    }
    if (firstFrontier.empty())
        report.fail("empty Pareto frontier");

    // Per-job figures are worker CPU time: a job's wall time in a
    // pool as wide as the box mostly measures its neighbours. The
    // throughput is jobs per CPU-second of the whole sweep: its wall
    // time and its busiest worker are set by where the few heavy jobs
    // land, which changes from sweep to sweep. All are scaled to the
    // reference speed; the notes are unscaled.
    const double scale = kReferenceMs / median(references);
    for (int cls = 0; cls < kNumClasses; ++cls) {
        report.requireOps(std::string("dse_sweep class ") + kClassIds[cls],
                          perClass[cls].size());
        report.metric(std::string("compile_ms.") + kClassIds[cls],
                      cs::geometricMean(perClass[cls]) * scale, "ms");
    }
    report.metric("setup_s", median(setupS) * scale, "s");
    double jobs = static_cast<double>(sweep->batch.size());
    report.metric("jobs_per_s",
                  jobs / (median(sweepCpuMs) * scale / 1000.0), "1/s");
    report.metric("p50_ms", median(scheduled) * scale, "ms");
    report.metric("peak_rss_mb", peakRss, "MB");
    report.note("p99_ms", quantile(scheduled, 0.99) * scale);
    report.note("wall_jobs_per_s", jobs / (median(sweepMs) / 1000.0));
    report.note("cpu_jobs_per_s", jobs / (median(sweepCpuMs) / 1000.0));
    report.note("reference_ms", median(references));
    report.note("sweeps", static_cast<double>(sweepMs.size()));
    report.note("jobs_per_sweep", static_cast<double>(sweep->batch.size()));
    report.note("samples", static_cast<double>(scheduled.size()));
    report.note("pareto_points", static_cast<double>(firstFrontier.size()));
    report.note("code_cycles", cycles);
}

void
traceDseSweep(const Options &options, Report &report)
{
    std::vector<double> enumerateMs;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clock::now();
        PB_SPAN(Costmodel);
        cs::enumerateMachineSpace({kSpaceSeed, kPoints});
        enumerateMs.push_back(msSince(t0));
    }
    report.metric("costmodel.enumerate_ms", median(enumerateMs), "ms");

    std::unique_ptr<Sweep> sweep = buildSweep(options);
    SweepRun run = runSweep(options, *sweep);
    std::vector<std::string> frontier;
    checkSweep(*sweep, run.results, &frontier, report);

    std::vector<double> jobWall, queueWait;
    double busyMs = 0.0;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
        double wall = run.results[i].wallMs;
        jobWall.push_back(wall);
        queueWait.push_back(msBetween(run.submitted[i], run.completed[i]) -
                            wall);
        busyMs += wall;
    }
    const cs::ContextCache::Stats &contexts = run.contexts;
    report.requireOps("context cache lookups", contexts.hits + contexts.misses);
    report.metric("pipeline.context_hit_ratio", contexts.hitRate(), "ratio");
    report.metric("pipeline.dedup_joins", static_cast<double>(run.dedupJoins),
                  "count");
    report.metric("pipeline.job_wall_ms.p50", median(jobWall), "ms");
    report.metric("pipeline.job_wall_ms.p99", quantile(jobWall, 0.99),
                  "ms");
    report.metric("pipeline.queue_wait_ms.p50", median(queueWait), "ms");
    report.metric("pipeline.queue_wait_ms.p99", quantile(queueWait, 0.99),
                  "ms");
    report.metric("pipeline.busy_ratio",
                  busyMs / (options.nproc * run.wallMs), "ratio");
}

} // namespace pb
