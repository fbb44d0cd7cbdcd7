/**
 * @file
 * compile_suite: the paper's evaluation set as a closed loop of cold
 * compiles. 10 Table-1 kernels x the four paper machines x {block,
 * pipelined} = the 80 golden pairs, one job at a time, no caches.
 * Pipelined jobs run the speculative II search on an nproc-worker pool
 * (what `--ii-workers auto` resolves to). The seed sets the job order
 * of every pass and the simulator inputs.
 */

#include <algorithm>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>

#include "bench.hpp"
#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/sched_context.hpp"
#include "core/schedule.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/adaptive.hpp"
#include "pipeline/ii_search.hpp"
#include "pipeline/job.hpp"
#include "pipeline/pipeline.hpp"
#include "sim/datapath_sim.hpp"
#include "support/memory_image.hpp"
#include "support/random.hpp"
#include "support/stats.hpp"
#include "support/trace.hpp"

namespace pb {
namespace {

/** Set-ups timed before the first pass and again after every pass. */
constexpr int kSetupReps = 25;

struct Golden
{
    int ii = 0;
    std::size_t bytes = 0;
    std::uint64_t hash = 0;
};

struct SuiteJob
{
    int cls = 0;
    std::size_t kernel = 0;
    bool pipelined = false;
    std::string goldenKey;
    cs::ScheduleJob job;
};

/** Everything the timed loop needs, built before it starts. */
struct Suite
{
    std::vector<cs::Machine> machines;
    std::vector<const cs::KernelSpec *> specs;
    std::vector<SuiteJob> jobs;
    std::map<std::string, Golden> goldens;
    /** Per kernel: seeded input image and its scalar-reference result. */
    std::vector<cs::MemoryImage> inputs;
    std::vector<cs::MemoryImage> expected;
    std::unique_ptr<cs::ThreadPool> iiPool;
    cs::IiSearchConfig ii;

    const cs::IiSearchConfig &
    searchFor(const SuiteJob &j) const
    {
        static const cs::IiSearchConfig serial;
        return j.pipelined ? ii : serial;
    }
};

std::map<std::string, Golden>
loadGoldens(const std::string &root)
{
    std::string path = root + "/tests/golden_listings.txt";
    std::ifstream in(path);
    if (!in)
        throw RunAborted("cannot read " + path);
    std::map<std::string, Golden> table;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string key, hex;
        Golden g;
        fields >> key >> g.ii >> g.bytes >> hex;
        g.hash = std::stoull(hex, nullptr, 16);
        table[key] = g;
    }
    return table;
}

std::unique_ptr<Suite>
buildSuite(const Options &options)
{
    auto suite = std::make_unique<Suite>();
    suite->machines.reserve(kNumClasses);
    for (int cls = 0; cls < kNumClasses; ++cls) {
        PB_SPAN(Machine);
        suite->machines.push_back(buildPaperMachine(cls));
    }
    std::vector<cs::Kernel> kernels;
    for (const cs::KernelSpec &spec : cs::allKernels()) {
        suite->specs.push_back(&spec);
        PB_SPAN(Kernels);
        kernels.push_back(spec.build());
    }
    for (std::size_t k = 0; k < suite->specs.size(); ++k) {
        const cs::KernelSpec &spec = *suite->specs[k];
        PB_SPAN(Kernels);
        cs::MemoryImage image;
        cs::Rng rng(subSeed(options.seed, 1000 + k));
        spec.init(image, rng);
        cs::MemoryImage expected = image;
        spec.reference(expected, spec.testIterations);
        suite->inputs.push_back(std::move(image));
        suite->expected.push_back(std::move(expected));
    }
    for (int cls = 0; cls < kNumClasses; ++cls) {
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            for (bool pipelined : {false, true}) {
                SuiteJob j;
                j.cls = cls;
                j.kernel = k;
                j.pipelined = pipelined;
                std::string name = suite->specs[k]->name;
                std::replace(name.begin(), name.end(), ' ', '_');
                j.goldenKey = name + "|" + kClassIds[cls] + "|" +
                              (pipelined ? "modulo" : "block");
                j.job.label = suite->specs[k]->name + "@" + kClassIds[cls];
                j.job.kernel = kernels[k];
                j.job.block = cs::BlockId(0);
                j.job.machine = &suite->machines[cls];
                j.job.pipelined = pipelined;
                suite->jobs.push_back(std::move(j));
            }
        }
    }
    suite->goldens = loadGoldens(options.root);
    unsigned workers = cs::PipelineConfig::resolvedIiWorkers(
        cs::PipelineConfig::kAutoIiWorkers);
    if (workers > 0) {
        suite->iiPool = std::make_unique<cs::ThreadPool>(workers);
        suite->ii.pool = suite->iiPool.get();
    }
    return suite;
}

/** Cycles per iteration of a produced schedule: II or block length. */
int
cyclesPerIteration(const SuiteJob &j, int ii, int length)
{
    return j.pipelined ? ii : length;
}

/** Fingerprint check against the read-only golden table. */
bool
checkListing(const Suite &suite, const SuiteJob &j, bool success,
             int ii, const std::string &listing, Report &report)
{
    auto it = suite.goldens.find(j.goldenKey);
    if (it == suite.goldens.end()) {
        report.fail(j.goldenKey + ": no golden fingerprint");
        return false;
    }
    const Golden &g = it->second;
    if (!success || listing.size() != g.bytes ||
        fnv1a(listing) != g.hash || (j.pipelined && ii != g.ii)) {
        report.fail(j.goldenKey + ": listing differs from the golden");
        return false;
    }
    return true;
}

/** Simulate the produced schedule against the scalar reference. */
bool
checkSimulation(const Suite &suite, const SuiteJob &j,
                const cs::ScheduleResult &sched, Report &report)
{
    const cs::KernelSpec &spec = *suite.specs[j.kernel];
    cs::SimResult sim;
    {
        PB_SPAN(Sim);
        sim = cs::simulateBlock(sched.kernel, suite.machines[j.cls],
                                sched.schedule, suite.inputs[j.kernel],
                                spec.testIterations);
    }
    const cs::MemoryImage &expected = suite.expected[j.kernel];
    bool match = sim.ok;
    for (const auto &[address, word] : expected.cells())
        match = match && sim.memory.load(address) == word;
    for (const auto &[address, word] : sim.memory.cells())
        match = match && expected.load(address) == word;
    if (!match)
        report.fail(j.goldenKey + ": simulation differs from reference");
    return match;
}

std::vector<std::size_t>
seededOrder(std::size_t n, std::uint64_t seed)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

} // namespace

void
runCompileSuite(const Options &options, Report &report)
{
    // Set-up is timed in blocks spread over the run, each followed by
    // a reading of the box's speed (referenceCpuMs, README.md): on a
    // shared box a few-ms set-up reads up to 1.6x slower in some
    // seconds than in others, and one block would land in one phase.
    std::unique_ptr<Suite> suite;
    std::vector<double> setupS, references;
    auto timeSetups = [&] {
        for (int rep = 0; rep < kSetupReps; ++rep) {
            suite.reset();
            double cpu0 = threadCpuMs();
            suite = buildSuite(options);
            setupS.push_back((threadCpuMs() - cpu0) / 1000.0);
        }
        references.push_back(referenceCpuMs(options.nproc));
    };
    timeSetups();
    const std::size_t n = suite->jobs.size();
    report.requireOps("compile_suite jobs", n);

    // Per job and pass: critical-path CPU (the metric), wall time and
    // process CPU (notes).
    std::vector<std::vector<double>> paths(n), walls(n), cpus(n);
    std::vector<int> cycles(n, 0);
    double peakRss = 0.0;
    int passes = 0;
    auto start = Clock::now();
    for (; passes == 0 || msSince(start) < options.seconds * 1000.0;
         ++passes) {
        for (std::size_t idx :
             seededOrder(n, subSeed(options.seed, 2000 + passes))) {
            const SuiteJob &j = suite->jobs[idx];
            // Cold: the II search's adaptive ordering must not learn
            // from earlier jobs or passes.
            cs::PortfolioStats::global().clear();
            std::map<int, double> workers0 = otherThreadsCpuMs();
            double process0 = processCpuMs();
            double caller0 = threadCpuMs();
            auto t0 = Clock::now();
            cs::JobResult r = cs::runScheduleJob(j.job, suite->searchFor(j));
            walls[idx].push_back(msSince(t0));
            double callerMs = threadCpuMs() - caller0;
            cpus[idx].push_back(processCpuMs() - process0);
            paths[idx].push_back(
                callerMs + busiestThreadMs(workers0, otherThreadsCpuMs()));

            // Checks run outside the timed region.
            report.attempted();
            bool ok = r.success && r.verifierErrors.empty();
            if (!ok)
                report.fail(j.goldenKey + ": failed or invalid schedule");
            ok = ok && checkListing(*suite, j, r.success, r.ii, r.listing,
                                    report);
            if (ok && passes == 0)
                checkSimulation(*suite, j, r.sched, report);
            cycles[idx] = cyclesPerIteration(j, r.ii, r.length);
        }
        // After one pass, so the figure does not depend on how many
        // passes fit in the run.
        if (passes == 0)
            peakRss = peakRssMb();
        timeSetups();
    }

    // The metrics are critical-path CPU time scaled to the reference
    // speed (README.md): on this shared box wall time swung by up to 2x
    // with foreign load and CPU time with the host's speed, while a
    // serialised II search still shows, because one thread then runs
    // every attempt. Wall and process CPU time are notes, unscaled.
    const double scale = kReferenceMs / median(references);
    for (std::vector<double> &samples : paths) {
        for (double &ms : samples)
            ms *= scale;
    }
    // Per job: median over passes.
    auto summarize = [&](const std::vector<std::vector<double>> &samples,
                         std::array<double, kNumClasses> *perClass,
                         double *suiteMs, std::vector<double> *all) {
        std::array<std::vector<double>, kNumClasses> jobs;
        *suiteMs = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            double jobMs = median(samples[i]);
            jobs[suite->jobs[i].cls].push_back(jobMs);
            *suiteMs += jobMs;
            all->insert(all->end(), samples[i].begin(), samples[i].end());
        }
        for (int cls = 0; cls < kNumClasses; ++cls) {
            report.requireOps(std::string("compile_suite class ") +
                                  kClassIds[cls],
                              jobs[cls].size());
            (*perClass)[cls] = cs::geometricMean(jobs[cls]);
        }
    };
    std::array<double, kNumClasses> pathClass{}, wallClass{}, cpuClass{};
    double pathSuiteMs = 0.0, wallSuiteMs = 0.0, cpuSuiteMs = 0.0;
    std::vector<double> pathAll, wallAll, cpuAll;
    summarize(paths, &pathClass, &pathSuiteMs, &pathAll);
    summarize(walls, &wallClass, &wallSuiteMs, &wallAll);
    summarize(cpus, &cpuClass, &cpuSuiteMs, &cpuAll);
    for (int cls = 0; cls < kNumClasses; ++cls) {
        std::string id = kClassIds[cls];
        report.metric("compile_ms." + id, pathClass[cls], "ms");
        report.note("wall_ms." + id, wallClass[cls]);
        report.note("cpu_ms." + id, cpuClass[cls]);
    }
    report.metric("setup_s", median(setupS) * scale, "s");
    // The suite once, every job at its median (steadier than the
    // median pass when a run holds only a few passes).
    report.metric("jobs_per_s",
                  static_cast<double>(n) / (pathSuiteMs / 1000.0), "1/s");
    report.metric("p50_ms", median(pathAll), "ms");
    report.metric("peak_rss_mb", peakRss, "MB");
    report.note("p99_ms", quantile(pathAll, 0.99));
    report.note("suite_s", pathSuiteMs / 1000.0);
    report.note("wall_suite_s", wallSuiteMs / 1000.0);
    report.note("cpu_suite_s", cpuSuiteMs / 1000.0);
    report.note("wall_p50_ms", median(wallAll));
    report.note("passes", passes);
    report.note("reference_ms", median(references));
    report.note("samples", static_cast<double>(pathAll.size()));
    report.note("code_cycles",
                std::accumulate(cycles.begin(), cycles.end(), 0.0));
}

void
traceCompileSuite(const Options &options, Report &report)
{
    // Build costs of the two input layers, timed from outside.
    std::vector<double> machineMs, kernelMs;
    for (int rep = 0; rep < 5; ++rep) {
        auto t0 = Clock::now();
        for (int cls = 0; cls < kNumClasses; ++cls) {
            PB_SPAN(Machine);
            cs::Machine m = buildPaperMachine(cls);
        }
        machineMs.push_back(msSince(t0));
        t0 = Clock::now();
        for (const cs::KernelSpec &spec : cs::allKernels()) {
            PB_SPAN(Kernels);
            cs::Kernel k = spec.build();
        }
        kernelMs.push_back(msSince(t0));
    }
    report.metric("machine.build_ms", median(machineMs), "ms");
    report.metric("kernels.build_ms", median(kernelMs), "ms");

    std::unique_ptr<Suite> suite = buildSuite(options);
    const std::size_t n = suite->jobs.size();

    // (a) Block jobs, untraced: runScheduleJob against the sum of its
    // four core layers, and the program tracer's overhead.
    constexpr int kReps = 3;
    std::array<double, kNumClasses> overheadMs{};
    std::array<int, kNumClasses> overheadJobs{};
    double plainMs = 0.0, tracedMs = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        for (const SuiteJob &j : suite->jobs) {
            if (j.pipelined)
                continue;
            const cs::Machine &machine = suite->machines[j.cls];
            report.attempted();
            auto t0 = Clock::now();
            cs::JobResult whole;
            {
                PB_SPAN(Pipeline);
                whole = cs::runScheduleJob(j.job);
            }
            double jobMs = msSince(t0);
            t0 = Clock::now();
            {
                PB_SPAN(Core);
                cs::BlockSchedulingContext ctx(j.job.kernel, j.job.block,
                                               machine);
                cs::ScheduleResult sched = cs::scheduleBlock(ctx);
                auto errors = cs::validateSchedule(sched.kernel, machine,
                                                   sched.schedule);
                std::string listing = cs::exportListing(
                    sched.kernel, machine, sched.schedule);
                if (!errors.empty() || listing != whole.listing)
                    report.fail(j.goldenKey + ": layered run differs");
            }
            double partsMs = msSince(t0);
            overheadMs[j.cls] += jobMs - partsMs;
            ++overheadJobs[j.cls];

            cs::trace::clear();
            cs::trace::setEnabled(true);
            t0 = Clock::now();
            {
                PB_SPAN(Pipeline);
                cs::runScheduleJob(j.job);
            }
            tracedMs += msSince(t0);
            cs::trace::setEnabled(false);
            plainMs += jobMs;
        }
    }
    cs::trace::clear();
    for (int cls = 0; cls < kNumClasses; ++cls) {
        report.requireOps(std::string("overhead ") + kClassIds[cls],
                          overheadJobs[cls]);
        report.metric(std::string("pipeline.job_overhead_ms.") +
                          kClassIds[cls],
                      overheadMs[cls] / overheadJobs[cls], "ms");
    }
    report.metric("trace.overhead_ratio", tracedMs / plainMs - 1.0,
                  "ratio");

    // (b) All 80 jobs once, layer by layer, with the program's own
    // spans on and drained per job.
    std::array<double, kNumClasses> contextMs{}, scheduleMs{};
    double validateMs = 0.0, exportMs = 0.0;
    double permMs = 0.0, copyMs = 0.0, opMs = 0.0;
    cs::CounterSet stats;
    double codeCycles = 0.0;
    std::uint64_t pipelinedJobs = 0, fullRings = 0;
    for (std::size_t idx : seededOrder(n, subSeed(options.seed, 3000))) {
        const SuiteJob &j = suite->jobs[idx];
        const cs::Machine &machine = suite->machines[j.cls];
        report.attempted();
        cs::PortfolioStats::global().clear();
        cs::trace::clear();
        cs::trace::setEnabled(true);
        auto t0 = Clock::now();
        std::unique_ptr<cs::BlockSchedulingContext> ctx;
        {
            PB_SPAN(Core);
            ctx = std::make_unique<cs::BlockSchedulingContext>(
                j.job.kernel, j.job.block, machine);
        }
        contextMs[j.cls] += msSince(t0);
        t0 = Clock::now();
        cs::ScheduleResult sched;
        bool success = false;
        int ii = 0;
        if (j.pipelined) {
            PB_SPAN(Pipeline);
            cs::PipelineResult pipe = cs::schedulePipelinedParallel(
                *ctx, j.job.options, j.job.maxIiSlack, suite->ii);
            success = pipe.success;
            ii = pipe.ii;
            sched = std::move(pipe.inner);
            ++pipelinedJobs;
        } else {
            PB_SPAN(Core);
            sched = cs::scheduleBlock(*ctx, j.job.options);
            success = sched.success;
        }
        scheduleMs[j.cls] += msSince(t0);
        cs::trace::setEnabled(false);

        std::vector<cs::trace::Event> events;
        {
            PB_SPAN(Support);
            events = cs::trace::drain();
        }
        std::map<std::uint32_t, std::size_t> perThread;
        for (const cs::trace::Event &e : events)
            ++perThread[e.tid];
        for (const auto &[tid, count] : perThread)
            fullRings += count >= cs::trace::threadBufferCapacity();
        for (const cs::trace::SpanStats &s : cs::trace::aggregateSpans(events)) {
            if (s.name.rfind("perm_search", 0) == 0)
                permMs += s.totalMs;
            else if (s.name == "copy_insertion")
                copyMs += s.totalMs;
            else if (s.name == "schedule_op")
                opMs += s.totalMs;
        }

        t0 = Clock::now();
        std::vector<std::string> errors;
        {
            PB_SPAN(Core);
            errors = cs::validateSchedule(sched.kernel, machine,
                                          sched.schedule);
        }
        validateMs += msSince(t0);
        t0 = Clock::now();
        std::string listing;
        if (success) {
            PB_SPAN(Core);
            listing = cs::exportListing(sched.kernel, machine,
                                        sched.schedule);
        }
        exportMs += msSince(t0);

        if (!success || !errors.empty())
            report.fail(j.goldenKey + ": failed or invalid schedule");
        else if (checkListing(*suite, j, success, ii, listing, report))
            checkSimulation(*suite, j, sched, report);
        stats.merge(sched.stats);
        codeCycles += cyclesPerIteration(
            j, ii, success ? sched.schedule.length(sched.kernel, machine)
                           : 0);
    }
    cs::trace::clear();

    for (int cls = 0; cls < kNumClasses; ++cls) {
        std::string id = kClassIds[cls];
        report.metric("core.context_ms." + id, contextMs[cls], "ms");
        report.metric("core.schedule_ms." + id, scheduleMs[cls], "ms");
    }
    report.metric("core.validate_ms", validateMs, "ms");
    report.metric("core.export_ms", exportMs, "ms");
    report.metric("core.perm_search_ms", permMs, "ms");
    report.metric("core.copy_insertion_ms", copyMs, "ms");
    report.metric("core.schedule_op_ms", opMs, "ms");
    auto count = [&](const char *name) {
        return static_cast<double>(stats.get(name));
    };
    report.metric("core.placement_attempts", count("placement_attempts"),
                  "count");
    report.metric("core.dfs_nodes", count("dfs_nodes"), "count");
    report.metric("core.perm_backtracks", count("perm_backtracks"),
                  "count");
    report.metric("core.copies_inserted", count("copies_inserted"),
                  "count");
    report.metric("core.backjumps", count("backjumps"), "count");
    report.requireOps("no-good probes", stats.get("nogood_probes"));
    report.metric("core.nogood_hit_ratio",
                  count("nogood_hits") / count("nogood_probes"), "ratio");
    report.requireOps("pipelined jobs", pipelinedJobs);
    double launched = count("ii_search.attempts_launched");
    report.requireOps("II attempts", static_cast<std::uint64_t>(launched));
    report.metric("ii.attempts", launched, "count");
    report.metric("ii.useful_ratio",
                  1.0 - count("ii_search.attempts_wasted") / launched,
                  "ratio");
    report.metric("ii.cancel_latency_us",
                  count("ii_search.cancel_latency_us"), "us");
    report.metric("code_cycles", codeCycles, "cycles");
    report.note("trace_rings_full", static_cast<double>(fullRings));
}

} // namespace pb
