/**
 * @file
 * cs_serve request-latency benchmark: an in-process ScheduleServer on
 * a temporary Unix-domain socket, driven open-loop — requests are
 * launched on a fixed arrival schedule regardless of completions, so
 * queueing delay under load shows up in the numbers instead of being
 * hidden by a closed feedback loop. Each request runs on its own
 * client connection (the protocol multiplexes per connection, but a
 * fresh connection per request measures the full serve path).
 *
 * Four phases per repetition, fresh servers each repetition:
 *
 *   cold          - every job is distinct (kernel x maxDelay variants),
 *                   so each request pays real scheduling work
 *   warm          - the identical arrival schedule again, answered by
 *                   the reader-thread fast path (DESIGN.md §5h)
 *   warm_dispatch - the same warm pass against a server with the fast
 *                   path disabled: every hit pays the pipeline queue
 *                   hop (the A/B for the fast path)
 *   warm_tcp      - the warm pass over the TCP listener instead of the
 *                   Unix socket (transport A/B)
 *
 * A second section measures restart-to-first-warm-hit against the
 * persistent cache directly, as a function of cache size: open a
 * populated shard directory via its index footer (O(1) in records)
 * and via the fallback full scan (O(n)), then time the first disk
 * hit.
 *
 * A third section is the telemetry-overhead A/B: the warm fast-path
 * pass with the JSONL sampler (support/telemetry.hpp) OFF and then ON
 * at a fast interval, same server. The sampler only snapshots
 * counters and histograms off the hot path, so warm p50 must not
 * move; perf_smoke.py gates ON within 2% of OFF.
 *
 * --json emits every section in the capture bench/run_perf.sh stores
 * under "serve_latency" / "serve_telemetry" in BENCH_sched.json;
 * --restart-only / --latency-only / --telemetry-only select one
 * (perf_smoke.py gates the restart and telemetry sections).
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "kernels/kernels.hpp"
#include "pipeline/persistent_cache.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "support/logging.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace {

using namespace cs;

/** Distinct one-job sets: every Table-1 kernel x maxDelay variants on
 *  the central machine, block mode. */
std::vector<serve::JobSet>
buildJobSets(int delayVariants)
{
    std::vector<serve::JobSet> sets;
    for (const KernelSpec &spec : allKernels()) {
        for (int v = 0; v < delayVariants; ++v) {
            serve::JobSet set;
            set.machines.push_back(makeCentral());
            set.kernels.push_back(spec.build());
            serve::JobDescription job;
            job.label = spec.name + "/d" + std::to_string(v);
            job.pipelined = false;
            job.options.maxDelay = 2048 - v;
            set.jobs.push_back(std::move(job));
            sets.push_back(std::move(set));
        }
    }
    return sets;
}

/**
 * One open-loop pass: request i is due at start + i * arrival; its
 * latency is measured from that due time, so a request stuck behind a
 * slow predecessor is charged the wait. A non-empty @p tcpAddress
 * routes the pass over TCP instead of the Unix socket.
 */
std::vector<double>
runPhase(const std::string &socketPath, const std::string &tcpAddress,
         const std::vector<serve::JobSet> &sets, double arrivalMs)
{
    std::vector<double> latencies(sets.size(), -1.0);
    std::vector<std::thread> threads;
    auto start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < sets.size(); ++i) {
        auto due = start + std::chrono::duration_cast<
                               std::chrono::steady_clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   arrivalMs * static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        threads.emplace_back([&, i, due] {
            serve::ScheduleClient client;
            std::string error;
            bool connected =
                tcpAddress.empty()
                    ? client.connect(socketPath, &error)
                    : client.connectTcp(tcpAddress, &error);
            if (!connected) {
                CS_INFORM("bench_serve_latency: ", error);
                return;
            }
            serve::Response response;
            if (!client.schedule(sets[i], 0, &response, &error) ||
                response.status != serve::ResponseStatus::Ok) {
                CS_INFORM("bench_serve_latency: request failed: ",
                          error.empty() ? response.message : error);
                return;
            }
            auto end = std::chrono::steady_clock::now();
            latencies[i] =
                std::chrono::duration<double, std::milli>(end - due)
                    .count();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::vector<double> ok;
    for (double ms : latencies) {
        CS_ASSERT(ms >= 0.0, "request failed during benchmark");
        ok.push_back(ms);
    }
    return ok;
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, samples.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return samples[lo] + frac * (samples[hi] - samples[lo]);
}

struct PhaseStats
{
    std::size_t requests = 0;
    double p50 = 0.0;
    double p99 = 0.0;
    double maxMs = 0.0;
};

PhaseStats
summarize(const std::vector<double> &samples)
{
    PhaseStats stats;
    stats.requests = samples.size();
    stats.p50 = percentile(samples, 50.0);
    stats.p99 = percentile(samples, 99.0);
    for (double ms : samples)
        stats.maxMs = std::max(stats.maxMs, ms);
    return stats;
}

// ---------------------------------------------------------------------
// Restart-to-first-warm-hit vs cache size (footer vs scan).
// ---------------------------------------------------------------------

struct RestartPoint
{
    std::size_t records = 0;
    std::uintmax_t fileBytes = 0;
    double footerOpenMs = 0.0;
    double footerHitMs = 0.0;
    double scanOpenMs = 0.0;
    double scanHitMs = 0.0;
};

double
elapsedMs(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Time "restart + first disk hit" on a single shard holding @p records
 * entries, once via the index footer and once via the fallback scan
 * (footers stripped first, as after a crash). Best of @p trials so a
 * stray page-cache miss does not masquerade as a complexity change.
 */
RestartPoint
measureRestart(const JobResult &sample, std::size_t records, int trials)
{
    namespace fs = std::filesystem;
    RestartPoint point;
    point.records = records;
    fs::path dir = fs::path("/tmp") /
                   ("cs_bench_restart_" + std::to_string(::getpid()) +
                    "_" + std::to_string(records));
    fs::remove_all(dir);
    fs::create_directories(dir);
    {
        PersistentScheduleCache cache(records, dir.string(), 1);
        for (std::size_t key = 1; key <= records; ++key)
            cache.insert(key, sample);
    } // clean close appends the index footer
    for (const auto &entry : fs::directory_iterator(dir))
        point.fileBytes += fs::file_size(entry.path());
    std::uint64_t probe = records / 2 + 1;

    point.footerOpenMs = 1e18;
    point.footerHitMs = 1e18;
    for (int t = 0; t < trials; ++t) {
        auto t0 = std::chrono::steady_clock::now();
        PersistentScheduleCache cache(4, dir.string(), 1);
        double openMs = elapsedMs(t0);
        auto t1 = std::chrono::steady_clock::now();
        bool hit = cache.lookup(probe).has_value();
        double hitMs = elapsedMs(t1);
        CS_ASSERT(hit, "footer-open lookup missed");
        CS_ASSERT(cache.diskStats().footerLoads == 1,
                  "expected a footer load");
        point.footerOpenMs = std::min(point.footerOpenMs, openMs);
        point.footerHitMs = std::min(point.footerHitMs, hitMs);
    }

    point.scanOpenMs = 1e18;
    point.scanHitMs = 1e18;
    for (int t = 0; t < trials; ++t) {
        // Each trial's clean close restores the footer; strip it again
        // so every trial really pays the O(n) crash-recovery scan.
        PersistentScheduleCache::stripIndexFooters(dir.string());
        auto t0 = std::chrono::steady_clock::now();
        PersistentScheduleCache cache(4, dir.string(), 1);
        double openMs = elapsedMs(t0);
        auto t1 = std::chrono::steady_clock::now();
        bool hit = cache.lookup(probe).has_value();
        double hitMs = elapsedMs(t1);
        CS_ASSERT(hit, "scan-open lookup missed");
        CS_ASSERT(cache.diskStats().scanLoads == 1,
                  "expected a scan load");
        point.scanOpenMs = std::min(point.scanOpenMs, openMs);
        point.scanHitMs = std::min(point.scanHitMs, hitMs);
    }
    fs::remove_all(dir);
    return point;
}

std::vector<RestartPoint>
runRestartBench(int trials)
{
    setVerboseLogging(false);
    static Machine machine = makeCentral();
    ScheduleJob job;
    job.label = "restart-sample";
    job.kernel = kernelByName("DCT").build();
    job.block = BlockId(0);
    job.machine = &machine;
    job.pipelined = false;
    JobResult sample = runScheduleJob(job);
    CS_ASSERT(sample.success, "sample job failed");

    std::vector<RestartPoint> points;
    for (std::size_t records : {std::size_t(128), std::size_t(512),
                                std::size_t(2048)})
        points.push_back(measureRestart(sample, records, trials));
    return points;
}

// ---------------------------------------------------------------------
// Telemetry-overhead A/B: warm fast-path pass, sampler OFF vs ON.
// ---------------------------------------------------------------------

struct TelemetryAb
{
    PhaseStats off;
    PhaseStats on;
    unsigned samplerIntervalMs = 25;
};

TelemetryAb
runTelemetryBench(int reps, double arrivalMs)
{
    namespace fs = std::filesystem;
    TelemetryAb ab;
    std::vector<serve::JobSet> sets = buildJobSets(4);
    std::vector<double> off, on;
    for (int rep = 0; rep < reps; ++rep) {
        std::string tag = std::to_string(::getpid()) + "_tel" +
                          std::to_string(rep);
        serve::ServerConfig config;
        config.socketPath = "/tmp/cs_bench_serve_" + tag + ".sock";
        config.workerThreads = 2;
        config.cacheCapacity = 2 * sets.size();
        config.maxInFlight = sets.size();
        serve::ScheduleServer server(config);
        CS_ASSERT(server.start(), "telemetry server failed to start");

        // One cold pass to fill the cache, then the measured pair on
        // the same warm server: OFF first, ON second, so any drift
        // from OS warm-up favors OFF and cannot hide sampler cost.
        (void)runPhase(config.socketPath, "", sets, arrivalMs);
        std::vector<double> o =
            runPhase(config.socketPath, "", sets, arrivalMs);
        off.insert(off.end(), o.begin(), o.end());

        fs::path telemetryPath =
            fs::path("/tmp") / ("cs_bench_telemetry_" + tag + ".jsonl");
        TelemetrySampler sampler;
        TelemetryConfig telemetry;
        telemetry.path = telemetryPath.string();
        telemetry.intervalMs = ab.samplerIntervalMs;
        CS_ASSERT(sampler.start(telemetry,
                                [&server] { return server.snapshot(); }),
                  "sampler failed to start");
        std::vector<double> n =
            runPhase(config.socketPath, "", sets, arrivalMs);
        on.insert(on.end(), n.begin(), n.end());
        sampler.stop();
        fs::remove(telemetryPath);
        server.stop();
    }
    ab.off = summarize(off);
    ab.on = summarize(on);
    return ab;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerboseLogging(false);
    bool json = false;
    bool latency = true;
    bool restart = true;
    bool telemetry = true;
    int reps = 3;
    double arrivalMs = 5.0;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--reps" && i + 1 < argc) {
            reps = std::atoi(argv[++i]);
        } else if (arg == "--arrival-ms" && i + 1 < argc) {
            arrivalMs = std::atof(argv[++i]);
        } else if (arg == "--restart-only") {
            latency = false;
            telemetry = false;
        } else if (arg == "--latency-only") {
            restart = false;
            telemetry = false;
        } else if (arg == "--telemetry-only") {
            latency = false;
            restart = false;
        } else {
            std::cerr << "usage: bench_serve_latency [--json] "
                         "[--reps N] [--arrival-ms MS] "
                         "[--restart-only] [--latency-only] "
                         "[--telemetry-only]\n";
            return 2;
        }
    }

    std::vector<double> cold;
    std::vector<double> warm;
    std::vector<double> warmDispatch;
    std::vector<double> warmTcp;
    if (latency) {
        std::vector<serve::JobSet> sets = buildJobSets(4);
        for (int rep = 0; rep < reps; ++rep) {
            // Fresh server (and cache) per repetition so every cold
            // pass really is cold.
            std::string tag = std::to_string(::getpid()) + "_" +
                              std::to_string(rep);
            serve::ServerConfig config;
            config.socketPath = "/tmp/cs_bench_serve_" + tag + ".sock";
            config.listenTcp = "127.0.0.1:0";
            config.workerThreads = 2;
            config.cacheCapacity = 2 * sets.size();
            config.maxInFlight = sets.size();
            serve::ScheduleServer server(config);
            CS_ASSERT(server.start(), "server failed to start");
            std::string tcpAddress =
                "127.0.0.1:" + std::to_string(server.boundTcpPort());

            std::vector<double> c =
                runPhase(config.socketPath, "", sets, arrivalMs);
            cold.insert(cold.end(), c.begin(), c.end());
            std::vector<double> w =
                runPhase(config.socketPath, "", sets, arrivalMs);
            warm.insert(warm.end(), w.begin(), w.end());
            std::vector<double> wt =
                runPhase("", tcpAddress, sets, arrivalMs);
            warmTcp.insert(warmTcp.end(), wt.begin(), wt.end());
            server.stop();

            // The A/B server: identical config, fast path disabled,
            // warmed by one throwaway cold pass.
            serve::ServerConfig dispatch = config;
            dispatch.socketPath =
                "/tmp/cs_bench_serve_" + tag + "_nofp.sock";
            dispatch.listenTcp.clear();
            dispatch.readerFastPath = false;
            serve::ScheduleServer dispatchServer(dispatch);
            CS_ASSERT(dispatchServer.start(),
                      "dispatch server failed to start");
            (void)runPhase(dispatch.socketPath, "", sets, arrivalMs);
            std::vector<double> wd =
                runPhase(dispatch.socketPath, "", sets, arrivalMs);
            warmDispatch.insert(warmDispatch.end(), wd.begin(),
                                wd.end());
            dispatchServer.stop();
        }
    }
    PhaseStats coldStats = summarize(cold);
    PhaseStats warmStats = summarize(warm);
    PhaseStats dispatchStats = summarize(warmDispatch);
    PhaseStats tcpStats = summarize(warmTcp);

    std::vector<RestartPoint> points;
    if (restart)
        points = runRestartBench(std::max(reps, 2));

    TelemetryAb ab;
    if (telemetry)
        ab = runTelemetryBench(reps, arrivalMs);

    if (json) {
        auto entry = [&](const char *phase, const PhaseStats &stats) {
            return std::string("{\"phase\":\"") + phase +
                   "\",\"requests\":" +
                   std::to_string(stats.requests) +
                   ",\"arrival_ms\":" + TextTable::num(arrivalMs, 2) +
                   ",\"p50_ms\":" + TextTable::num(stats.p50, 3) +
                   ",\"p99_ms\":" + TextTable::num(stats.p99, 3) +
                   ",\"max_ms\":" + TextTable::num(stats.maxMs, 3) +
                   "}";
        };
        std::cout << "{\"bench\":\"serve_latency\",\"entries\":[";
        if (latency)
            std::cout << entry("cold", coldStats) << ","
                      << entry("warm", warmStats) << ","
                      << entry("warm_dispatch", dispatchStats) << ","
                      << entry("warm_tcp", tcpStats);
        std::cout << "],\"restart\":[";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const RestartPoint &p = points[i];
            std::cout
                << (i ? "," : "") << "{\"records\":" << p.records
                << ",\"file_bytes\":" << p.fileBytes
                << ",\"footer_open_ms\":"
                << TextTable::num(p.footerOpenMs, 4)
                << ",\"footer_first_hit_ms\":"
                << TextTable::num(p.footerHitMs, 4)
                << ",\"scan_open_ms\":"
                << TextTable::num(p.scanOpenMs, 4)
                << ",\"scan_first_hit_ms\":"
                << TextTable::num(p.scanHitMs, 4) << "}";
        }
        std::cout << "]";
        if (telemetry) {
            std::cout << ",\"telemetry\":{\"requests\":"
                      << ab.off.requests << ",\"sampler_interval_ms\":"
                      << ab.samplerIntervalMs << ",\"p50_off_ms\":"
                      << TextTable::num(ab.off.p50, 3)
                      << ",\"p99_off_ms\":"
                      << TextTable::num(ab.off.p99, 3)
                      << ",\"p50_on_ms\":"
                      << TextTable::num(ab.on.p50, 3)
                      << ",\"p99_on_ms\":"
                      << TextTable::num(ab.on.p99, 3) << "}";
        }
        std::cout << "}\n";
        return 0;
    }

    if (latency) {
        printBanner(std::cout,
                    "cs_serve open-loop latency: " +
                        std::to_string(buildJobSets(4).size()) +
                        " distinct jobs/pass, arrival every " +
                        TextTable::num(arrivalMs, 1) + " ms, " +
                        std::to_string(reps) + " reps");
        TextTable table(
            {"phase", "requests", "p50 ms", "p99 ms", "max ms"});
        auto row = [&](const char *phase, const PhaseStats &stats) {
            table.addRow({phase, std::to_string(stats.requests),
                          TextTable::num(stats.p50, 3),
                          TextTable::num(stats.p99, 3),
                          TextTable::num(stats.maxMs, 3)});
        };
        row("cold", coldStats);
        row("warm", warmStats);
        row("warm_dispatch", dispatchStats);
        row("warm_tcp", tcpStats);
        table.print(std::cout);
    }
    if (restart) {
        printBanner(std::cout,
                    "restart to first warm hit: footer (O(1)) vs "
                    "scan (O(n)), one shard");
        TextTable table({"records", "file KiB", "footer open ms",
                         "footer hit ms", "scan open ms",
                         "scan hit ms"});
        for (const RestartPoint &p : points)
            table.addRow(
                {std::to_string(p.records),
                 std::to_string(p.fileBytes / 1024),
                 TextTable::num(p.footerOpenMs, 4),
                 TextTable::num(p.footerHitMs, 4),
                 TextTable::num(p.scanOpenMs, 4),
                 TextTable::num(p.scanHitMs, 4)});
        table.print(std::cout);
    }
    if (telemetry) {
        printBanner(std::cout,
                    "telemetry-overhead A/B: warm fast-path pass, "
                    "sampler off vs on (" +
                        std::to_string(ab.samplerIntervalMs) +
                        " ms interval)");
        TextTable table(
            {"sampler", "requests", "p50 ms", "p99 ms", "max ms"});
        auto row = [&](const char *label, const PhaseStats &stats) {
            table.addRow({label, std::to_string(stats.requests),
                          TextTable::num(stats.p50, 3),
                          TextTable::num(stats.p99, 3),
                          TextTable::num(stats.maxMs, 3)});
        };
        row("off", ab.off);
        row("on", ab.on);
        table.print(std::cout);
    }
    return 0;
}
