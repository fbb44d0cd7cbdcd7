/**
 * @file
 * The cs_serve daemon: scheduling as a service over a Unix-domain
 * socket (serve/server.hpp). Runs until SIGTERM/SIGINT, then drains
 * gracefully — in-flight jobs finish and reply, new requests get
 * ShuttingDown.
 *
 *   cs_serve [--socket PATH] [--listen-tcp HOST:PORT] [--threads N]
 *            [--cache N] [--cache-dir DIR] [--cache-shards N]
 *            [--ownership-retry-ms N] [--max-inflight N]
 *            [--ii-workers N] [--no-fast-path] [--telemetry FILE]
 *            [--telemetry-interval-ms N]
 *
 *   --socket PATH     Unix-domain socket to listen on
 *   --listen-tcp H:P  TCP listener (same protocol; port 0 = ephemeral)
 *                     — at least one of --socket/--listen-tcp required
 *   --threads N       pipeline worker threads (default: hw concurrency)
 *   --cache N         memory-tier cache entries (default 1024)
 *   --cache-dir DIR   persistent cache directory; restarts start warm
 *                     (multiple daemons may share one directory: shard
 *                     ownership is arbitrated per-file with flock)
 *   --cache-shards N  shard files for the persistent tier (default 8)
 *   --ownership-retry-ms N
 *                     retry interval for adopting orphaned read-only
 *                     shards after their owning daemon exits (default
 *                     1000; 0 never retries, preserving the read-only
 *                     fallback of the non-winning daemon for good)
 *   --max-inflight N  admission bound before RejectedOverload (default 64)
 *   --ii-workers N    dedicated speculative II-search workers
 *                     (default 0 = serial sweep; "auto" sizes to the
 *                     hardware, serial on a single core)
 *   --no-fast-path    disable the reader-thread warm-hit fast path
 *                     (for A/B latency measurements)
 *   --telemetry FILE  append one JSONL telemetry snapshot per interval
 *                     (counters + deltas, RSS, latency histograms,
 *                     occupancy gauges — support/telemetry.hpp); the
 *                     final line lands on drain. `cs_client watch`
 *                     streams the same lines over the wire
 *   --telemetry-interval-ms N
 *                     sample period (default 250)
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "serve/server.hpp"
#include "support/logging.hpp"
#include "support/telemetry.hpp"

namespace {

std::atomic<bool> g_stop{false};

void
onSignal(int)
{
    g_stop.store(true);
}

void
usage(std::ostream &os)
{
    os << "usage: cs_serve [--socket PATH] [--listen-tcp HOST:PORT]\n"
          "                [--threads N] [--cache N] [--cache-dir DIR]\n"
          "                [--cache-shards N] [--ownership-retry-ms N]\n"
          "                [--max-inflight N] [--ii-workers N]\n"
          "                [--no-fast-path] [--telemetry FILE]\n"
          "                [--telemetry-interval-ms N]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cs;
    setVerboseLogging(true);

    serve::ServerConfig config;
    TelemetryConfig telemetry;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "cs_serve: " << flag << " needs a value\n";
                usage(std::cerr);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            config.socketPath = value("--socket");
        } else if (arg == "--listen-tcp") {
            config.listenTcp = value("--listen-tcp");
        } else if (arg == "--no-fast-path") {
            config.readerFastPath = false;
        } else if (arg == "--threads") {
            config.workerThreads = static_cast<unsigned>(
                std::atoi(value("--threads").c_str()));
        } else if (arg == "--cache") {
            config.cacheCapacity = static_cast<std::size_t>(
                std::atoi(value("--cache").c_str()));
        } else if (arg == "--cache-dir") {
            config.cacheDirectory = value("--cache-dir");
        } else if (arg == "--cache-shards") {
            config.cacheShards =
                std::atoi(value("--cache-shards").c_str());
        } else if (arg == "--ownership-retry-ms") {
            config.ownershipRetryMs =
                std::atoi(value("--ownership-retry-ms").c_str());
        } else if (arg == "--max-inflight") {
            config.maxInFlight = static_cast<std::size_t>(
                std::atoi(value("--max-inflight").c_str()));
        } else if (arg == "--telemetry") {
            telemetry.path = value("--telemetry");
        } else if (arg.rfind("--telemetry=", 0) == 0) {
            // =-joined form, matching cs_batch / cs_sweep.
            telemetry.path = arg.substr(std::string("--telemetry=").size());
        } else if (arg == "--telemetry-interval-ms") {
            telemetry.intervalMs = static_cast<unsigned>(
                std::atoi(value("--telemetry-interval-ms").c_str()));
        } else if (arg.rfind("--telemetry-interval-ms=", 0) == 0) {
            telemetry.intervalMs = static_cast<unsigned>(std::atoi(
                arg.substr(std::string("--telemetry-interval-ms=").size())
                    .c_str()));
        } else if (arg == "--ii-workers") {
            std::string v = value("--ii-workers");
            config.iiSearchWorkers =
                v == "auto" ? PipelineConfig::kAutoIiWorkers
                            : static_cast<unsigned>(
                                  std::atoi(v.c_str()));
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else {
            std::cerr << "cs_serve: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if (config.socketPath.empty() && config.listenTcp.empty()) {
        usage(std::cerr);
        return 2;
    }

    serve::ScheduleServer server(config);
    if (!server.start())
        return 1;

    TelemetrySampler sampler;
    if (!telemetry.path.empty()) {
        bool ok = sampler.start(
            telemetry, [&server] { return server.snapshot(); });
        if (!ok) {
            std::cerr << "cs_serve: cannot write telemetry file '"
                      << telemetry.path << "'\n";
            server.stop();
            return 2;
        }
        CS_INFORM("cs_serve: telemetry -> ", telemetry.path, " every ",
                  telemetry.intervalMs, " ms");
    }

    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    while (!g_stop.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(50));

    std::cout << "cs_serve: draining...\n";
    server.stop();
    // Stop after the drain: the final JSONL line reflects the fully
    // drained end state.
    sampler.stop();
    std::cout << server.statsJson() << "\n";
    return 0;
}
