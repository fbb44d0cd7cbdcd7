/**
 * @file
 * Command-line client for cs_serve.
 *
 *   cs_client --socket PATH ping
 *   cs_client --tcp HOST:PORT ping
 *   cs_client (--socket PATH | --tcp HOST:PORT) stats
 *   cs_client (--socket PATH | --tcp HOST:PORT) schedule --jobs FILE
 *             [--deadline MS] [--listings]
 *   cs_client (--socket PATH | --tcp HOST:PORT) watch
 *             [--interval-ms N] [--ticks N] [--raw]
 *
 * "schedule" reads a jobset description (the text format of
 * serve/proto.hpp; see cs_batch --jobs for the same ingestion) and
 * submits each job as one request, printing a summary line per reply.
 * --deadline applies the same relative deadline to every request; a
 * negative value exercises the already-expired fast path.
 *
 * "watch" subscribes to the server's stats stream (protocol v2) and
 * prints one line per tick — req/s and cache hit rate over the tick
 * (from the frame's deltas and t_ms), p50/p99 latency, in-flight
 * depth, RSS, shard growth — until interrupted (or after --ticks N
 * frames). --raw prints the frames verbatim instead, one per line:
 * each is a telemetry line (support/telemetry.hpp), the same schema
 * as `cs_serve --telemetry` writes.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "serve/client.hpp"
#include "support/logging.hpp"

namespace {

void
usage(std::ostream &os)
{
    os << "usage: cs_client (--socket PATH | --tcp HOST:PORT) ping\n"
          "       cs_client (--socket PATH | --tcp HOST:PORT) stats\n"
          "       cs_client (--socket PATH | --tcp HOST:PORT)\n"
          "                 schedule --jobs FILE\n"
          "                 [--deadline MS] [--listings]\n"
          "       cs_client (--socket PATH | --tcp HOST:PORT) watch\n"
          "                 [--interval-ms N] [--ticks N] [--raw]\n";
}

/**
 * Extract one numeric member of a JSON object ({"key":123,...}). The
 * telemetry lines have numeric leaves and unique keys within each
 * object, so a substring scan is exact here — no JSON library in the
 * repo, none needed.
 */
double
jsonNumber(const std::string &json, const std::string &key)
{
    std::string needle = "\"" + key + "\":";
    std::size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    return std::atof(json.c_str() + pos + needle.size());
}

/** The object text of member @p key ("" when absent). */
std::string
jsonObject(const std::string &json, const std::string &key)
{
    std::string needle = "\"" + key + "\":{";
    std::size_t begin = json.find(needle);
    if (begin == std::string::npos)
        return "";
    begin += needle.size() - 1;
    int depth = 0;
    for (std::size_t i = begin; i < json.size(); ++i) {
        if (json[i] == '{')
            ++depth;
        else if (json[i] == '}' && --depth == 0)
            return json.substr(begin, i - begin + 1);
    }
    return "";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace cs;

    std::string socketPath;
    std::string tcpHostPort;
    std::string command;
    std::string jobsFile;
    std::int64_t deadlineMs = 0;
    bool listings = false;
    std::int64_t intervalMs = 0; // 0 = server default
    int ticks = 0;               // 0 = unbounded
    bool raw = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << "cs_client: " << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--socket") {
            socketPath = value("--socket");
        } else if (arg == "--tcp") {
            tcpHostPort = value("--tcp");
        } else if (arg == "--jobs") {
            jobsFile = value("--jobs");
        } else if (arg == "--deadline") {
            deadlineMs = std::atoll(value("--deadline").c_str());
        } else if (arg == "--listings") {
            listings = true;
        } else if (arg == "--interval-ms") {
            intervalMs = std::atoll(value("--interval-ms").c_str());
        } else if (arg == "--ticks") {
            ticks = std::atoi(value("--ticks").c_str());
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            return 0;
        } else if (arg == "ping" || arg == "stats" ||
                   arg == "schedule" || arg == "watch") {
            command = arg;
        } else {
            std::cerr << "cs_client: unknown argument '" << arg << "'\n";
            usage(std::cerr);
            return 2;
        }
    }
    if ((socketPath.empty() == tcpHostPort.empty()) ||
        command.empty()) {
        usage(std::cerr);
        return 2;
    }

    serve::ScheduleClient client;
    std::string error;
    bool connected = socketPath.empty()
                         ? client.connectTcp(tcpHostPort, &error)
                         : client.connect(socketPath, &error);
    if (!connected) {
        std::cerr << "cs_client: " << error << "\n";
        return 1;
    }

    if (command == "ping") {
        if (!client.ping(&error)) {
            std::cerr << "cs_client: " << error << "\n";
            return 1;
        }
        std::cout << "ok\n";
        return 0;
    }
    if (command == "stats") {
        std::string json;
        if (!client.stats(&json, &error)) {
            std::cerr << "cs_client: " << error << "\n";
            return 1;
        }
        std::cout << json << "\n";
        return 0;
    }
    if (command == "watch") {
        int seen = 0;
        double prevTms = -1.0;
        auto onFrame = [&](const std::string &frame) -> bool {
            if (raw) {
                std::cout << frame << "\n" << std::flush;
            } else {
                // Rates are over the tick: deltas since the previous
                // frame. The first frame's deltas are the totals so far
                // and it has no previous t_ms, so its req/s reads 0.
                std::string counters = jsonObject(frame, "counters");
                std::string deltas = jsonObject(frame, "deltas");
                std::string gauges = jsonObject(frame, "gauges");
                std::string latency = jsonObject(
                    jsonObject(frame, "histograms"),
                    "serve.latency_us.all");
                double tMs = jsonNumber(frame, "t_ms");
                double reqPerS =
                    prevTms >= 0.0 && tMs > prevTms
                        ? jsonNumber(deltas, "serve.requests") * 1000.0 /
                              (tMs - prevTms)
                        : 0.0;
                prevTms = tMs;
                double jobs = jsonNumber(deltas, "pipeline.jobs");
                double hitPct =
                    jobs > 0.0
                        ? 100.0 * jsonNumber(deltas, "pipeline.cache_hits") /
                              jobs
                        : 0.0;
                char line[256];
                std::snprintf(
                    line, sizeof line,
                    "[%5.0f] %7.1f req/s  p50 %7.3f ms  p99 %7.3f ms"
                    "  hit %5.1f%%  inflight %2.0f  rss %6.1f MB"
                    "  shards %.0f rec / %.1f KB  ctx %.0f  dedup %.0f",
                    jsonNumber(frame, "seq"), reqPerS,
                    jsonNumber(latency, "p50") / 1000.0,
                    jsonNumber(latency, "p99") / 1000.0, hitPct,
                    jsonNumber(gauges, "serve.inflight"),
                    jsonNumber(frame, "rss_kb") / 1024.0,
                    jsonNumber(gauges, "cache.disk.shard_records"),
                    jsonNumber(gauges, "cache.disk.shard_bytes") / 1024.0,
                    jsonNumber(counters, "context.entries"),
                    jsonNumber(gauges, "pipeline.dedup_inflight"));
                std::cout << line << "\n" << std::flush;
            }
            ++seen;
            return ticks == 0 || seen < ticks;
        };
        if (!client.watch(intervalMs, onFrame, &error)) {
            std::cerr << "cs_client: " << error << "\n";
            return 1;
        }
        return 0;
    }

    // schedule
    if (jobsFile.empty()) {
        std::cerr << "cs_client: schedule needs --jobs FILE\n";
        return 2;
    }
    std::ifstream in(jobsFile);
    if (!in) {
        std::cerr << "cs_client: cannot read '" << jobsFile << "'\n";
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::optional<serve::JobSet> set;
    if (!serve::parseJobSetText(text.str(), &set, &error)) {
        std::cerr << "cs_client: " << jobsFile << ": " << error << "\n";
        return 1;
    }

    int failures = 0;
    for (std::size_t i = 0; i < set->jobs.size(); ++i) {
        // One request per job: narrow the set to the single machine
        // and kernel that job references.
        const serve::JobDescription &desc = set->jobs[i];
        serve::JobSet one;
        one.machines.push_back(set->machines[desc.machineIndex]);
        one.kernels.push_back(set->kernels[desc.kernelIndex]);
        serve::JobDescription d = desc;
        d.machineIndex = 0;
        d.kernelIndex = 0;
        one.jobs.push_back(std::move(d));

        serve::Response response;
        if (!client.schedule(one, deadlineMs, &response, &error)) {
            std::cerr << "cs_client: " << error << "\n";
            return 1;
        }
        std::string label = desc.label.empty()
                                ? "job" + std::to_string(i)
                                : desc.label;
        std::cout << label << ": "
                  << serve::statusName(response.status);
        if (response.status == serve::ResponseStatus::Ok) {
            std::cout << " " << (desc.pipelined ? "ii=" : "len=")
                      << (desc.pipelined ? response.ii
                                         : response.length)
                      << " copies=" << response.copiesInserted
                      << (response.cacheHit ? " (cache)" : "");
        } else if (!response.message.empty()) {
            std::cout << " (" << response.message << ")";
        }
        std::cout << "\n";
        if (response.status != serve::ResponseStatus::Ok)
            ++failures;
        else if (listings)
            std::cout << response.listing;
    }
    return failures == 0 ? 0 : 1;
}
