/**
 * @file
 * serve_mix: the serving layers' traced pass. It is not a timed
 * workload (README.md says why); every traced run drives it so the
 * serve, cache and decode layers are measured. An open loop against an
 * in-process ScheduleServer on a Unix-domain socket: seeded Poisson
 * arrivals at a fixed rate; a Zipf draw over a hot set of block-mode
 * jobs (Table-1 kernels x the paper machines plus enumerated variants
 * x option variants); every 10th request a novel job that misses and
 * schedules, every 20th on a fresh connection. The memory cache tier
 * is smaller than the hot set, so reads hit both tiers while misses
 * insert and append to shards.
 *
 * Load generator: one process, nproc - 1 threads each driving one
 * reused connection with many requests in flight (the protocol echoes
 * requestId), plus one thread that opens a fresh connection per
 * request, so at most nproc threads and nproc open connections. Every
 * request is timed from its due time; generator lateness is reported.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <poll.h>
#include <random>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

#include "bench.hpp"
#include "costmodel/dse.hpp"
#include "ir/serialize.hpp"
#include "kernels/kernels.hpp"
#include "machine/serialize.hpp"
#include "pipeline/job.hpp"
#include "serve/proto.hpp"
#include "serve/server.hpp"
#include "support/stats.hpp"

namespace pb {
namespace {

namespace sv = cs::serve;

/** @name Workload constants (also listed in README.md) */
/// @{
constexpr std::uint64_t kSpaceSeed = 1;
/** Enumerated machines beyond the four paper machines. */
constexpr int kVariantMachines = 8;
constexpr int kOptionVariants = 2;
/** Memory-tier entries: smaller than the hot set on purpose. */
constexpr std::size_t kMemoryEntries = 64;
constexpr double kZipfExponent = 0.8;
/** Every 10th request is novel, every 20th arrives on a fresh
 *  connection (seeded offsets): the same mix for every seed. */
constexpr std::size_t kNovelEvery = 10;
constexpr std::size_t kFreshEvery = 20;
/** Arrival rate (requests/s) and requests in the phase: >= 10
 *  samples beyond p99. */
constexpr double kArrivalRps = 400.0;
constexpr std::size_t kPhaseRequests = 1500;
/** A phase whose generator ran later than this (p99) is invalid. */
constexpr double kLateLimitMs = 10.0;
/** Sampled responses whose listings are re-derived locally. */
constexpr std::size_t kListingSamples = 16;
/**
 * The block-mode Table-1 kernels without Sort and Merge, whose block
 * schedules on the large variants cost up to ~170 ms: one such miss
 * would decide p99 by itself.
 */
const char *const kServeKernels[] = {"DCT",        "FFT",
                                     "FFT-U4",     "FIR-FP",
                                     "FIR-INT",    "Block Warp",
                                     "Block Warp-U2", "Triangle Transform"};
/// @}

struct HotJob
{
    sv::JobSet set;
    int cls = 0;
    /** Encoded Schedule request (requestId patched per send). */
    std::vector<std::uint8_t> frame;
};

std::vector<std::uint8_t>
encodeSchedule(const sv::JobSet &set)
{
    sv::Request request;
    request.type = sv::RequestType::Schedule;
    request.jobs = set;
    std::vector<std::uint8_t> payload;
    {
        cs::wire::ByteWriter writer(payload);
        PB_SPAN(Serve);
        sv::encodeRequest(writer, request);
    }
    return payload;
}

/** requestId sits after the version and type bytes, little-endian. */
void
patchRequestId(std::vector<std::uint8_t> &payload, std::uint64_t id)
{
    for (int i = 0; i < 8; ++i)
        payload[2 + i] = static_cast<std::uint8_t>(id >> (8 * i));
}

/** Connect to the server's socket; replies are awaited at most 30 s. */
int
connectUds(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        return -1;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        ::close(fd);
        return -1;
    }
    timeval timeout{30, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    return fd;
}

/** The hot set and the request inputs; independent of any server. */
struct Inputs
{
    std::vector<HotJob> hot;
    /** Zipf rank -> hot index (seeded), and the rank CDF. */
    std::vector<std::size_t> rankToHot;
    std::vector<double> zipfCdf;
};

Inputs
buildInputs()
{
    Inputs in;
    std::vector<std::pair<cs::Machine, int>> machines;
    for (int cls = 0; cls < kNumClasses; ++cls) {
        PB_SPAN(Machine);
        machines.emplace_back(buildPaperMachine(cls), cls);
    }
    std::vector<cs::DsePoint> points;
    {
        PB_SPAN(Costmodel);
        points = cs::enumerateMachineSpace(
            {kSpaceSeed, kNumClasses + kVariantMachines});
    }
    // The enumeration leads with the four paper machines.
    for (std::size_t p = kNumClasses; p < points.size(); ++p)
        machines.emplace_back(points[p].machine, classIndex(points[p].style));

    for (const char *name : kServeKernels) {
        const cs::KernelSpec &spec = cs::kernelByName(name);
        cs::Kernel kernel = [&] {
            PB_SPAN(Kernels);
            return spec.build();
        }();
        for (const auto &[machine, cls] : machines) {
            for (int v = 0; v < kOptionVariants; ++v) {
                HotJob job;
                job.cls = cls;
                job.set.machines.push_back(machine);
                job.set.kernels.push_back(kernel);
                sv::JobDescription desc;
                desc.label = spec.name + "@" + machine.name();
                desc.pipelined = false;
                desc.options.permutationBudget += v;
                job.set.jobs.push_back(desc);
                job.frame = encodeSchedule(job.set);
                in.hot.push_back(std::move(job));
            }
        }
    }

    in.rankToHot.resize(in.hot.size());
    std::iota(in.rankToHot.begin(), in.rankToHot.end(), 0);
    // The popularity ranking is part of the workload, like the design
    // space: fixed, so seeds differ in the request stream drawn from it.
    std::mt19937_64 rng(kSpaceSeed);
    std::shuffle(in.rankToHot.begin(), in.rankToHot.end(), rng);
    double total = 0.0;
    for (std::size_t r = 1; r <= in.hot.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r), kZipfExponent);
        in.zipfCdf.push_back(total);
    }
    for (double &c : in.zipfCdf)
        c /= total;
    return in;
}

/** A running server in a fresh scratch directory. */
struct Service
{
    std::string dir;
    std::string socket;
    std::unique_ptr<sv::ScheduleServer> server;
    /** Novel-job counter: every novel request gets a fresh key. */
    int novelSeq = 0;

    Service() = default;
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    ~Service()
    {
        if (server)
            server->stop();
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
    }
};

/** Closed-loop fill: every hot job once, over nproc connections. */
bool
warmFill(const Options &options, const Inputs &in, Service &service)
{
    unsigned threads = std::min<unsigned>(options.nproc, 4);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> ok{true};
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&] {
            int fd = connectUds(service.socket);
            if (fd < 0) {
                ok = false;
                return;
            }
            std::vector<std::uint8_t> frame, reply;
            for (std::size_t i = next++; i < in.hot.size(); i = next++) {
                frame = in.hot[i].frame;
                patchRequestId(frame, i + 1);
                sv::Response response;
                if (!sv::writeFrame(fd, frame) ||
                    !sv::readFrame(fd, &reply)) {
                    ok = false;
                    break;
                }
                cs::wire::ByteReader decoder(reply);
                if (!sv::decodeResponse(decoder, &response) ||
                    response.status != sv::ResponseStatus::Ok ||
                    !response.success)
                    ok = false;
            }
            ::close(fd);
        });
    }
    for (std::thread &w : workers)
        w.join();
    return ok;
}

std::unique_ptr<Service>
startService(const Options &options, const Inputs &in, int tag)
{
    auto service = std::make_unique<Service>();
    service->dir = options.scratch + "/serve-" +
                   std::to_string(::getpid()) + "-" + std::to_string(tag);
    std::error_code ec;
    std::filesystem::remove_all(service->dir, ec);
    std::filesystem::create_directories(service->dir);
    service->socket = service->dir + "/s.sock";
    sv::ServerConfig config;
    config.socketPath = service->socket;
    config.cacheDirectory = service->dir + "/cache";
    config.cacheCapacity = kMemoryEntries;
    service->server = std::make_unique<sv::ScheduleServer>(config);
    bool started = false;
    {
        PB_SPAN(Serve);
        started = service->server->start();
    }
    if (!started || !warmFill(options, in, *service))
        throw RunAborted("serve_mix could not start and fill the server");
    service->novelSeq =
        static_cast<int>(subSeed(options.seed, 5001) % 64) * 10000;
    return service;
}

/** One planned request. */
struct Planned
{
    double dueMs = 0.0;
    /** Hot index, or -1 for a novel job (frame in novelFrames). */
    int hot = -1;
    int cls = 0;
    /** Connection: 0..persistent-1, or `persistent` for a fresh one. */
    int channel = 0;
    const std::vector<std::uint8_t> *frame = nullptr;
    /** Keep the listing for the local re-derivation check. */
    bool sample = false;
};

struct Plan
{
    std::vector<Planned> requests;
    /** Novel job sets and their frames (stable addresses). */
    std::vector<std::unique_ptr<sv::JobSet>> novelSets;
    std::vector<std::unique_ptr<std::vector<std::uint8_t>>> novelFrames;
    /** Per request: the job set to re-derive a sampled listing from. */
    std::vector<const sv::JobSet *> sets;
};

Plan
makePlan(const Inputs &in, Service &service, double rps, std::size_t count,
         int persistent, std::uint64_t seed)
{
    Plan plan;
    std::mt19937_64 rng(seed);
    std::exponential_distribution<double> gap(rps / 1000.0);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> conn(0, persistent - 1);
    // Novel jobs cycle through the hot set in seeded order, so every
    // seed misses on the same mix of jobs.
    std::vector<std::size_t> novelBases(in.hot.size());
    std::iota(novelBases.begin(), novelBases.end(), 0);
    std::shuffle(novelBases.begin(), novelBases.end(), rng);
    std::size_t novelOffset = rng() % kNovelEvery;
    std::size_t freshOffset = rng() % kFreshEvery;
    std::size_t novelCount = 0;
    double t = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
        t += gap(rng);
        Planned p;
        p.dueMs = t;
        p.channel = i % kFreshEvery == freshOffset ? persistent : conn(rng);
        const sv::JobSet *set = nullptr;
        if (i % kNovelEvery == novelOffset) {
            const HotJob &base =
                in.hot[novelBases[novelCount++ % novelBases.size()]];
            auto novel = std::make_unique<sv::JobSet>(base.set);
            // A fresh content key that cannot change the work: the II
            // slack is hashed and sent but unused by block jobs.
            novel->jobs[0].maxIiSlack = 65 + service.novelSeq++;
            plan.novelFrames.push_back(
                std::make_unique<std::vector<std::uint8_t>>(
                    encodeSchedule(*novel)));
            p.frame = plan.novelFrames.back().get();
            p.cls = base.cls;
            set = novel.get();
            plan.novelSets.push_back(std::move(novel));
        } else {
            double u = unit(rng);
            std::size_t rank = static_cast<std::size_t>(
                std::lower_bound(in.zipfCdf.begin(), in.zipfCdf.end(), u) -
                in.zipfCdf.begin());
            rank = std::min(rank, in.hot.size() - 1);
            p.hot = static_cast<int>(in.rankToHot[rank]);
            p.frame = &in.hot[p.hot].frame;
            p.cls = in.hot[p.hot].cls;
            set = &in.hot[p.hot].set;
        }
        plan.requests.push_back(p);
        plan.sets.push_back(set);
    }
    // Seeded listing samples, spread over the phase.
    std::uniform_int_distribution<std::size_t> pick(0, count - 1);
    for (std::size_t s = 0; s < kListingSamples; ++s)
        plan.requests[pick(rng)].sample = true;
    return plan;
}

struct Outcome
{
    double sentMs = -1.0;
    double doneMs = -1.0;
    bool ok = false;
    bool hit = false;
    double connectUs = -1.0;
    std::string listing;
};

void
recordResponse(const std::vector<std::uint8_t> &reply, double doneMs,
               const Plan &plan, std::vector<Outcome> &outcomes)
{
    sv::Response response;
    cs::wire::ByteReader reader(reply);
    if (!sv::decodeResponse(reader, &response))
        return;
    std::uint64_t index = response.requestId - 1;
    if (index >= outcomes.size())
        return;
    Outcome &o = outcomes[index];
    o.doneMs = doneMs;
    o.ok = response.status == sv::ResponseStatus::Ok && response.success;
    o.hit = response.cacheHit;
    if (plan.requests[index].sample)
        o.listing = std::move(response.listing);
}

/**
 * One reused connection: queue each request when it is due, and move
 * bytes both ways without blocking, so a server that is slow to read
 * can never deadlock against a client that is slow to read. Time a
 * request spends in the outgoing buffer counts in its latency.
 */
void
drivePersistent(int fd, const Plan &plan, const std::vector<std::size_t> &mine,
                Clock::time_point start, std::vector<Outcome> &outcomes)
{
    double lastDue = plan.requests.empty() ? 0.0
                                           : plan.requests.back().dueMs;
    auto hardEnd = start + std::chrono::milliseconds(
                               static_cast<long>(lastDue) + 10000);
    std::size_t next = 0, outstanding = 0;
    std::vector<std::uint8_t> out, in, frame;
    std::size_t outPos = 0;
    std::uint8_t chunk[65536];
    while (next < mine.size() || outstanding > 0) {
        auto now = Clock::now();
        while (next < mine.size()) {
            const Planned &p = plan.requests[mine[next]];
            auto due = start + std::chrono::nanoseconds(
                                   static_cast<long>(p.dueMs * 1e6));
            if (now < due)
                break;
            frame = *p.frame;
            patchRequestId(frame, mine[next] + 1);
            auto length = static_cast<std::uint32_t>(frame.size());
            for (int i = 0; i < 4; ++i)
                out.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
            out.insert(out.end(), frame.begin(), frame.end());
            outcomes[mine[next]].sentMs = msBetween(start, now);
            ++next;
            ++outstanding;
        }
        if (now >= hardEnd)
            return;
        Clock::time_point wakeAt = hardEnd;
        if (next < mine.size()) {
            wakeAt = start + std::chrono::nanoseconds(static_cast<long>(
                                 plan.requests[mine[next]].dueMs * 1e6));
        }
        auto waitNs = std::max<long>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wakeAt -
                                                                    now)
                   .count());
        timespec ts{static_cast<time_t>(waitNs / 1000000000),
                    static_cast<long>(waitNs % 1000000000)};
        pollfd pfd{fd, static_cast<short>(POLLIN |
                                          (outPos < out.size() ? POLLOUT : 0)),
                   0};
        int rc = ::ppoll(&pfd, 1, &ts, nullptr);
        if (rc < 0 && errno != EINTR)
            return;
        if (rc <= 0)
            continue;
        if (pfd.revents & POLLOUT) {
            ssize_t n = ::send(fd, out.data() + outPos, out.size() - outPos,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n < 0 && errno != EAGAIN && errno != EINTR)
                return;
            outPos += n > 0 ? static_cast<std::size_t>(n) : 0;
            if (outPos == out.size()) {
                out.clear();
                outPos = 0;
            }
        }
        if (pfd.revents & POLLIN) {
            ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
            if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR))
                return;
            if (n > 0)
                in.insert(in.end(), chunk, chunk + n);
            double doneMs = msBetween(start, Clock::now());
            std::size_t pos = 0;
            while (in.size() - pos >= 4) {
                std::uint32_t length = 0;
                for (int i = 0; i < 4; ++i)
                    length |= static_cast<std::uint32_t>(in[pos + i]) << (8 * i);
                if (in.size() - pos - 4 < length)
                    break;
                frame.assign(in.begin() + pos + 4, in.begin() + pos + 4 + length);
                recordResponse(frame, doneMs, plan, outcomes);
                --outstanding;
                pos += 4 + length;
            }
            in.erase(in.begin(), in.begin() + pos);
        } else if (pfd.revents & (POLLHUP | POLLERR)) {
            return;
        }
    }
}

/** Fresh-connection requests, the way one-shot cs_client calls arrive. */
void
driveFresh(const std::string &socket, const Plan &plan,
           const std::vector<std::size_t> &mine, Clock::time_point start,
           std::vector<Outcome> &outcomes)
{
    std::vector<std::uint8_t> frame, reply;
    for (std::size_t index : mine) {
        const Planned &p = plan.requests[index];
        std::this_thread::sleep_until(
            start + std::chrono::nanoseconds(static_cast<long>(p.dueMs * 1e6)));
        Outcome &o = outcomes[index];
        auto t0 = Clock::now();
        o.sentMs = msBetween(start, t0);
        int fd = connectUds(socket);
        if (fd < 0)
            continue;
        o.connectUs = msSince(t0) * 1000.0;
        frame = *p.frame;
        patchRequestId(frame, index + 1);
        if (sv::writeFrame(fd, frame) && sv::readFrame(fd, &reply))
            recordResponse(reply, msBetween(start, Clock::now()), plan,
                           outcomes);
        ::close(fd);
    }
}

int
persistentConnections(const Options &options)
{
    return static_cast<int>(std::clamp(options.nproc, 2u, 4u)) - 1;
}

/** Drive one phase to completion. */
std::vector<Outcome>
runPhase(const Options &options, Service &service, const Plan &plan)
{
    int persistent = persistentConnections(options);
    std::vector<std::vector<std::size_t>> lanes(persistent + 1);
    for (std::size_t i = 0; i < plan.requests.size(); ++i)
        lanes[plan.requests[i].channel].push_back(i);
    std::vector<int> fds;
    for (int c = 0; c < persistent; ++c)
        fds.push_back(connectUds(service.socket));
    std::vector<Outcome> outcomes(plan.requests.size());
    auto start = Clock::now() + std::chrono::milliseconds(5);
    std::vector<std::thread> threads;
    for (int c = 0; c < persistent; ++c) {
        if (fds[c] < 0)
            continue;
        threads.emplace_back([&, c] {
            drivePersistent(fds[c], plan, lanes[c], start, outcomes);
        });
    }
    threads.emplace_back([&] {
        driveFresh(service.socket, plan, lanes[persistent], start, outcomes);
    });
    for (std::thread &t : threads)
        t.join();
    for (int fd : fds) {
        if (fd >= 0)
            ::close(fd);
    }
    return outcomes;
}

/** Latency summary of one phase. */
struct PhaseSummary
{
    std::vector<double> latency, hitLatency, late, connectUs;
};

PhaseSummary
summarize(const Plan &plan, const std::vector<Outcome> &outcomes)
{
    PhaseSummary s;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        const Planned &p = plan.requests[i];
        if (o.sentMs >= 0.0)
            s.late.push_back(std::max(0.0, o.sentMs - p.dueMs));
        if (o.connectUs >= 0.0)
            s.connectUs.push_back(o.connectUs);
        if (!o.ok || o.doneMs < 0.0)
            continue;
        double latency = o.doneMs - p.dueMs;
        s.latency.push_back(latency);
        if (o.hit)
            s.hitLatency.push_back(latency);
    }
    return s;
}

/** Re-derive sampled listings with a local runScheduleJob. */
void
checkSamples(const Plan &plan, const std::vector<Outcome> &outcomes,
             Report &report)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!plan.requests[i].sample || !outcomes[i].ok)
            continue;
        std::vector<cs::ScheduleJob> jobs =
            sv::jobSetToScheduleJobs(*plan.sets[i]);
        cs::JobResult local;
        {
            PB_SPAN(Pipeline);
            local = cs::runScheduleJob(jobs[0]);
        }
        report.attempted();
        if (!local.success || local.listing != outcomes[i].listing)
            report.fail(jobs[0].label + ": served listing differs from "
                                        "a local runScheduleJob");
    }
}

/**
 * Run one phase; a phase whose generator fell behind is invalid, so it
 * is retried once and then abandons the run without a result.
 */
std::pair<Plan, std::vector<Outcome>>
runValidPhase(const Options &options, const Inputs &in, Service &service,
              double rps, std::size_t count, std::uint64_t seed)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        Plan plan = makePlan(in, service, rps, count,
                             persistentConnections(options),
                             seed + static_cast<std::uint64_t>(attempt));
        std::vector<Outcome> outcomes =
            runPhase(options, service, plan);
        PhaseSummary s = summarize(plan, outcomes);
        if (quantile(s.late, 0.99) <= kLateLimitMs)
            return {std::move(plan), std::move(outcomes)};
        std::cout << "note   generator fell behind at " << rps
                  << " req/s (late p99 " << quantile(s.late, 0.99)
                  << " ms); retrying\n";
    }
    throw RunAborted("serve_mix load generator fell behind; run invalid");
}

void
accountPhase(const Plan &plan, const std::vector<Outcome> &outcomes,
             Report &report)
{
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        report.attempted();
        if (!outcomes[i].ok)
            report.fail("serve request " + std::to_string(i) +
                        " failed or unanswered");
    }
    checkSamples(plan, outcomes, report);
}

} // namespace

void
traceServeMix(const Options &options, Report &report)
{
    Inputs in = buildInputs();
    std::unique_ptr<Service> service = startService(options, in, 9);
    sv::ScheduleServer &server = *service->server;

    cs::CounterSet before = server.counterSnapshot();
    auto histBefore = server.metrics().streamingSnapshot();

    auto [plan, outcomes] = runValidPhase(options, in, *service, kArrivalRps,
                                          kPhaseRequests,
                                          subSeed(options.seed, 6500));
    accountPhase(plan, outcomes, report);
    PhaseSummary s = summarize(plan, outcomes);

    cs::CounterSet after = server.counterSnapshot();
    auto delta = [&](const char *name) {
        return static_cast<double>(after.get(name) - before.get(name));
    };
    auto histAfter = server.metrics().streamingSnapshot();
    for (const char *phase : {"decode", "admit", "queue", "schedule",
                              "reply"}) {
        std::string name = std::string("serve.phase_us.") + phase;
        cs::StreamingHistogram::Snapshot d = histAfter[name];
        const cs::StreamingHistogram::Snapshot &b = histBefore[name];
        for (std::size_t i = 0; i < d.buckets.size(); ++i)
            d.buckets[i] -= b.buckets[i];
        d.count -= b.count;
        d.total -= b.total;
        report.requireOps(name, d.count);
        report.metric(name + ".p50", static_cast<double>(d.quantile(0.5)),
                      "us");
        report.metric(name + ".p99", static_cast<double>(d.quantile(0.99)),
                      "us");
    }
    report.requireOps("fresh connections", s.connectUs.size());
    report.metric("client.connect_us", median(s.connectUs), "us");
    report.metric("serve.req_p50_ms", median(s.latency), "ms");
    report.metric("serve.req_p99_ms", quantile(s.latency, 0.99), "ms");
    report.metric("serve.hit_p50_ms", median(s.hitLatency), "ms");
    report.metric("serve.hit_p99_ms", quantile(s.hitLatency, 0.99), "ms");
    report.metric("loadgen.late_p99_ms", quantile(s.late, 0.99), "ms");
    report.requireOps("pipeline jobs", delta("pipeline.jobs"));
    report.metric("pipeline.hit_ratio",
                  delta("pipeline.cache_hits") / delta("pipeline.jobs"),
                  "ratio");
    double diskLookups = delta("cache.disk.hits") + delta("cache.disk.misses");
    report.requireOps("disk lookups", diskLookups);
    report.metric("cache.disk_hit_ratio",
                  delta("cache.disk.hits") / diskLookups, "ratio");
    report.metric("cache.disk_writes", delta("cache.disk.writes"), "count");
    report.metric("serve.fast_path_hits", delta("serve.fast_path_hits"),
                  "count");
    report.metric("serve.rejected_overload",
                  delta("serve.rejected_overload"), "count");

    // Replay the captured hot frames through the public decode, key and
    // lookup calls, one layer at a time.
    std::vector<double> requestUs, machineUs, kernelUs, keyUs, lookupUs;
    for (int rep = 0; rep < 3; ++rep) {
        for (const HotJob &job : in.hot) {
            auto t0 = Clock::now();
            {
                PB_SPAN(Serve);
                sv::Request request;
                cs::wire::ByteReader reader(job.frame);
                if (!sv::decodeRequest(reader, &request))
                    report.fail("replayed frame does not decode");
            }
            requestUs.push_back(msSince(t0) * 1000.0);

            std::vector<std::uint8_t> machineBytes, kernelBytes;
            {
                cs::wire::ByteWriter mw(machineBytes);
                PB_SPAN(Machine);
                cs::encodeMachine(mw, job.set.machines[0]);
            }
            {
                cs::wire::ByteWriter kw(kernelBytes);
                PB_SPAN(Ir);
                cs::encodeKernel(kw, job.set.kernels[0]);
            }
            t0 = Clock::now();
            {
                PB_SPAN(Machine);
                std::optional<cs::Machine> machine;
                cs::wire::ByteReader reader(machineBytes);
                cs::decodeMachine(reader, &machine);
            }
            machineUs.push_back(msSince(t0) * 1000.0);
            t0 = Clock::now();
            {
                PB_SPAN(Ir);
                std::optional<cs::Kernel> kernel;
                cs::wire::ByteReader reader(kernelBytes);
                cs::decodeKernel(reader, &kernel);
            }
            kernelUs.push_back(msSince(t0) * 1000.0);

            cs::ScheduleJob local = sv::jobSetToScheduleJobs(job.set)[0];
            t0 = Clock::now();
            {
                PB_SPAN(Pipeline);
                cs::scheduleJobKey(local);
            }
            keyUs.push_back(msSince(t0) * 1000.0);
            t0 = Clock::now();
            bool hit = false;
            {
                PB_SPAN(Pipeline);
                hit = server.pipeline().lookupCached(local).has_value();
            }
            if (hit)
                lookupUs.push_back(msSince(t0) * 1000.0);
        }
    }
    report.requireOps("replayed cache hits", lookupUs.size());
    report.metric("serve.decode_request_us", median(requestUs), "us");
    report.metric("machine.decode_us", median(machineUs), "us");
    report.metric("ir.decode_us", median(kernelUs), "us");
    report.metric("pipeline.key_us", median(keyUs), "us");
    report.metric("pipeline.lookup_us", median(lookupUs), "us");
}

} // namespace pb
