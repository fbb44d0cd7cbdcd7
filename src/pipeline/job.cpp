#include "pipeline/job.hpp"

#include <chrono>
#include <cstring>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/schedule.hpp"
#include "support/logging.hpp"
#include "support/trace.hpp"

namespace cs {

namespace {

/** Incremental 64-bit FNV-1a hasher. */
struct Fnv1a
{
    static constexpr std::uint64_t kOffset = 14695981039346656037ull;
    static constexpr std::uint64_t kPrime = 1099511628211ull;

    std::uint64_t state = kOffset;

    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state ^= p[i];
            state *= kPrime;
        }
    }

    void u8(std::uint8_t v) { bytes(&v, sizeof v); }
    void u32(std::uint32_t v) { bytes(&v, sizeof v); }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void i32(std::int32_t v) { bytes(&v, sizeof v); }
    void i64(std::int64_t v) { bytes(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    f64(double v)
    {
        // Hash the bit pattern; normalize -0.0 so it keys like +0.0.
        if (v == 0.0)
            v = 0.0;
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    template <typename Tag>
    void
    id(Id<Tag> v)
    {
        u32(v.index());
    }
};

} // namespace

std::uint64_t
hashKernel(const Kernel &kernel, BlockId block)
{
    Fnv1a h;
    // Id-space sizes guard against two kernels whose target blocks
    // match but whose surrounding id numbering differs.
    h.u64(kernel.numBlocks());
    h.u64(kernel.numOperations());
    h.u64(kernel.numValues());
    h.id(block);

    const Block &b = kernel.block(block);
    h.boolean(b.isLoop);
    h.u64(b.operations.size());
    for (OperationId opId : b.operations) {
        const Operation &op = kernel.operation(opId);
        h.u8(static_cast<std::uint8_t>(op.opcode));
        h.i32(op.aliasClass);
        h.i32(op.iterStride);
        h.id(op.result);
        h.u64(op.operands.size());
        for (const Operand &operand : op.operands) {
            h.u8(static_cast<std::uint8_t>(operand.kind));
            h.id(operand.value);
            h.i32(operand.distance);
            h.i64(operand.immInt);
            h.f64(operand.immFloat);
        }
    }
    return h.state;
}

std::uint64_t
hashMachine(const Machine &machine)
{
    Fnv1a h;
    h.u64(machine.numFuncUnits());
    h.u64(machine.numRegFiles());
    h.u64(machine.numBuses());

    for (std::size_t i = 0; i < machine.numFuncUnits(); ++i) {
        FuncUnitId fu(static_cast<std::uint32_t>(i));
        const FuncUnit &unit = machine.funcUnit(fu);
        h.u64(unit.classes.to_ullong());
        h.u64(unit.inputs.size());
        for (InputPortId input : unit.inputs)
            h.id(input);
        h.id(unit.output);
        // The precomputed stub lists enumerate every (port, bus, port)
        // path of the connectivity graph, so hashing them captures the
        // full interconnect topology.
        for (const WriteStub &stub : machine.writeStubs(fu)) {
            h.id(stub.output);
            h.id(stub.bus);
            h.id(stub.writePort);
        }
        for (std::size_t slot = 0; slot < unit.inputs.size(); ++slot) {
            for (const ReadStub &stub :
                 machine.readStubs(fu, static_cast<int>(slot))) {
                h.id(stub.readPort);
                h.id(stub.bus);
                h.id(stub.input);
            }
        }
    }

    for (std::size_t i = 0; i < machine.numRegFiles(); ++i) {
        const RegFile &rf = machine.regFile(
            RegFileId(static_cast<std::uint32_t>(i)));
        h.i32(rf.capacity);
        h.u64(rf.readPorts.size());
        for (ReadPortId port : rf.readPorts)
            h.id(port);
        h.u64(rf.writePorts.size());
        for (WritePortId port : rf.writePorts)
            h.id(port);
    }

    for (std::size_t o = 0; o < kNumOpcodes; ++o)
        h.i32(machine.latency(static_cast<Opcode>(o)));

    return h.state;
}

std::uint64_t
hashOptions(const SchedulerOptions &options)
{
    Fnv1a h;
    h.boolean(options.operationOrder);
    h.boolean(options.commCostHeuristic);
    h.i32(options.maxDelay);
    h.i32(options.moduloWindowFactor);
    h.i32(options.permutationBudget);
    h.i32(options.maxCopyDepth);
    h.u64(options.perOpAttemptBudget);
    h.u64(options.copyAttemptBudget);
    h.boolean(options.retryVariants);
    h.boolean(options.noGoodCache);
    h.boolean(options.crossAttemptNoGoods);
    h.boolean(options.adaptiveOrdering);
    return h.state;
}

std::uint64_t
scheduleJobKey(const ScheduleJob &job)
{
    CS_ASSERT(job.machine != nullptr, "job '", job.label,
              "' has no machine");
    Fnv1a h;
    h.u64(hashKernel(job.kernel, job.block));
    h.u64(hashMachine(*job.machine));
    h.u64(hashOptions(job.options));
    h.boolean(job.pipelined);
    h.i32(job.maxIiSlack);
    return h.state;
}

JobResult
runScheduleJob(const ScheduleJob &job)
{
    return runScheduleJob(job, IiSearchConfig{});
}

JobResult
runScheduleJob(const ScheduleJob &job, const IiSearchConfig &iiSearch)
{
    return runScheduleJob(job, iiSearch, nullptr);
}

JobResult
runScheduleJob(const ScheduleJob &job, const IiSearchConfig &iiSearch,
               const BlockSchedulingContext *sharedContext)
{
    CS_ASSERT(job.machine != nullptr, "job '", job.label,
              "' has no machine");
#ifndef CS_TRACE_DISABLED
    // The job label is dynamic, so it is interned per distinct label
    // (bounded by the batch's job count) instead of per call site.
    trace::Scope traceSpan(
        trace::enabled()
            ? trace::internName(job.label.empty()
                                    ? std::string("schedule_job")
                                    : "schedule_job:" + job.label)
            : std::uint16_t{0});
#endif
    auto start = std::chrono::steady_clock::now();

    JobResult out;
    if (job.pipelined) {
        IiSearchConfig search = iiSearch;
        if (job.abortFlag != nullptr)
            search.abort = job.abortFlag;
        PipelineResult pipe =
            sharedContext != nullptr
                ? schedulePipelinedParallel(*sharedContext, job.options,
                                            job.maxIiSlack, search)
                : schedulePipelinedParallel(job.kernel, job.block,
                                            *job.machine, job.options,
                                            job.maxIiSlack, search);
        out.success = pipe.success;
        out.ii = pipe.ii;
        out.resMii = pipe.resMii;
        out.recMii = pipe.recMii;
        out.iiAttempts = pipe.attempts;
        out.iiAttemptsWasted = pipe.attemptsWasted;
        out.sched = std::move(pipe.inner);
    } else {
        out.sched =
            sharedContext != nullptr
                ? scheduleBlock(*sharedContext, job.options,
                                job.abortFlag)
                : scheduleBlock(job.kernel, job.block, *job.machine,
                                job.options, job.abortFlag);
        out.success = out.sched.success;
    }
    out.cancelled = out.sched.cancelled;

    if (out.success) {
        const Kernel &scheduled = out.sched.kernel;
        out.length = out.sched.schedule.length(scheduled, *job.machine);
        out.copiesInserted = static_cast<int>(
            scheduled.numOperations() -
            scheduled.numOriginalOperations());
        out.verifierErrors = validateSchedule(scheduled, *job.machine,
                                              out.sched.schedule);
        out.listing = exportListing(scheduled, *job.machine,
                                    out.sched.schedule);
    }

    auto end = std::chrono::steady_clock::now();
    out.wallMs =
        std::chrono::duration<double, std::milli>(end - start).count();
    return out;
}

} // namespace cs
