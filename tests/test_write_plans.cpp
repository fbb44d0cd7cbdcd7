/**
 * @file
 * The write search decides bus infeasibility from per-plan bus masks
 * before any candidate list exists, and copy units are filtered and
 * ranked by register-file masks. Both are exact rewrites of list
 * walks, and these tests check that rather than assert it:
 *
 *  - WritePlanMasks: on the four paper machines and random
 *    copy-connected machines, every unit pair's mask intersection
 *    equals its list intersection, and every write emission plan's
 *    bus mask is exactly the set of buses its stubs ride.
 *  - WritePlanCounters: distributed jobs that exercise the bus
 *    precheck and copy insertion, block and pipelined (serial II
 *    search), report exactly the ScheduleResult::stats of the
 *    list-walking implementation. So does one random-machine block
 *    job whose retargets need the constrained communication's
 *    filtered list in the precheck (its plan's mask would pass
 *    searches the list rejects).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/comm_scheduler.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "kernels/kernels.hpp"
#include "machine/builders.hpp"
#include "random_machine.hpp"
#include "support/logging.hpp"

namespace cs {

/** Reaches the scheduler's private emission plans (the friend seam
 *  declared in core/comm_scheduler.hpp). */
struct WritePlanPeer
{
    /**
     * Build and visit every plan the scheduler can key on its
     * machine: each writer unit against every close row (one per read
     * file) and every open row (each scheduled reader unit and slot,
     * each scheduled copy unit, each unscheduled opcode and slot, the
     * unscheduled copy). Plans are dropped after each writer unit to
     * keep memory flat.
     */
    template <class Fn>
    static void
    forEachPlan(const BlockScheduler &s, Fn &&fn)
    {
        const Machine &m = s.machine_;
        const BlockSchedulingContext &ctx = *s.ctx_;
        std::size_t max_inputs = 1;
        for (std::size_t f = 0; f < m.numFuncUnits(); ++f) {
            max_inputs = std::max(
                max_inputs,
                m.funcUnit(FuncUnitId(static_cast<std::uint32_t>(f)))
                    .inputs.size());
        }
        for (std::size_t w = 0; w < m.numFuncUnits(); ++w) {
            FuncUnitId writer(static_cast<std::uint32_t>(w));
            for (std::size_t rf = 0; rf < m.numRegFiles(); ++rf) {
                fn(s.closeWritePlan(
                    ctx.closeBaseRow(
                        RegFileId(static_cast<std::uint32_t>(rf))),
                    writer));
            }
            for (std::size_t r = 0; r < m.numFuncUnits(); ++r) {
                FuncUnitId reader(static_cast<std::uint32_t>(r));
                int arity =
                    static_cast<int>(m.funcUnit(reader).inputs.size());
                for (int slot = 0; slot < arity; ++slot) {
                    fn(s.openWritePlan(
                        ctx.openCodesScheduled(reader, slot), writer));
                }
                fn(s.openWritePlan(ctx.openCodesScheduledCopy(reader),
                                   writer));
            }
            for (std::size_t o = 0; o < kNumOpcodes; ++o) {
                for (std::size_t slot = 0; slot < max_inputs; ++slot) {
                    fn(s.openWritePlan(
                        ctx.openCodesUnscheduled(static_cast<Opcode>(o),
                                                 static_cast<int>(slot)),
                        writer));
                }
            }
            fn(s.openWritePlan(ctx.openCodesUnscheduledCopy(), writer));
            s.writePlans_.clear();
        }
    }
};

namespace {

struct NamedMachine
{
    Machine machine;
    Kernel kernel;
};

/** The four paper machines (with DCT) and the copy-connected random
 *  machines of seeds 100-119 (with a kernel they can execute). */
std::vector<NamedMachine>
invariantMachines()
{
    std::vector<NamedMachine> out;
    Kernel dct = kernelByName("DCT").build();
    out.push_back({makeCentral(), dct});
    out.push_back({makeClustered({}, 2), dct});
    out.push_back({makeClustered({}, 4), dct});
    out.push_back({makeDistributed(), dct});
    for (std::uint64_t seed = 100; seed < 120; ++seed) {
        Machine machine = test::randomMachine(seed);
        if (machine.checkCopyConnected(nullptr))
            out.push_back({machine, test::randomMachineKernel(seed)});
    }
    return out;
}

bool
listsIntersect(const std::vector<RegFileId> &a,
               const std::vector<RegFileId> &b)
{
    for (RegFileId rf : a) {
        if (std::find(b.begin(), b.end(), rf) != b.end())
            return true;
    }
    return false;
}

TEST(WritePlanMasks, UnitPairMaskIntersectionMatchesLists)
{
    for (const NamedMachine &nm : invariantMachines()) {
        const Machine &m = nm.machine;
        for (std::size_t p = 0; p < m.numFuncUnits(); ++p) {
            FuncUnitId producer(static_cast<std::uint32_t>(p));
            for (std::size_t c = 0; c < m.numFuncUnits(); ++c) {
                FuncUnitId copier(static_cast<std::uint32_t>(c));
                EXPECT_EQ(m.writableMask(producer).intersects(
                              m.readableAnyMask(copier)),
                          listsIntersect(m.writableRegFiles(producer),
                                         m.readableAnySlot(copier)))
                    << m.name() << " fu" << p << " -> fu" << c;
            }
            // A residence mask meets readableAnyMask exactly where a
            // residence list meets readableAnySlot: the mask bits are
            // the list's members.
            for (std::size_t rf = 0; rf < m.numRegFiles(); ++rf) {
                RegFileId id(static_cast<std::uint32_t>(rf));
                const auto &readable = m.readableAnySlot(producer);
                EXPECT_EQ(m.readableAnyMask(producer).test(rf),
                          std::find(readable.begin(), readable.end(),
                                    id) != readable.end())
                    << m.name() << " fu" << p << " rf" << rf;
            }
        }
    }
}

TEST(WritePlanMasks, EveryPlanMaskIsItsStubsBusSet)
{
    setVerboseLogging(false);
    std::size_t plans = 0;
    for (const NamedMachine &nm : invariantMachines()) {
        const Machine &m = nm.machine;
        BlockScheduler scheduler(nm.kernel, BlockId(0), m, {}, 0);
        WritePlanPeer::forEachPlan(scheduler, [&](const auto &plan) {
            ++plans;
            InlineBitset used(m.numBuses());
            for (const WriteStub &stub : plan.stubs)
                used.set(stub.bus.index());
            ASSERT_EQ(plan.busMask.size(), m.numBuses()) << m.name();
            for (std::size_t b = 0; b < m.numBuses(); ++b) {
                ASSERT_EQ(plan.busMask.test(b), used.test(b))
                    << m.name() << " bus " << b;
            }
        });
    }
    EXPECT_GT(plans, 0u);
}

/** One job's full ScheduleResult::stats as the list-walking
 *  implementation reported them. */
struct PinnedJob
{
    const char *tag;
    /** Table-1 kernel on the distributed machine, or (when null) the
     *  random machine and kernel of randomSeed. */
    const char *kernel;
    std::uint64_t randomSeed;
    bool pipelined;
    int ii;
    int attempts;
    std::map<std::string, std::uint64_t> stats;
};

const std::vector<PinnedJob> &
pinnedJobs()
{
    static const std::vector<PinnedJob> jobs = {
        {"DctBlock", "DCT", 0, false, 0, 0,
         {
             {"comm_sched_calls", 88},
             {"comm_sched_rejections", 2},
             {"copies_inserted", 20},
             {"copies_reused", 3},
             {"dfs_nodes", 795},
             {"nogood_inserts", 25},
             {"nogood_invalidations", 179},
             {"nogood_misses", 186},
             {"nogood_probes", 186},
             {"ops_scheduled", 66},
             {"placement_attempts", 88},
             {"probe_reads", 109},
             {"probe_writes", 1342},
             {"prune_route_mask", 13600},
             {"prune_write_bus", 7563},
             {"read_perms_found", 80},
             {"reject.bus_conflict", 2},
             {"reject.write_port_conflict", 23},
             {"stub_retargets", 42},
             {"table_acquires", 890},
             {"table_releases", 672},
             {"write_perm_bus_prechecks", 2},
             {"write_perm_failures", 2},
             {"write_perms_found", 120},
         }},
        {"MergeBlock", "Merge", 0, false, 0, 0,
         {
             {"comm_sched_calls", 2311},
             {"comm_sched_rejections", 1893},
             {"copies_inserted", 404},
             {"copies_reused", 33},
             {"copies_unwound", 225},
             {"copy_feed_unroutable", 86},
             {"copy_schedule_failures", 210},
             {"dfs_nodes", 10452},
             {"nogood_hits", 40},
             {"nogood_inserts", 2080},
             {"nogood_invalidations", 5201},
             {"nogood_misses", 5202},
             {"nogood_probes", 5242},
             {"ops_scheduled", 224},
             {"perm_backtracks", 96},
             {"perm_budget_exhausted", 8},
             {"placement_attempts", 2311},
             {"probe_reads", 2819},
             {"probe_writes", 24438},
             {"prune_route_mask", 441480},
             {"prune_write_bus", 209267},
             {"read_perms_found", 2279},
             {"reject.budget_exhausted", 8},
             {"reject.bus_conflict", 1567},
             {"reject.no_good_hit", 40},
             {"reject.route_infeasible", 296},
             {"reject.write_port_conflict", 505},
             {"route_close_failures", 296},
             {"stub_retargets", 256},
             {"table_acquires", 25795},
             {"table_releases", 21995},
             {"write_perm_bus_prechecks", 1567},
             {"write_perm_failures", 1597},
             {"write_perms_found", 900},
         }},
        {"DctPipelined", "DCT", 0, true, 8, 1,
         {
             {"comm_sched_calls", 195},
             {"comm_sched_rejections", 108},
             {"copies_inserted", 41},
             {"copies_reused", 3},
             {"copies_unwound", 20},
             {"copy_schedule_failures", 20},
             {"dfs_nodes", 1026},
             {"nogood_hits", 36},
             {"nogood_inserts", 96},
             {"nogood_invalidations", 433},
             {"nogood_misses", 400},
             {"nogood_probes", 436},
             {"ops_scheduled", 66},
             {"placement_attempts", 195},
             {"probe_reads", 231},
             {"probe_writes", 1728},
             {"prune_route_mask", 15740},
             {"prune_write_bus", 14767},
             {"read_perms_found", 187},
             {"reject.bus_conflict", 52},
             {"reject.no_good_hit", 36},
             {"reject.route_infeasible", 20},
             {"reject.write_port_conflict", 44},
             {"route_close_failures", 20},
             {"stub_retargets", 58},
             {"table_acquires", 1177},
             {"table_releases", 817},
             {"write_perm_bus_prechecks", 52},
             {"write_perm_failures", 88},
             {"write_perms_found", 156},
         }},
        {"FftU4Pipelined", "FFT-U4", 0, true, 10, 2,
         {
             {"comm_sched_calls", 206},
             {"comm_sched_rejections", 100},
             {"copies_inserted", 35},
             {"copies_reused", 4},
             {"copies_unwound", 9},
             {"copy_feed_unroutable", 11},
             {"copy_range_empty", 1},
             {"copy_schedule_failures", 9},
             {"dfs_nodes", 1000},
             {"nogood_hits", 102},
             {"nogood_inserts", 28},
             {"nogood_invalidations", 432},
             {"nogood_misses", 383},
             {"nogood_probes", 485},
             {"ops_scheduled", 80},
             {"placement_attempts", 206},
             {"probe_reads", 231},
             {"probe_writes", 2008},
             {"prune_route_mask", 12620},
             {"prune_write_bus", 10988},
             {"read_perms_found", 182},
             {"reject.bus_conflict", 9},
             {"reject.no_good_hit", 102},
             {"reject.route_infeasible", 21},
             {"reject.write_port_conflict", 19},
             {"route_close_failures", 21},
             {"stub_retargets", 64},
             {"table_acquires", 991},
             {"table_releases", 620},
             {"write_perm_bus_prechecks", 9},
             {"write_perm_failures", 79},
             {"write_perms_found", 173},
         }},
        {"RandomMachine3Block", nullptr, 3, false, 0, 0,
         {
             {"comm_sched_calls", 21},
             {"comm_sched_rejections", 9},
             {"copies_inserted", 4},
             {"copies_reused", 1},
             {"copies_unwound", 2},
             {"copy_range_empty", 5},
             {"copy_schedule_failures", 1},
             {"dfs_nodes", 189},
             {"nogood_inserts", 13},
             {"nogood_invalidations", 40},
             {"nogood_misses", 43},
             {"nogood_probes", 43},
             {"ops_scheduled", 9},
             {"perm_backtracks", 54},
             {"placement_attempts", 21},
             {"probe_reads", 31},
             {"probe_writes", 131},
             {"prune_write_bus", 88},
             {"read_perms_found", 19},
             {"reject.bus_conflict", 5},
             {"reject.route_infeasible", 6},
             {"reject.write_port_conflict", 8},
             {"route_close_failures", 6},
             {"stub_retargets", 3},
             {"table_acquires", 154},
             {"table_releases", 104},
             {"write_perm_bus_prechecks", 5},
             {"write_perm_failures", 3},
             {"write_perms_found", 18},
         }},
    };
    return jobs;
}

class WritePlanCounters : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(WritePlanCounters, JobMatchesPinnedStats)
{
    setVerboseLogging(false);
    const PinnedJob &job = pinnedJobs()[GetParam()];
    Machine machine = job.kernel ? makeDistributed()
                                 : test::randomMachine(job.randomSeed);
    Kernel kernel = job.kernel
                        ? kernelByName(job.kernel).build()
                        : test::randomMachineKernel(job.randomSeed);
    ScheduleResult result;
    if (job.pipelined) {
        // Serial II search: the stats are the winning attempt's.
        PipelineResult pipe =
            schedulePipelined(kernel, BlockId(0), machine);
        EXPECT_EQ(pipe.ii, job.ii);
        EXPECT_EQ(pipe.attempts, job.attempts);
        result = std::move(pipe.inner);
    } else {
        result = scheduleBlock(kernel, BlockId(0), machine);
    }
    ASSERT_TRUE(result.success) << result.failure;
    // Both paths this change rewrote must have run.
    EXPECT_GT(result.stats.get("write_perm_bus_prechecks"), 0u);
    EXPECT_GT(result.stats.get("copies_inserted"), 0u);

    std::map<std::string, std::uint64_t> actual = result.stats.snapshot();
    for (const auto &[name, value] : job.stats) {
        auto it = actual.find(name);
        ASSERT_TRUE(it != actual.end()) << "missing counter " << name;
        EXPECT_EQ(it->second, value) << name;
    }
    for (const auto &[name, value] : actual) {
        EXPECT_TRUE(job.stats.count(name) == 1)
            << "unpinned counter " << name << "=" << value;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Pinned, WritePlanCounters,
    ::testing::Range<std::size_t>(0, pinnedJobs().size()),
    [](const ::testing::TestParamInfo<std::size_t> &info) {
        return std::string(pinnedJobs()[info.param].tag);
    });

} // namespace
} // namespace cs
