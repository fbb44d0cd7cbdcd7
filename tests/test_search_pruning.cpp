/**
 * @file
 * Toggle-equivalence for the failure-learning layer (DESIGN.md §5d):
 * the no-good cache and cross-attempt no-good reuse are exact
 * accelerations — turning either of them off may change wall time,
 * never a schedule. Seeded random kernels scheduled
 * on every standard machine must produce byte-identical canonical
 * listings and identical budget-exhaustion outcomes with pruning
 * forced off versus on, for plain blocks and for the pipelined sweep
 * (which exercises the cross-attempt exchange). CS_TEST_SEED
 * overrides the seed list with a single seed for reproduction.
 *
 * The golden-listing suite (test_sched_equivalence.cpp) pins all 80
 * fingerprints with the default options — pruning on — so this file
 * only needs to hold the off-vs-on direction.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/export.hpp"
#include "core/list_scheduler.hpp"
#include "core/modulo_scheduler.hpp"
#include "core/nogood.hpp"
#include "ir/builder.hpp"
#include "ir/verifier.hpp"
#include "machine/builders.hpp"
#include "support/random.hpp"
#include "random_kernel.hpp"

namespace cs {
namespace {

using test::randomKernel;

std::vector<std::uint64_t>
testSeeds()
{
    if (const char *env = std::getenv("CS_TEST_SEED"))
        return {std::strtoull(env, nullptr, 10)};
    return {11, 47, 2026};
}

std::vector<Machine>
standardMachines()
{
    std::vector<Machine> machines;
    machines.push_back(makeCentral());
    machines.push_back(makeClustered({}, 2));
    machines.push_back(makeClustered({}, 4));
    machines.push_back(makeDistributed());
    return machines;
}

SchedulerOptions
withPruning(bool noGood, bool crossAttempt)
{
    SchedulerOptions options;
    options.noGoodCache = noGood;
    options.crossAttemptNoGoods = crossAttempt;
    return options;
}

/** The off/partial configurations compared against all-on. */
std::vector<SchedulerOptions>
ablations()
{
    return {
        withPruning(false, false), // everything off
        withPruning(true, false),  // cache only, no cross-attempt reuse
    };
}

TEST(SearchPruning, BlockListingsIdenticalOffVsOn)
{
    SchedulerOptions reference = withPruning(true, true);
    for (std::uint64_t seed : testSeeds()) {
        Kernel kernel = randomKernel(seed, 20, false);
        ASSERT_TRUE(verifyKernel(kernel).empty());
        for (const Machine &machine : standardMachines()) {
            ScheduleResult on =
                scheduleBlock(kernel, BlockId(0), machine, reference);
            std::string on_listing =
                on.success ? exportListing(on.kernel, machine,
                                           on.schedule)
                           : "";
            for (const SchedulerOptions &ablated : ablations()) {
                ScheduleResult off = scheduleBlock(kernel, BlockId(0),
                                                   machine, ablated);
                ASSERT_EQ(on.success, off.success)
                    << "seed " << seed << " on " << machine.name();
                if (!on.success)
                    continue;
                EXPECT_EQ(on_listing,
                          exportListing(off.kernel, machine,
                                        off.schedule))
                    << "seed " << seed << " on " << machine.name();
                EXPECT_EQ(on.stats.get("attempt_budget_exhausted"),
                          off.stats.get("attempt_budget_exhausted"))
                    << "seed " << seed << " on " << machine.name();
                EXPECT_EQ(on.stats.get("placement_attempts"),
                          off.stats.get("placement_attempts"))
                    << "seed " << seed << " on " << machine.name();
            }
        }
    }
}

TEST(SearchPruning, PipelinedListingsIdenticalOffVsOn)
{
    // Carried kernels through the modulo sweep: the II search seeds
    // each attempt from the cross-attempt exchange, so this covers
    // no-good migration between attempts, not just within one run.
    SchedulerOptions reference = withPruning(true, true);
    for (std::uint64_t seed : testSeeds()) {
        Kernel kernel = randomKernel(seed, 12, true);
        ASSERT_TRUE(verifyKernel(kernel).empty());
        for (const Machine &machine : standardMachines()) {
            PipelineResult on = schedulePipelined(kernel, BlockId(0),
                                                  machine, reference);
            for (const SchedulerOptions &ablated : ablations()) {
                PipelineResult off = schedulePipelined(
                    kernel, BlockId(0), machine, ablated);
                ASSERT_EQ(on.success, off.success)
                    << "seed " << seed << " on " << machine.name();
                if (!on.success)
                    continue;
                EXPECT_EQ(on.ii, off.ii)
                    << "seed " << seed << " on " << machine.name();
                EXPECT_EQ(on.attempts, off.attempts)
                    << "seed " << seed << " on " << machine.name();
                EXPECT_EQ(exportListing(on.inner.kernel, machine,
                                        on.inner.schedule),
                          exportListing(off.inner.kernel, machine,
                                        off.inner.schedule))
                    << "seed " << seed << " on " << machine.name();
            }
        }
    }
}

TEST(SearchPruning, BudgetExhaustionOutcomesIdentical)
{
    // Starve the search so budget-exhaustion paths actually fire; the
    // budget is charged at identical points with pruning on or off,
    // so the outcome — success flag, failure kind, exhaustion
    // counters — must match exactly.
    for (std::uint64_t seed : testSeeds()) {
        Kernel kernel = randomKernel(seed, 20, false);
        Machine machine = makeDistributed();
        SchedulerOptions on = withPruning(true, true);
        on.perOpAttemptBudget = 40;
        on.permutationBudget = 60;
        on.copyAttemptBudget = 10;
        SchedulerOptions off = on;
        off.noGoodCache = false;
        off.crossAttemptNoGoods = false;

        ScheduleResult a = scheduleBlock(kernel, BlockId(0), machine,
                                         on);
        ScheduleResult b = scheduleBlock(kernel, BlockId(0), machine,
                                         off);
        ASSERT_EQ(a.success, b.success) << "seed " << seed;
        EXPECT_EQ(a.stats.get("attempt_budget_exhausted"),
                  b.stats.get("attempt_budget_exhausted"))
            << "seed " << seed;
        EXPECT_EQ(a.stats.get("perm_budget_exhausted"),
                  b.stats.get("perm_budget_exhausted"))
            << "seed " << seed;
        if (a.success) {
            EXPECT_EQ(exportListing(a.kernel, machine, a.schedule),
                      exportListing(b.kernel, machine, b.schedule))
                << "seed " << seed;
        } else {
            EXPECT_EQ(a.failure, b.failure) << "seed " << seed;
        }
    }
}

TEST(NoGoodTableTest, InsertContainsAndDedup)
{
    NoGoodTable table;
    EXPECT_FALSE(table.contains(42));
    EXPECT_TRUE(table.insert(42));
    EXPECT_TRUE(table.contains(42));
    EXPECT_FALSE(table.insert(42)); // duplicate
    EXPECT_EQ(table.size(), 1u);

    // A zero signature is remapped, not confused with empty slots.
    EXPECT_FALSE(table.contains(0));
    EXPECT_TRUE(table.insert(0));
    EXPECT_TRUE(table.contains(0));
    EXPECT_FALSE(table.insert(0));
}

TEST(NoGoodTableTest, GrowthKeepsEveryEntry)
{
    NoGoodTable table;
    Rng rng(7);
    std::vector<std::uint64_t> sigs;
    for (int i = 0; i < 5000; ++i)
        sigs.push_back(static_cast<std::uint64_t>(
                           rng.uniformInt(1, (1LL << 62))) |
                       (static_cast<std::uint64_t>(i) << 1));
    for (std::uint64_t sig : sigs)
        table.insert(sig);
    for (std::uint64_t sig : sigs)
        EXPECT_TRUE(table.contains(sig));
    EXPECT_EQ(table.evictions(), 0u);
}

TEST(NoGoodTableTest, ClearEmptiesTheTable)
{
    NoGoodTable table;
    table.insert(1);
    table.insert(2);
    table.clear();
    EXPECT_EQ(table.size(), 0u);
    EXPECT_FALSE(table.contains(1));
    EXPECT_FALSE(table.contains(2));
}

TEST(NoGoodExchangeTest, PublishSnapshotAndDedup)
{
    NoGoodExchange exchange;
    exchange.publish({10, 20, 30});
    exchange.publish({20, 40}); // 20 deduplicated
    EXPECT_EQ(exchange.size(), 4u);

    std::vector<std::uint64_t> snap;
    exchange.snapshotInto(snap);
    ASSERT_EQ(snap.size(), 4u);
    // Publication order is preserved (snapshots seed deterministic
    // table fills).
    EXPECT_EQ(snap[0], 10u);
    EXPECT_EQ(snap[1], 20u);
    EXPECT_EQ(snap[2], 30u);
    EXPECT_EQ(snap[3], 40u);
}

TEST(SearchPruning, DefaultOptionsEnableAllPruning)
{
    // The golden fingerprints are pinned with the defaults; this
    // guards that the defaults actually exercise the pruning layer.
    SchedulerOptions defaults;
    EXPECT_TRUE(defaults.noGoodCache);
    EXPECT_TRUE(defaults.crossAttemptNoGoods);
}

} // namespace
} // namespace cs
