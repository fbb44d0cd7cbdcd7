/**
 * @file
 * Property test over *architectures*: the paper claims communication
 * scheduling works for the whole class of copy-connected machines
 * (Appendix A), not just the four evaluated ones. Generate random
 * shared-interconnect machines; whenever the generator produces a
 * copy-connected one, random kernels must schedule, validate, and
 * simulate on it.
 */

#include <gtest/gtest.h>

#include "core/list_scheduler.hpp"
#include "ir/verifier.hpp"
#include "random_machine.hpp"
#include "sim/datapath_sim.hpp"

namespace cs {
namespace {

class MachineFuzz : public ::testing::TestWithParam<int>
{
};

TEST_P(MachineFuzz, CopyConnectedMachinesSchedule)
{
    std::uint64_t seed = GetParam();
    Machine machine = test::randomMachine(seed);

    std::string why;
    if (!machine.checkCopyConnected(&why)) {
        GTEST_SKIP() << "not copy-connected: " << why;
    }

    for (int k = 0; k < 3; ++k) {
        Kernel kernel = test::randomMachineKernel(seed * 10 + k);
        ASSERT_TRUE(verifyKernel(kernel).empty());
        ScheduleResult result =
            scheduleBlock(kernel, BlockId(0), machine);
        ASSERT_TRUE(result.success)
            << machine.name() << ": " << result.failure;
        auto problems =
            validateSchedule(result.kernel, machine, result.schedule);
        for (const auto &p : problems)
            ADD_FAILURE() << machine.name() << ": " << p;

        MemoryImage mem;
        mem.storeInt(1000, 7);
        mem.storeInt(2000, -3);
        SimResult sim = simulateBlock(result.kernel, machine,
                                      result.schedule, mem, 1);
        for (const auto &p : sim.problems)
            ADD_FAILURE() << machine.name() << ": sim: " << p;
    }
}

TEST_P(MachineFuzz, GeneratedMachinesAreUsuallyConnected)
{
    // Sanity on the generator itself: the fallback bus makes most
    // machines copy-connected (every unit copies and can write every
    // file; reads are the only constraint).
    Machine machine = test::randomMachine(GetParam());
    std::string why;
    EXPECT_TRUE(machine.checkCopyConnected(&why)) << why;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineFuzz,
                         ::testing::Range(100, 120));

} // namespace
} // namespace cs
