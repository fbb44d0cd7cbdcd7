/**
 * @file
 * Reproduces the abstract/conclusion headline claims by combining the
 * scheduling results with the cost model:
 *
 *  - distributed achieves ~98% of central's performance with ~9% of
 *    the area, ~6% of the power, and ~37% of the access delay;
 *  - distributed achieves ~120% of clustered(4)'s performance with
 *    ~56% of the area and ~50% of the power.
 */

#include <iostream>

#include "bench_common.hpp"
#include "costmodel/machine_cost.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

int
main()
{
    using namespace cs;
    setVerboseLogging(false);

    auto machines = bench::evaluationMachines();

    // Performance: geometric-mean speedups over the kernel suite.
    std::vector<std::vector<double>> speedups(machines.size());
    for (const KernelSpec &spec : allKernels()) {
        int central_ii = 0;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            int ii = scheduleCyclesPerIteration(
                spec, machines[m].machine, true);
            if (m == 0)
                central_ii = ii;
            speedups[m].push_back(static_cast<double>(central_ii) /
                                  ii);
        }
    }
    double dist_perf = geometricMean(speedups[3]);
    double cl4_perf = geometricMean(speedups[2]);

    MachineCost central_cost = machineCost(machines[0].machine);
    MachineCost cl4_cost = machineCost(machines[2].machine);
    MachineCost dist_cost = machineCost(machines[3].machine);
    CostRatios dvc = costRatios(dist_cost, central_cost);
    CostRatios dvcl = costRatios(dist_cost, cl4_cost);

    printBanner(std::cout,
                "Headline claims (abstract / Section 8)");
    TextTable table({"Claim", "Paper", "Measured"});
    table.addRow({"distributed perf vs central", "98%",
                  TextTable::num(100 * dist_perf, 0) + "%"});
    table.addRow({"distributed area vs central", "9%",
                  TextTable::num(100 * dvc.area, 0) + "%"});
    table.addRow({"distributed power vs central", "6%",
                  TextTable::num(100 * dvc.power, 0) + "%"});
    table.addRow({"distributed delay vs central", "37%",
                  TextTable::num(100 * dvc.delay, 0) + "%"});
    table.addRow({"distributed perf vs clustered(4)", "120%",
                  TextTable::num(100 * dist_perf / cl4_perf, 0) +
                      "%"});
    table.addRow({"distributed area vs clustered(4)", "56%",
                  TextTable::num(100 * dvcl.area, 0) + "%"});
    table.addRow({"distributed power vs clustered(4)", "50%",
                  TextTable::num(100 * dvcl.power, 0) + "%"});
    table.print(std::cout);
    return 0;
}
