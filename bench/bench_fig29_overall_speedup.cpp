/**
 * @file
 * Reproduces Figure 29: overall speedup per register-file
 * architecture, the geometric mean of the per-kernel speedups of
 * Figure 28. Paper values: 1.00 / 0.82 / 0.82 / 0.98.
 */

#include <iostream>

#include "bench_common.hpp"
#include "support/logging.hpp"
#include "support/stats.hpp"

int
main()
{
    using namespace cs;
    setVerboseLogging(false);

    auto machines = bench::evaluationMachines();
    printBanner(std::cout, "Figure 29: Overall Speedup vs Register "
                           "File Architecture");

    std::vector<std::vector<double>> speedups(machines.size());
    std::vector<double> minimums(machines.size(), 1e9);
    for (const KernelSpec &spec : allKernels()) {
        int central_ii = 0;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            int ii = scheduleCyclesPerIteration(
                spec, machines[m].machine, true);
            if (m == 0)
                central_ii = ii;
            double s = static_cast<double>(central_ii) / ii;
            speedups[m].push_back(s);
            minimums[m] = std::min(minimums[m], s);
        }
    }

    TextTable table({"Architecture", "Overall (geomean)", "Minimum",
                     "Paper overall", "bar"});
    for (std::size_t m = 0; m < machines.size(); ++m) {
        double overall = geometricMean(speedups[m]);
        table.addRow({machines[m].name, TextTable::num(overall, 2),
                      TextTable::num(minimums[m], 2),
                      TextTable::num(bench::paperOverallSpeedup(m), 2),
                      textBar(overall, 30)});
    }
    table.print(std::cout);
    std::cout << "\nShape check: distributed tracks central closely "
                 "while both clustered\nvariants pay for inter-cluster "
                 "copies, as in the paper.\n";
    return 0;
}
