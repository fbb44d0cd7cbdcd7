/**
 * @file
 * Reproduces Figure 28: per-kernel speedup versus register-file
 * architecture. Speedup is the inverse of the software-pipelined
 * loop's schedule length (the achieved II), normalized to the central
 * register file architecture — exactly the paper's metric.
 */

#include <iostream>

#include "bench_common.hpp"
#include "support/logging.hpp"

int
main()
{
    using namespace cs;
    setVerboseLogging(false);

    auto machines = bench::evaluationMachines();
    printBanner(std::cout, "Figure 28: Kernel Speedup vs Register "
                           "File Architecture");
    std::cout << "speedup = central II / architecture II "
                 "(software-pipelined loop)\n\n";

    TextTable table({"Kernel", "Central", "Clustered (2)",
                     "Clustered (4)", "Distributed", "copies(d)"});
    for (const KernelSpec &spec : allKernels()) {
        std::vector<std::string> row{spec.name};
        int central_ii = 0;
        int dist_copies = 0;
        for (std::size_t m = 0; m < machines.size(); ++m) {
            KernelRunResult result =
                runKernel(spec, machines[m].machine, true);
            if (!result.scheduled) {
                CS_FATAL("schedule failed: ", spec.name, " on ",
                         machines[m].name);
            }
            CS_ASSERT(result.valid && result.matches,
                      "invalid schedule in bench for ", spec.name);
            if (m == 0)
                central_ii = result.cyclesPerIteration;
            if (m == 3)
                dist_copies = result.copies;
            double speedup = static_cast<double>(central_ii) /
                             result.cyclesPerIteration;
            row.push_back(TextTable::num(speedup, 2) + " (II=" +
                          std::to_string(result.cyclesPerIteration) +
                          ")");
        }
        row.push_back(std::to_string(dist_copies));
        table.addRow(row);
    }
    table.print(std::cout);
    std::cout << "\nAll schedules validated structurally and executed "
                 "on the datapath simulator\nbit-exactly against the "
                 "scalar references before being reported.\n";
    return 0;
}
