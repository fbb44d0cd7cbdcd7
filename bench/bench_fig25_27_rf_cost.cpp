/**
 * @file
 * Reproduces the area/power/delay bars of Figures 25-27: the cost of
 * each register-file organization, normalized to the central file,
 * from the Rixner-style grid model ([15]).
 */

#include <iostream>

#include "bench_common.hpp"
#include "costmodel/machine_cost.hpp"
#include "support/logging.hpp"

int
main()
{
    using namespace cs;
    setVerboseLogging(false);

    auto machines = bench::evaluationMachines();
    printBanner(std::cout, "Figures 25-27: Register File Organization "
                           "Cost (normalized to central)");

    MachineCost central = machineCost(machines[0].machine);
    TextTable table(
        {"Architecture", "Area", "Power", "Delay", "area bar"});
    for (const bench::EvaluationMachine &m : machines) {
        MachineCost cost = machineCost(m.machine);
        CostRatios r = costRatios(cost, central);
        table.addRow({m.name, TextTable::num(r.area, 3),
                      TextTable::num(r.power, 3),
                      TextTable::num(r.delay, 3),
                      textBar(r.area, 30)});
    }
    table.print(std::cout);

    std::cout << "\nPaper (distributed vs central): area 0.09, power "
                 "0.06, delay 0.37\n";
    MachineCost dist = machineCost(machines[3].machine);
    MachineCost cl4 = machineCost(machines[2].machine);
    CostRatios dvc = costRatios(dist, central);
    CostRatios dvcl = costRatios(dist, cl4);
    std::cout << "Measured: area " << TextTable::num(dvc.area, 3)
              << ", power " << TextTable::num(dvc.power, 3)
              << ", delay " << TextTable::num(dvc.delay, 3) << "\n";
    std::cout << "Paper (distributed vs clustered-4): area 0.56, "
                 "power 0.50\n";
    std::cout << "Measured: area " << TextTable::num(dvcl.area, 3)
              << ", power " << TextTable::num(dvcl.power, 3) << "\n";
    return 0;
}
