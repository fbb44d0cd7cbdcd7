/**
 * @file
 * Shared plumbing for the benchmark binaries: the four evaluation
 * machines and the cycles-per-iteration measurement used by the
 * Figure 28/29 reproductions.
 */

#ifndef CS_BENCH_COMMON_HPP
#define CS_BENCH_COMMON_HPP

#include <string>
#include <vector>

#include "machine/builders.hpp"
#include "sim/harness.hpp"
#include "support/table.hpp"

namespace cs {
namespace bench {

/** One of the paper's evaluation machines. */
struct EvaluationMachine
{
    /** Lowercase id: the machine field of BENCH_sched.json entries. */
    std::string id;
    /** Display name for the paper-vs-measured tables. */
    std::string name;
    Machine machine;
};

/** The paper's four register-file architectures (Section 5). */
inline std::vector<EvaluationMachine>
evaluationMachines()
{
    std::vector<EvaluationMachine> machines;
    machines.push_back({"central", "Central", makeCentral()});
    machines.push_back(
        {"clustered2", "Clustered (2)", makeClustered({}, 2)});
    machines.push_back(
        {"clustered4", "Clustered (4)", makeClustered({}, 4)});
    machines.push_back({"distributed", "Distributed", makeDistributed()});
    return machines;
}

/** Paper Figure 29 values, for side-by-side printing. */
inline double
paperOverallSpeedup(std::size_t machineIndex)
{
    static const double kPaper[4] = {1.00, 0.82, 0.82, 0.98};
    return kPaper[machineIndex];
}

} // namespace bench
} // namespace cs

#endif // CS_BENCH_COMMON_HPP
