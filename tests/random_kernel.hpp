/**
 * @file
 * The seeded random-kernel generator the fuzz-style tests share
 * (test_property.cpp, test_search_pruning.cpp): a single-block DAG of
 * integer arithmetic over earlier results, optionally with
 * loop-carried operands, ending in two stores so every value is
 * observable. The same seed always yields the same kernel.
 *
 * Random machines (random_machine.hpp) have their own, smaller
 * kernel generator on purpose: they only carry the add/sub/min units,
 * so its op mix is restricted to what they can execute.
 */

#ifndef CS_TESTS_RANDOM_KERNEL_HPP
#define CS_TESTS_RANDOM_KERNEL_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "support/random.hpp"

namespace cs::test {

/** Random DAG kernel: @p numOps arithmetic ops over earlier results;
 *  @p carried lets some read values from earlier iterations. */
inline Kernel
randomKernel(std::uint64_t seed, int numOps, bool carried)
{
    Rng rng(seed);
    KernelBuilder b("fuzz" + std::to_string(seed));
    b.block("loop", true);
    std::vector<Val> values;
    values.push_back(b.load(1000, 1, "in0"));
    values.push_back(b.load(2000, 1, "in1"));

    auto pick = [&]() -> Val {
        return values[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(values.size()) - 1))];
    };

    for (int i = 0; i < numOps; ++i) {
        int kind = static_cast<int>(rng.uniformInt(0, 9));
        Val a = pick();
        Val b2 = pick();
        Val out;
        switch (kind) {
          case 0: out = b.iadd(a, b2); break;
          case 1: out = b.isub(a, b2); break;
          case 2: out = b.imin(a, b2); break;
          case 3: out = b.imax(a, b2); break;
          case 4: out = b.ixor(a, b2); break;
          case 5: out = b.imul(a, b2); break;
          case 6: out = b.iand(a, b2); break;
          case 7: out = b.iadd(a, rng.uniformInt(-9, 9)); break;
          case 8:
            if (carried) {
                out = b.iadd(
                    a.at(static_cast<int>(rng.uniformInt(1, 3))), b2);
            } else {
                out = b.ior(a, b2);
            }
            break;
          default: out = b.load(3000 + i, 1); break;
        }
        values.push_back(out);
    }
    // Store a couple of results so everything is observable.
    b.store(5000, values.back(), 1);
    b.store(6000, values[values.size() / 2], 1);
    return b.take();
}

} // namespace cs::test

#endif // CS_TESTS_RANDOM_KERNEL_HPP
