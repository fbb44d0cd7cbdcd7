/**
 * @file
 * The seeded random-machine generator the architecture tests share
 * (test_random_machines.cpp, test_write_plans.cpp): small
 * shared-interconnect machines with random bus wiring, most of them
 * copy-connected, plus a kernel generator restricted to the op mix
 * those machines can execute. The same seed always yields the same
 * machine.
 */

#ifndef CS_TESTS_RANDOM_MACHINE_HPP
#define CS_TESTS_RANDOM_MACHINE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "ir/builder.hpp"
#include "machine/builder.hpp"
#include "support/random.hpp"

namespace cs::test {

/**
 * Random machine: 3-6 units (adders, one load/store), 2-4 register
 * files, 2-4 shared result buses with random output/port wiring, and
 * random read-side wiring of each input to one file. All units copy.
 */
inline Machine
randomMachine(std::uint64_t seed)
{
    Rng rng(seed);
    MachineBuilder b("rand" + std::to_string(seed));

    int num_files = static_cast<int>(rng.uniformInt(2, 4));
    std::vector<RegFileId> files;
    for (int r = 0; r < num_files; ++r) {
        files.push_back(
            b.addRegFile("RF" + std::to_string(r), 32));
    }

    int num_units = static_cast<int>(rng.uniformInt(3, 6));
    std::vector<FuncUnitId> units;
    for (int u = 0; u < num_units; ++u) {
        bool is_ls = u == 0; // exactly one load/store unit
        units.push_back(b.addFuncUnit(
            (is_ls ? "ls" : "fu") + std::to_string(u),
            {is_ls ? OpClass::LoadStore : OpClass::Add,
             OpClass::CopyCls},
            2));
        // Each input reads one random file through a dedicated wire.
        for (int s = 0; s < 2; ++s) {
            RegFileId rf = files[static_cast<std::size_t>(
                rng.uniformInt(0, num_files - 1))];
            b.connectReadDirect(rf, b.input(units[u], s));
        }
    }

    // Shared write-side buses with one shared write port per file.
    int num_buses = static_cast<int>(rng.uniformInt(2, 4));
    std::vector<WritePortId> ports;
    for (RegFileId rf : files)
        ports.push_back(b.addWritePort(rf));
    for (int i = 0; i < num_buses; ++i) {
        BusId bus = b.addBus("bus" + std::to_string(i));
        for (FuncUnitId fu : units) {
            if (rng.chance(0.7))
                b.connectOutputToBus(b.output(fu), bus);
        }
        for (WritePortId wp : ports) {
            if (rng.chance(0.7))
                b.connectBusToWritePort(bus, wp);
        }
    }
    // Guarantee every output reaches something: a fallback bus
    // driving every port.
    BusId fallback = b.addBus("fallback");
    for (FuncUnitId fu : units)
        b.connectOutputToBus(b.output(fu), fallback);
    for (WritePortId wp : ports)
        b.connectBusToWritePort(fallback, wp);

    return b.build();
}

/**
 * Small random integer kernel matching the machine's capabilities.
 * Deliberately not the generator of random_kernel.hpp: random
 * machines only have Add-class units and one load/store unit, so the
 * op mix stays within add/sub/min and loads/stores (no multiplies,
 * logic ops or loop-carried reads).
 */
inline Kernel
randomMachineKernel(std::uint64_t seed)
{
    Rng rng(seed);
    KernelBuilder b("k" + std::to_string(seed));
    b.block("body");
    std::vector<Val> values;
    values.push_back(b.load(1000, 0, "in0"));
    values.push_back(b.load(2000, 0, "in1"));
    auto pick = [&]() {
        return values[static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(values.size()) - 1))];
    };
    int ops = static_cast<int>(rng.uniformInt(6, 14));
    for (int i = 0; i < ops; ++i) {
        switch (rng.uniformInt(0, 3)) {
          case 0: values.push_back(b.iadd(pick(), pick())); break;
          case 1: values.push_back(b.isub(pick(), pick())); break;
          case 2: values.push_back(b.imin(pick(), pick())); break;
          default:
            values.push_back(b.iadd(pick(), rng.uniformInt(-9, 9)));
            break;
        }
    }
    b.store(5000, values.back());
    return b.take();
}

} // namespace cs::test

#endif // CS_TESTS_RANDOM_MACHINE_HPP
