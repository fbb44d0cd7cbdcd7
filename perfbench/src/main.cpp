/**
 * @file
 * cs_perfbench: the repository benchmark program (see ../README.md).
 *
 *   cs_perfbench --workload compile_suite|dse_sweep
 *                --seed N --seconds S --trace 0|1
 *                [--root DIR] [--scratch DIR]
 *
 * --trace 0 runs the named workload with every tracer off and reports
 * its end-to-end metrics. --trace 1 reports every per-layer metric,
 * whatever workload is named: the per-layer set spans the layers of
 * compile_suite, serve_mix and dse_sweep, so it runs the traced pass
 * of each, the named workload first. The seed selects the inputs. The
 * last stdout line is the JSON result.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/logging.hpp"

namespace {

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "cs_perfbench: " << why
              << "\nusage: cs_perfbench --workload compile_suite|"
                 "dse_sweep --seed N --seconds S --trace 0|1 "
                 "[--root DIR] [--scratch DIR]\n";
    std::exit(2);
}

pb::Options
parseArgs(int argc, char **argv)
{
    pb::Options options;
    bool haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (arg == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            options.trace = value == "1";
            haveTrace = true;
        } else if (arg == "--root") {
            options.root = value;
        } else if (arg == "--scratch") {
            options.scratch = value;
        } else {
            usage("unknown argument '" + arg + "'");
        }
        if (end != nullptr && *end != '\0')
            usage("bad number for " + arg + ": '" + value + "'");
    }
    if (options.workload != "compile_suite" &&
        options.workload != "dse_sweep")
        usage("unknown workload '" + options.workload + "'");
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    if (!haveTrace)
        usage("--trace is required");
    if (options.scratch.empty())
        options.scratch = ".bench_build/run";
    options.nproc = std::max(1u, std::thread::hardware_concurrency());
    return options;
}

/** Run the timed workload, or the traced pass of every workload. */
void
run(const pb::Options &options, pb::Report &report)
{
    bool compileFirst = options.workload == "compile_suite";
    if (!options.trace) {
        if (compileFirst)
            pb::runCompileSuite(options, report);
        else
            pb::runDseSweep(options, report);
        return;
    }
    pb::layer::setEnabled(true);
    if (compileFirst)
        pb::traceCompileSuite(options, report);
    else
        pb::traceDseSweep(options, report);
    pb::traceServeMix(options, report);
    if (compileFirst)
        pb::traceDseSweep(options, report);
    else
        pb::traceCompileSuite(options, report);
    pb::layer::setEnabled(false);
    auto totals = pb::layer::aggregate();
    for (int m = 0; m < pb::layer::kNumModules; ++m) {
        const char *name = pb::layer::kModuleNames[m];
        report.requireOps(std::string("layer ") + name, totals[m].calls);
        report.metric(std::string("self_ms.") + name, totals[m].selfMs,
                      "ms");
        report.metric(std::string("calls.") + name,
                      static_cast<double>(totals[m].calls), "count");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    pb::Options options = parseArgs(argc, argv);
    cs::setVerboseLogging(false);
    std::filesystem::create_directories(options.scratch);

    std::cout << "{\"stamp\": {\"nproc\": " << options.nproc
              << ", \"build_type\": \"" << PB_BUILD_TYPE
              << "\", \"compiler\": \"" << PB_COMPILER
              << "\", \"workload\": \"" << options.workload
              << "\", \"seed\": " << options.seed
              << ", \"seconds\": " << options.seconds
              << ", \"trace\": " << (options.trace ? 1 : 0) << "}}\n";

    pb::Report report;
    try {
        run(options, report);
    } catch (const pb::RunAborted &e) {
        std::cerr << "cs_perfbench: " << e.what() << "\n";
        return 3;
    }
    report.print();
    return 0;
}
