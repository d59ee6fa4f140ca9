/**
 * @file
 * crisp_perfbench: the repository benchmark's measuring program.
 * perfbench/run.py builds it and runs it; see README.md.
 *
 *   crisp_perfbench --workload fig07_sweep --seed 1 --seconds 20
 *       --trace 0 --out DIR --serve-bin PATH --expected FILE
 *   crisp_perfbench --record --out DIR --serve-bin PATH
 *   crisp_perfbench --selftest --out DIR --expected FILE
 *
 * The last stdout line is the result object; the same numbers, the
 * host fingerprint and the extra counts go to DIR/<workload>.<mode>.json
 * as flat JSON that crisp_report can diff.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "layers.h"

using namespace crisp;
using namespace perfbench;

namespace
{

/** What the build and the host are; fixed by CMake at configure. */
struct Fingerprint
{
    unsigned nproc = std::thread::hardware_concurrency();
    std::string cpu;
    std::string compiler = PERFBENCH_COMPILER;
    std::string buildType = PERFBENCH_BUILD_TYPE;
#ifdef CRISP_CHECKED
    bool checked = true;
#else
    bool checked = false;
#endif
    std::string sanitizer;

    Fingerprint()
    {
        std::ifstream in("/proc/cpuinfo");
        for (std::string line; std::getline(in, line);)
            if (line.rfind("model name", 0) == 0) {
                cpu = line.substr(line.find(':') + 2);
                break;
            }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
        sanitizer = "compiler";
#endif
        if (std::strstr(PERFBENCH_CXX_FLAGS, "-fsanitize"))
            sanitizer = PERFBENCH_CXX_FLAGS;
    }

    /** @return why this build measures a different program, or "". */
    std::string refusal() const
    {
        if (buildType != "Release")
            return "build type is '" + buildType + "', not Release";
        if (checked)
            return "CRISP_CHECKED is on";
        if (!sanitizer.empty())
            return "a sanitizer is on (" + sanitizer + ")";
        return "";
    }
};

std::string
num(double v)
{
    return jsonNumber(v);
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: crisp_perfbench --workload "
                 "fig07_sweep|sampled_long|serve_open --seed N "
                 "--seconds S --trace 0|1 --out DIR --serve-bin PATH "
                 "--expected FILE\n"
                 "       crisp_perfbench --record --out DIR --serve-bin "
                 "PATH\n"
                 "       crisp_perfbench --selftest --out DIR "
                 "--expected FILE\n");
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string expected_path;
    bool record = false, selftest = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            args.workload = value();
        else if (a == "--seed")
            args.seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            args.seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            args.trace = value() == "1";
        else if (a == "--out")
            args.outDir = value();
        else if (a == "--serve-bin")
            args.serveBin = value();
        else if (a == "--expected")
            expected_path = value();
        else if (a == "--record")
            record = true;
        else if (a == "--selftest")
            selftest = true;
        else {
            usage();
            return 2;
        }
    }
    if (args.outDir.empty() || args.seconds <= 0) {
        usage();
        return 2;
    }

    const Fingerprint host;
    args.jobs = host.nproc ? host.nproc : 1;
    if (std::string why = host.refusal(); !why.empty()) {
        std::fprintf(stderr, "crisp_perfbench: refusing to measure: %s\n",
                     why.c_str());
        return 3;
    }

    if (record) {
        const std::string fig07 = recordFig07(args);
        const std::string sampled = recordSampledLong(args);
        const std::string serve = recordServeOpen(args);
        std::printf("{\n  \"fig07_sweep\": %s,\n  \"sampled_long\": %s,\n"
                    "  \"serve_open\": %s\n}\n",
                    fig07.c_str(), sampled.c_str(), serve.c_str());
        return 0;
    }

    JsonValue expected;
    {
        std::ifstream in(expected_path);
        std::stringstream ss;
        ss << in.rdbuf();
        std::string err;
        if (!in || !parseJson(ss.str(), expected, &err)) {
            std::fprintf(stderr, "crisp_perfbench: cannot read %s: %s\n",
                         expected_path.c_str(), err.c_str());
            return 2;
        }
    }
    if (selftest) {
        args.expected = &expected.at("fig07_sweep");
        bool pass = selfTestGate(args);
        std::fprintf(stderr, "self-test %s\n", pass ? "passed" : "FAILED");
        return pass ? 0 : 1;
    }

    void (*run)(const RunArgs &, Outcome &) = nullptr;
    if (args.workload == "fig07_sweep")
        run = runFig07Sweep;
    else if (args.workload == "sampled_long")
        run = runSampledLong;
    else if (args.workload == "serve_open")
        run = runServeOpen;
    if (!run || !expected.has(args.workload)) {
        usage();
        return 2;
    }
    args.expected = &expected.at(args.workload);

    Outcome out;
    run(args, out);
    if (args.trace)
        fillAbsentLayers(out);
    if (out.attempted == 0)
        out.check(false);
    const double fail_share = double(out.failed) / double(out.attempted);
    const bool correct = out.valid && out.failed == 0;

    // Flat results file: fingerprint, counts and every number.
    std::string flat = "{\n  \"host.nproc\": " + num(host.nproc) +
                       ",\n  \"host.cpu_model\": " + jsonQuote(host.cpu) +
                       ",\n  \"host.compiler\": " +
                       jsonQuote(host.compiler) +
                       ",\n  \"host.build_type\": " +
                       jsonQuote(host.buildType) +
                       ",\n  \"host.checked\": " + num(host.checked) +
                       ",\n  \"host.sanitizer\": " +
                       jsonQuote(host.sanitizer.empty() ? "none"
                                                        : host.sanitizer) +
                       ",\n  \"run.seed\": " + num(double(args.seed)) +
                       ",\n  \"run.valid\": " + num(out.valid) +
                       ",\n  \"run.attempted\": " +
                       num(double(out.attempted)) +
                       ",\n  \"run.failed\": " + num(double(out.failed)) +
                       ",\n  \"fail_share\": " + num(fail_share);
    for (const auto &[name, v] : out.extra)
        flat += ",\n  " + jsonQuote(name) + ": " + num(v);
    for (const auto &[name, m] : out.metrics)
        flat += ",\n  " + jsonQuote(name) + ": " + num(m.value);
    flat += "\n}\n";
    const std::string flat_path = args.outDir + "/" + args.workload +
                                  (args.trace ? ".traced" : ".e2e") +
                                  ".json";
    std::ofstream(flat_path) << flat;

    std::string metrics;
    for (const auto &[name, m] : out.metrics)
        metrics += std::string(metrics.empty() ? "" : ", ") +
                   jsonQuote(name) + ": {\"value\": " + num(m.value) +
                   ", \"unit\": " + jsonQuote(m.unit) + "}";
    std::fprintf(stderr,
                 "host: %u x %s | %s | %s | checked %d | sanitizer %s\n"
                 "results: %s (fail_share %g)\n",
                 host.nproc, host.cpu.c_str(), host.compiler.c_str(),
                 host.buildType.c_str(), int(host.checked),
                 host.sanitizer.empty() ? "none" : host.sanitizer.c_str(),
                 flat_path.c_str(), fail_share);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metrics.c_str());
    return 0;
}
