/**
 * @file
 * Shared pieces of the repository benchmark (see README.md): the
 * result record each workload fills, timing and quantile helpers,
 * simulated-output digests, the expected-digest table and the
 * host-process probes.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cpu/core.h"
#include "telemetry/json.h"

namespace perfbench
{

/** Seconds on the steady clock since an arbitrary epoch. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** One named metric with its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * What one benchmark run reports: operation counts for the
 * correctness gate, the metrics of the selected mode, and extra flat
 * fields (sample counts, attribution) that go only to the results
 * file.
 */
struct Outcome
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** False when the run itself is invalid (e.g. the open-loop
     *  generator fell too far behind its schedule). */
    bool valid = true;
    std::map<std::string, Metric> metrics;
    std::map<std::string, double> extra;

    void set(const std::string &name, double v, const char *unit)
    {
        metrics[name] = Metric{v, unit};
    }
    /** Counts one checked operation; @p ok false counts a failure. */
    void check(bool ok)
    {
        ++attempted;
        failed += ok ? 0 : 1;
    }
};

/** Run-wide settings shared by every workload. */
struct RunArgs
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 1;      ///< worker count (nproc)
    std::string outDir;     ///< scratch/output directory
    std::string serveBin;   ///< path of the crisp_serve binary
    const crisp::JsonValue *expected = nullptr; ///< this workload's table
};

/** @return the median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * @return the @p p-th quantile (0..1) of @p v by linear
 *         interpolation between order statistics (0 when empty).
 */
double quantile(std::vector<double> v, double p);

/** @return "0x<16 hex>" FNV-1a 64 of @p text. */
std::string digestOf(const std::string &text);

/** @return the digest of @p s's full registry export under @p label. */
std::string statsDigest(const crisp::CoreStats &s,
                        const std::string &label);

/** @return @p field ("VmHWM", "VmSize", "Threads") of
 *          /proc/<pid>/status in its own unit (kB or count), or -1. */
double procStatus(int pid, const char *field);

/** @return the number of open file descriptors of @p pid, or -1. */
double procFdCount(int pid);

/** @return the expected string at @p key of @p table ("" if absent). */
std::string expectedText(const crisp::JsonValue *table,
                         const std::string &key);

/** @return the expected number at @p key of @p table, or NaN. */
double expectedNumber(const crisp::JsonValue *table,
                      const std::string &key);

/** A deterministic stream for seeded input generation. */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 1)
    {}
    uint64_t next()
    {
        s_ += 0x9e3779b97f4a7c15ULL;
        uint64_t z = s_;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /** Fisher-Yates shuffle of @p v. */
    template <typename T> void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[next() % i]);
    }

  private:
    uint64_t s_;
};

// Workloads (workloads.cpp, serve.cpp). Each fills @p out with its
// end-to-end metrics (trace off) or its per-layer metrics (trace on).
void runFig07Sweep(const RunArgs &args, Outcome &out);
void runSampledLong(const RunArgs &args, Outcome &out);
void runServeOpen(const RunArgs &args, Outcome &out);

/**
 * Records the expected digests of every workload into @p out, a JSON
 * object keyed by workload name (the `--record` mode).
 */
std::string recordFig07(const RunArgs &args);
std::string recordSampledLong(const RunArgs &args);
std::string recordServeOpen(const RunArgs &args);

/**
 * Self-test of the correctness gate: one fig07 sweep checked against
 * the recorded digests, then again with one digest corrupted.
 * @return true when the clean check counts no failure and the
 *         corrupted one counts exactly one.
 */
bool selfTestGate(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
