/**
 * @file
 * The batch workloads: fig07_sweep (evaluateAll over a pre-built
 * ArtifactCache) and sampled_long (a cold and a repeat sampled pass
 * over an on-disk warm-artifact directory). See README.md for why each
 * was chosen and what every metric means on it.
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "bench.h"
#include "layers.h"
#include "sim/artifact_cache.h"
#include "sim/driver.h"
#include "sim/sampled.h"
#include "sim/stats.h"
#include "sim/thread_pool.h"
#include "sim/warm_store.h"
#include "telemetry/runtime_trace.h"

using namespace crisp;

namespace perfbench
{

namespace
{

// fig07_ipc's default evaluation: trace lengths, IST sizes, machine.
const EvalSizes kFig07Sizes{250'000, 500'000};
const std::vector<std::string> kIsts = {"1K", "8K", "64K", "inf"};

// sampled_long: mcf runs to its natural end (~5.3M ops) well inside
// this cap; a trace that reaches the cap is reported as a failure.
const char *const kLongWorkload = "mcf";
const uint64_t kLongCapOps = 6'000'000;
const uint64_t kLongTrainOps = 200'000;
const uint64_t kLongSampleOps = 200'000;

/** Whole-run numbers of one repetition of a batch workload. */
struct Rep
{
    double wallS = 0;
    double setupS = 0;
    double repeatS = 0;
    uint64_t retired = 0;
    std::vector<double> jobS; ///< latency of each job in the rep
    ArtifactCache::Counters cache;
};

/**
 * Repeats @p rep until @p seconds have been spent (at least
 * @p min_reps times) and stores the end-to-end metrics: medians over
 * the repetitions, job quantiles too (each rep's own quantile, so one
 * slow rep cannot own the p95 of a run with few jobs per rep). Set-up
 * is sampled @p setups more times through @p setup_only first, so
 * setup_s is a median of more samples than there are repetitions.
 */
void
measureReps(const RunArgs &args, unsigned min_reps,
            const std::function<Rep()> &rep,
            const std::function<double()> &setup_only, unsigned setups,
            Outcome &out)
{
    std::vector<double> wall, setup, repeat, mops, job50, job95, rss;
    size_t jobs = 0;
    double t0 = now();
    for (unsigned k = 0; k < setups; ++k)
        setup.push_back(setup_only());
    while (wall.size() < min_reps || now() - t0 < args.seconds) {
        // Return freed memory and reset the peak-RSS mark, so each
        // repetition's peak is its own.
        malloc_trim(0);
        std::ofstream("/proc/self/clear_refs") << "5";
        Rep r = rep();
        rss.push_back(procStatus(getpid(), "VmHWM") / 1024.0);
        wall.push_back(r.wallS);
        setup.push_back(r.setupS);
        repeat.push_back(r.repeatS);
        mops.push_back(double(r.retired) / (r.wallS - r.setupS) / 1e6);
        job50.push_back(quantile(r.jobS, 0.50) * 1e3);
        job95.push_back(quantile(r.jobS, 0.95) * 1e3);
        jobs += r.jobS.size();
    }
    out.set("wall_s", median(wall), "s");
    out.set("setup_s", median(setup), "s");
    out.set("sim_mops", median(mops), "Mops/s");
    out.set("repeat_s", median(repeat), "s");
    out.set("job_p50_ms", median(job50), "ms");
    out.set("job_p95_ms", median(job95), "ms");
    out.set("peak_rss_mb", median(rss), "MB");
    out.extra["reps"] = double(wall.size());
    out.extra["jobs.samples"] = double(jobs);
    out.extra["setup_s.min"] = quantile(setup, 0);
    out.extra["setup_s.max"] = quantile(setup, 1);
    out.extra["wall_s.min"] = quantile(wall, 0);
    out.extra["wall_s.max"] = quantile(wall, 1);
}

/**
 * Runs @p rep once untraced and once under a RuntimeTracer with the
 * benchmark's own spans, then the per-layer probes; stores the
 * per-layer metrics and writes the Chrome trace and the attribution
 * report under args.outDir.
 */
void
traceReps(const RunArgs &args, const std::function<Rep()> &rep,
          const std::vector<std::string> &batch_spans,
          const ProbeSet &probes, Outcome &out)
{
    const double untraced = rep().wallS;
    RuntimeTracer tracer;
    tracer.activate();
    Rep traced;
    {
        TraceSpan span("bench", "run");
        traced = rep();
    }
    probeLayers(probes, out);
    tracer.deactivate();

    const std::string json = tracer.toJson();
    std::ofstream(args.outDir + "/" + args.workload + ".trace.json")
        << json;
    SpanSet spans = parseTrace(json);
    const Span *run = findSpan(spans, "run");
    const double begin = run ? run->ts : 0;
    const double wall = run ? run->dur / 1e6 : traced.wallS;
    std::string report = attribute(spans, begin, wall, args.jobs, out);
    poolMetrics(spans, begin, wall, args.jobs, batch_spans, out);
    out.set("sim.artifact_cache.hits", double(traced.cache.hits),
            "count");
    out.set("sim.artifact_cache.misses", double(traced.cache.misses),
            "count");
    out.set("telemetry.trace_overhead_share",
            traced.wallS / untraced - 1.0, "ratio");

    // Phase lines: the bench spans of the run nested only in bench
    // spans (not inside a pool task), in start order.
    auto phase = [&](const Span &s) {
        if (s.ts < begin || s.ts > begin + wall * 1e6 || s.name == "run")
            return false;
        for (const Span *p = &s;; p = &spans.spans[size_t(p->parent)]) {
            if (p->cat != "bench")
                return false;
            if (p->parent < 0)
                return true;
        }
    };
    std::vector<const Span *> phases;
    for (const Span &s : spans.spans)
        if (phase(s))
            phases.push_back(&s);
    std::sort(phases.begin(), phases.end(),
              [](const Span *a, const Span *b) { return a->ts < b->ts; });
    report += "bench phases:\n";
    char line[160];
    for (const Span *s : phases) {
        std::snprintf(line, sizeof line,
                      "  +%8.3f s  %-18s %8.3f s (self %.3f s)\n",
                      (s->ts - begin) / 1e6, s->name.c_str(),
                      s->dur / 1e6, s->self / 1e6);
        report += line;
    }
    std::snprintf(line, sizeof line,
                  "trace overhead: traced wall %.3f s / untraced "
                  "%.3f s - 1 = %+.1f%%\n",
                  traced.wallS, untraced,
                  100.0 * (traced.wallS / untraced - 1.0));
    report += line;
    std::ofstream(args.outDir + "/" + args.workload +
                  ".attribution.txt")
        << report;
    std::fprintf(stderr, "%s", report.c_str());
}

/** @return the registry in a seed-determined order. */
std::vector<WorkloadInfo>
seededOrder(uint64_t seed)
{
    std::vector<WorkloadInfo> order = workloadRegistry();
    SeedRng rng(seed);
    rng.shuffle(order);
    return order;
}

/** Runs one fig07 sweep: artifacts first, then evaluateAll. */
struct Fig07Pass
{
    Rep rep;
    std::vector<WorkloadEval> evals;
};

/**
 * Builds every artifact of the sweep into @p cache on a @p jobs pool,
 * one task per workload, in registry order: the seed permutes only
 * the order evaluateAll receives. @return seconds; @p job_s (if
 * given) receives each task's duration.
 */
double
fig07Setup(unsigned jobs, ArtifactCache &cache,
           std::vector<double> *job_s = nullptr)
{
    const std::vector<WorkloadInfo> &order = workloadRegistry();
    const SimConfig cfg = SimConfig::skylake();
    const CrispOptions opts;
    const double t0 = now();
    std::vector<double> done(order.size());
    TraceSpan span("bench", "setup");
    ThreadPool pool(jobs);
    pool.parallelFor(order.size(), [&](size_t i) {
        const WorkloadInfo &wl = order[i];
        const double start = now();
        {
            TraceSpan s("bench", "vm.trace");
            cache.trace(wl, InputSet::Train, kFig07Sizes.trainOps);
            cache.trace(wl, InputSet::Ref, kFig07Sizes.refOps);
        }
        {
            TraceSpan s("bench", "core.analysis");
            cache.analysis(wl, opts, cfg, kFig07Sizes.trainOps);
        }
        {
            TraceSpan s("bench", "core.tag");
            cache.taggedRefTrace(wl, opts, cfg, kFig07Sizes.trainOps,
                                 kFig07Sizes.refOps);
        }
        done[i] = now() - start;
    });
    if (job_s)
        *job_s = done;
    return now() - t0;
}

Fig07Pass
fig07Pass(const std::vector<WorkloadInfo> &order, unsigned jobs)
{
    ArtifactCache cache;
    Fig07Pass p;
    const double t0 = now();
    p.rep.setupS = fig07Setup(jobs, cache, &p.rep.jobS);
    const double t1 = now();
    {
        TraceSpan span("bench", "sweep.evaluate");
        p.evals = evaluateAll(order, SimConfig::skylake(), CrispOptions(),
                              kFig07Sizes, jobs, kIsts, &cache);
    }
    const double t2 = now();
    p.rep.repeatS = t2 - t1;
    p.rep.wallS = t2 - t0;
    p.rep.cache = cache.counters();
    for (const WorkloadEval &ev : p.evals)
        p.rep.retired += ev.baseStats.retired + ev.crispStats.retired +
                         kIsts.size() * ev.baseStats.retired;
    return p;
}

/** The per-run results of one sweep, keyed "<workload>/<variant>":
 *  CoreStats digests for ooo/crisp, exact IPCs for the IBDA runs
 *  (evaluateAll keeps only their IPC). */
std::map<std::string, std::string>
fig07Digests(const std::vector<WorkloadEval> &evals)
{
    std::map<std::string, std::string> d;
    for (const WorkloadEval &ev : evals) {
        d[ev.name + "/ooo"] = statsDigest(ev.baseStats, "ooo");
        d[ev.name + "/crisp"] = statsDigest(ev.crispStats, "crisp");
        for (const auto &ist : kIsts)
            d[ev.name + "/ibda-" + ist] = jsonNumber(ev.ipcIbda.at(ist));
    }
    return d;
}

/** @return fig07_ipc's table cell of @p ev for @p variant. */
std::string
fig07Cell(const WorkloadEval &ev, const std::string &variant)
{
    if (variant == "ooo")
        return fixed(ev.ipcBaseline, 3);
    if (variant == "crisp")
        return percent(ev.crispSpeedup() - 1.0);
    return percent(ev.ibdaSpeedup(variant.substr(5)) - 1.0);
}

/**
 * Checks every core run of @p evals: its digest against the recorded
 * one and its fig07_ipc table cell against the recorded table.
 * @return the number of failed runs.
 */
uint64_t
checkFig07(const std::vector<WorkloadEval> &evals,
           const JsonValue *expected, Outcome &out)
{
    const uint64_t failed0 = out.failed;
    auto digests = fig07Digests(evals);
    const std::vector<std::string> columns = {"ooo", "crisp", "ibda-1K",
                                              "ibda-8K", "ibda-64K",
                                              "ibda-inf"};
    for (const WorkloadEval &ev : evals) {
        // Row of fig07_ipc's printed table: "name | ipc | crisp | ..."
        std::vector<std::string> cells;
        std::stringstream row(expectedText(expected, "table/" + ev.name));
        for (std::string cell; std::getline(row, cell, '|');) {
            size_t b = cell.find_first_not_of(' ');
            size_t e = cell.find_last_not_of(' ');
            cells.push_back(b == std::string::npos
                                ? ""
                                : cell.substr(b, e - b + 1));
        }
        for (size_t c = 0; c < columns.size(); ++c) {
            const std::string key = ev.name + "/" + columns[c];
            bool ok = digests[key] == expectedText(expected, key) &&
                      c + 1 < cells.size() &&
                      cells[c + 1] == fig07Cell(ev, columns[c]);
            if (!ok)
                std::fprintf(stderr, "perfbench: fig07 %s differs\n",
                             key.c_str());
            out.check(ok);
        }
    }
    return out.failed - failed0;
}

/** One sampled pass: fresh cache over @p dir, ooo then crisp. */
struct SampledPass
{
    Rep rep;
    std::map<std::string, std::string> digests;
    unsigned storeHits = 0;
    bool traceComplete = true;
};

/** @return the sampled machine: Skylake, sampled on @p jobs workers. */
SimConfig
sampledConfig(unsigned jobs)
{
    SimConfig cfg = SimConfig::skylake();
    cfg.sampleOps = kLongSampleOps;
    cfg.sampleJobs = jobs;
    return cfg;
}

/** Builds the long traces and the analysis into @p cache.
 *  @return seconds. */
double
sampledSetup(ArtifactCache &cache, const SimConfig &cfg,
             std::shared_ptr<const Trace> &ref,
             std::shared_ptr<const Trace> &tagged)
{
    const WorkloadInfo &wl = *findWorkload(kLongWorkload);
    const CrispOptions opts;
    const double t0 = now();
    TraceSpan span("bench", "setup");
    {
        TraceSpan s("bench", "vm.trace");
        cache.trace(wl, InputSet::Train, kLongTrainOps);
        ref = cache.trace(wl, InputSet::Ref, kLongCapOps);
    }
    {
        TraceSpan s("bench", "core.analysis");
        cache.analysis(wl, opts, cfg, kLongTrainOps);
    }
    TraceSpan s("bench", "core.tag");
    tagged = cache.taggedRefTrace(wl, opts, cfg, kLongTrainOps,
                                  kLongCapOps);
    return now() - t0;
}

SampledPass
sampledPass(const std::string &dir, unsigned jobs)
{
    const SimConfig cfg = sampledConfig(jobs);
    ArtifactCache cache;
    WarmArtifactStore store(dir);
    SampledPass p;

    const double t0 = now();
    std::shared_ptr<const Trace> ref, tagged;
    p.rep.setupS = sampledSetup(cache, cfg, ref, tagged);
    p.traceComplete = ref->size() < kLongCapOps;

    // Each variant as crisp_sim --artifact-dir runs it: hash the
    // trace, try the store, else stream the warm pass into a writer.
    struct Variant
    {
        const char *label;
        SimConfig cfg;
        const Trace *trace;
    };
    const Variant variants[] = {{"ooo", baselineConfig(cfg), ref.get()},
                                {"crisp", crispConfig(cfg), tagged.get()}};
    for (const Variant &v : variants) {
        const double j0 = now();
        uint64_t hash = 0;
        {
            TraceSpan s("bench", "warm_store.hash");
            hash = traceContentHash(*v.trace);
        }
        const std::string key = warmStateKey(v.cfg);
        SampledWarmState warm;
        bool hit = false;
        {
            TraceSpan s("bench", "warm_store.load");
            hit = store.load(key, hash, v.cfg, warm);
        }
        SampledResult r;
        {
            TraceSpan s("bench", "sampled.run");
            if (hit) {
                ++p.storeHits;
                r = runCoreSampled(*v.trace, v.cfg, &warm);
            } else {
                WarmArtifactStore::Writer writer(store, key, hash,
                                                 cfg.sampleOps,
                                                 cfg.sampleWarmupOps);
                r = runCoreSampled(*v.trace, v.cfg, nullptr, nullptr,
                                   nullptr, false, &writer);
                writer.commit();
            }
        }
        p.rep.jobS.push_back(now() - j0);
        p.rep.retired += r.total.retired;
        p.digests[v.label] = statsDigest(r.total, v.label);
    }
    p.rep.wallS = now() - t0;
    p.rep.cache = cache.counters();
    return p;
}

/** Both passes of one sampled_long repetition, checked. */
Rep
sampledRep(const RunArgs &args, Outcome &out)
{
    const std::string dir = args.outDir + "/warm";
    std::filesystem::remove_all(dir);
    Rep rep;
    SampledPass cold, again;
    {
        TraceSpan s("bench", "pass.cold");
        cold = sampledPass(dir, args.jobs);
    }
    {
        TraceSpan s("bench", "pass.repeat");
        again = sampledPass(dir, args.jobs);
    }
    std::filesystem::remove_all(dir);
    for (const char *label : {"ooo", "crisp"}) {
        const std::string want = expectedText(args.expected, label);
        bool ok_cold = cold.traceComplete && cold.digests[label] == want;
        // The repeat pass must read the artifacts the cold pass wrote
        // and be bit-identical to it.
        bool ok_again = again.storeHits == 2 &&
                        again.digests[label] == cold.digests[label] &&
                        again.digests[label] == want;
        if (!ok_cold || !ok_again)
            std::fprintf(stderr,
                         "perfbench: sampled %s differs (cold %s, "
                         "repeat %s, store hits %u)\n",
                         label, cold.digests[label].c_str(),
                         again.digests[label].c_str(), again.storeHits);
        out.check(ok_cold);
        out.check(ok_again);
    }
    rep.setupS = cold.rep.setupS;
    rep.repeatS = again.rep.wallS;
    rep.wallS = cold.rep.wallS + again.rep.wallS;
    rep.retired = cold.rep.retired + again.rep.retired;
    rep.jobS = cold.rep.jobS;
    rep.jobS.insert(rep.jobS.end(), again.rep.jobS.begin(),
                    again.rep.jobS.end());
    rep.cache = {cold.rep.cache.hits + again.rep.cache.hits,
                 cold.rep.cache.misses + again.rep.cache.misses};
    return rep;
}

} // namespace

void
runFig07Sweep(const RunArgs &args, Outcome &out)
{
    const auto order = seededOrder(args.seed);
    auto rep = [&] {
        Fig07Pass p = fig07Pass(order, args.jobs);
        checkFig07(p.evals, args.expected, out);
        return p.rep;
    };
    if (!args.trace) {
        auto setup = [&] {
            ArtifactCache cache;
            return fig07Setup(args.jobs, cache);
        };
        measureReps(args, 3, rep, setup, 3, out);
        return;
    }
    ProbeSet probes;
    for (const WorkloadInfo &wl : workloadRegistry())
        probes.workloads.push_back(findWorkload(wl.name));
    probes.trainOps = kFig07Sizes.trainOps;
    probes.refOps = kFig07Sizes.refOps;
    traceReps(args, rep, {"setup", "sweep.evaluate"}, probes, out);
}

void
runSampledLong(const RunArgs &args, Outcome &out)
{
    auto rep = [&] { return sampledRep(args, out); };
    if (!args.trace) {
        auto setup = [&] {
            ArtifactCache cache;
            std::shared_ptr<const Trace> ref, tagged;
            return sampledSetup(cache, sampledConfig(args.jobs), ref,
                                tagged);
        };
        measureReps(args, 2, rep, setup, 5, out);
        return;
    }
    ProbeSet probes;
    probes.workloads = {findWorkload(kLongWorkload)};
    probes.trainOps = kLongTrainOps;
    probes.refOps = kLongCapOps;
    probes.sampleOps = kLongSampleOps;
    probes.scratchDir = args.outDir + "/probe-warm";
    traceReps(args, rep, {}, probes, out);
}

std::string
recordFig07(const RunArgs &args)
{
    std::string json;
    for (const auto &[k, v] :
         fig07Digests(fig07Pass(seededOrder(args.seed), args.jobs).evals))
        json += (json.empty() ? "" : ",\n    ") + jsonQuote(k) + ": " +
                jsonQuote(v);
    return "{\n    " + json + "\n  }";
}

std::string
recordSampledLong(const RunArgs &args)
{
    const std::string dir = args.outDir + "/warm";
    std::filesystem::remove_all(dir);
    SampledPass p = sampledPass(dir, args.jobs);
    std::filesystem::remove_all(dir);
    return "{\"ooo\": " + jsonQuote(p.digests["ooo"]) +
           ", \"crisp\": " + jsonQuote(p.digests["crisp"]) + "}";
}

bool
selfTestGate(const RunArgs &args)
{
    Fig07Pass p = fig07Pass(seededOrder(args.seed), args.jobs);
    Outcome clean;
    checkFig07(p.evals, args.expected, clean);
    // Corrupt one recorded digest: exactly that run must fail.
    JsonValue corrupted = *args.expected;
    corrupted.members["mcf/crisp"].text[2] ^= 1;
    Outcome bad;
    checkFig07(p.evals, &corrupted, bad);
    std::fprintf(stderr,
                 "self-test: clean %llu/%llu failed, corrupted "
                 "%llu/%llu failed\n",
                 static_cast<unsigned long long>(clean.failed),
                 static_cast<unsigned long long>(clean.attempted),
                 static_cast<unsigned long long>(bad.failed),
                 static_cast<unsigned long long>(bad.attempted));
    return clean.failed == 0 && bad.failed == 1 &&
           bad.attempted == clean.attempted;
}

} // namespace perfbench
