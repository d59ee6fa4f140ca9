/**
 * @file
 * Per-layer probes and span attribution (see layers.h).
 */

#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "cache/hierarchy.h"
#include "core/pipeline.h"
#include "core/profiler.h"
#include "sim/driver.h"
#include "sim/sampled.h"
#include "sim/warm_store.h"
#include "telemetry/runtime_trace.h"

using namespace crisp;

namespace perfbench
{

namespace
{

/** Every per-layer metric the traced mode reports, with its unit.
 *  Must list the same names as BENCHMARK.json's per_layer. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics =
    {
        {"vm.trace_s", "s"},
        {"vm.mops", "Mops/s"},
        {"core.profile_s", "s"},
        {"core.analyze_s", "s"},
        {"core.tag_s", "s"},
        {"cpu.ooo.mops", "Mops/s"},
        {"cpu.crisp.mops", "Mops/s"},
        {"cpu.ibda.mops", "Mops/s"},
        {"cpu.kcycles_per_s", "kcycles/s"},
        {"bp.ns_per_branch", "ns"},
        {"bp.mispredicts_per_kop", "count/kop"},
        {"cache.ns_per_access", "ns"},
        {"cache.llc_mpki", "count/kop"},
        {"sim.sampled.warm_s", "s"},
        {"sim.sampled.warm_mops", "Mops/s"},
        {"sim.sampled.detail_s", "s"},
        {"sim.sampled.stitch_s", "s"},
        {"sim.sampled.peak_live_snapshots", "count"},
        {"sim.warm_store.hash_s", "s"},
        {"sim.warm_store.read_s", "s"},
        {"sim.warm_store.write_s", "s"},
        {"sim.warm_store.bytes", "bytes"},
        {"sim.artifact_cache.hits", "count"},
        {"sim.artifact_cache.misses", "count"},
        {"sim.artifact_cache.wait_s", "s"},
        {"sim.pool.busy_share", "ratio"},
        {"sim.pool.queue_wait_p50_ms", "ms"},
        {"serve.submit_rtt_ms", "ms"},
        {"serve.queue_wait_p50_ms", "ms"},
        {"serve.queue_wait_p95_ms", "ms"},
        {"serve.job_wall_p50_ms", "ms"},
        {"serve.dedup_share", "ratio"},
        {"serve.threads_end", "count"},
        {"serve.vmsize_mb_end", "MB"},
        {"serve.fds_end", "count"},
        {"telemetry.trace_overhead_share", "ratio"},
        {"attr.vm_share", "ratio"},
        {"attr.core_share", "ratio"},
        {"attr.cpu_share", "ratio"},
        {"attr.artifact_cache_share", "ratio"},
        {"attr.sampled_share", "ratio"},
        {"attr.warm_store_share", "ratio"},
        {"attr.pool_share", "ratio"},
        {"attr.serve_share", "ratio"},
        {"attr.unattributed_share", "ratio"},
};

/**
 * Layer of each span name whose self time is layer work. Container
 * spans (setup, sweep.evaluate, pass.*, sampled.run, serve.open_loop)
 * are absent: their self time is a thread waiting, and stays
 * unattributed.
 * pool.task maps to cpu because every task evaluateAll runs is one
 * detailed core run (the artifacts were built beforehand, under the
 * spans of their own layers); job.running likewise is the serve
 * runner's core run once its artifact lookups are subtracted.
 */
const std::map<std::string, std::string> kSpanLayer = {
    {"vm.trace", "vm"},
    {"core.analysis", "core"},
    {"core.tag", "core"},
    {"pool.task", "cpu"},
    {"sampled.interval", "cpu"},
    {"job.running", "cpu"},
    {"cache.wait", "artifact_cache"},
    {"sampled.warm_build", "sampled"},
    {"sampled.warm_producer", "sampled"},
    {"sampled.stitch", "sampled"},
    {"warm_store.hash", "warm_store"},
    {"warm_store.load", "warm_store"},
    {"warmstore.read", "warm_store"},
    {"warmstore.write", "warm_store"},
    {"warmstore.evict", "warm_store"},
    {"pool.stream_task", "pool"},
    {"job.persist", "serve"},
};

/** @return the layer @p s's self time belongs to, or "". An
 *  artifact computation belongs to the layer that builds that kind of
 *  artifact, named by its cache key. */
std::string
layerOf(const Span &s)
{
    if (s.name == "cache.compute") {
        if (s.arg.rfind("trace:", 0) == 0)
            return "vm";
        if (s.arg.rfind("analysis:", 0) == 0 ||
            s.arg.rfind("tagged:", 0) == 0)
            return "core";
        return "sampled";
    }
    auto it = kSpanLayer.find(s.name);
    return it == kSpanLayer.end() ? "" : it->second;
}

const char *const kLayers[] = {"vm",      "core",       "cpu",
                               "artifact_cache", "sampled",
                               "warm_store", "pool", "serve"};

/** Times @p fn under one probe span; @return seconds. */
template <typename Fn>
double
timed(const char *span_name, Fn &&fn)
{
    TraceSpan span("probe", span_name);
    double t0 = now();
    fn();
    return now() - t0;
}

} // namespace

void
probeLayers(const ProbeSet &set, Outcome &out)
{
    const SimConfig &cfg = set.machine;
    CrispOptions opts;
    std::vector<Trace> train, ref, tagged;
    std::vector<CrispAnalysis> analyses;

    uint64_t vm_ops = 0;
    double vm_s = timed("vm.trace", [&] {
        for (const WorkloadInfo *wl : set.workloads) {
            train.push_back(
                buildWorkloadTrace(*wl, InputSet::Train, set.trainOps));
            ref.push_back(
                buildWorkloadTrace(*wl, InputSet::Ref, set.refOps));
            vm_ops += train.back().size() + ref.back().size();
        }
    });
    out.set("vm.trace_s", vm_s, "s");
    out.set("vm.mops", double(vm_ops) / vm_s / 1e6, "Mops/s");

    out.set("core.profile_s", timed("core.profile", [&] {
                for (const Trace &t : train)
                    profileTrace(t, cfg);
            }),
            "s");
    out.set("core.analyze_s", timed("core.analyze", [&] {
                for (const Trace &t : train)
                    analyses.push_back(analyzeTrace(t, opts, cfg));
            }),
            "s");
    out.set("core.tag_s", timed("core.tag", [&] {
                for (size_t i = 0; i < set.workloads.size(); ++i)
                    tagged.push_back(buildTaggedRefTrace(
                        *set.workloads[i], analyses[i].taggedStatics,
                        set.refOps));
            }),
            "s");

    // Single-thread detailed core, one variant at a time.
    double cycles = 0, core_s = 0;
    auto core = [&](const char *metric, const char *span,
                    const std::vector<Trace> &traces,
                    const SimConfig &vcfg) {
        uint64_t retired = 0;
        double s = timed(span, [&] {
            for (const Trace &t : traces) {
                CoreStats st = runCore(t, vcfg);
                retired += st.retired;
                cycles += double(st.cycles);
            }
        });
        core_s += s;
        out.set(metric, double(retired) / s / 1e6, "Mops/s");
    };
    core("cpu.ooo.mops", "cpu.ooo", ref, baselineConfig(cfg));
    core("cpu.crisp.mops", "cpu.crisp", tagged, crispConfig(cfg));
    core("cpu.ibda.mops", "cpu.ibda", ref, ibdaConfig(cfg, "8K"));
    out.set("cpu.kcycles_per_s", cycles / core_s / 1e3, "kcycles/s");

    // Branch stream through the warm direction predictor.
    uint64_t branches = 0, mispredicts = 0, ops = 0;
    double bp_s = timed("bp.replay", [&] {
        for (const Trace &t : ref) {
            auto dir = makeWarmDirectionPredictor(cfg);
            for (const MicroOp &op : t.ops) {
                if (op.cls != OpClass::Branch)
                    continue;
                ++branches;
                mispredicts += dir->predict(op.pc) != op.taken;
                dir->update(op.pc, op.taken);
            }
            ops += t.size();
        }
    });
    out.set("bp.ns_per_branch", bp_s * 1e9 / double(branches), "ns");
    out.set("bp.mispredicts_per_kop",
            1000.0 * double(mispredicts) / double(ops), "count/kop");

    // Loads and stores through the hierarchy (and DRAM), on the warm
    // pass's two-cycles-per-op clock.
    uint64_t accesses = 0, llc_misses = 0;
    double cache_s = timed("cache.replay", [&] {
        for (const Trace &t : ref) {
            Hierarchy mem(cfg);
            uint64_t cycle = 0;
            for (const MicroOp &op : t.ops) {
                cycle += 2;
                if (op.isLoad()) {
                    ++accesses;
                    llc_misses +=
                        mem.warmLoad(op.effAddr, op.pc, cycle)
                            .llcMiss();
                } else if (op.isStore()) {
                    ++accesses;
                    llc_misses +=
                        mem.warmStore(op.effAddr, op.pc, cycle)
                            .llcMiss();
                }
            }
        }
    });
    out.set("cache.ns_per_access", cache_s * 1e9 / double(accesses),
            "ns");
    out.set("cache.llc_mpki", 1000.0 * double(llc_misses) / double(ops),
            "count/kop");

    if (set.sampleOps == 0)
        return;

    // Sampled layers on the first reference trace: the serial warm
    // pass, then the barrier schedule over the pre-built warm state.
    SimConfig scfg = cfg;
    scfg.sampleOps = set.sampleOps;
    scfg.sampleJobs = 1;
    const Trace &t = ref.front();
    SampledWarmState warm;
    double warm_s =
        timed("sampled.warm", [&] { warm = buildWarmState(t, scfg); });
    out.set("sim.sampled.warm_s", warm_s, "s");
    out.set("sim.sampled.warm_mops", double(t.size()) / warm_s / 1e6,
            "Mops/s");
    SampledResult r;
    timed("sampled.detail",
          [&] { r = runCoreSampled(t, baselineConfig(scfg), &warm); });
    out.set("sim.sampled.detail_s", r.detailSeconds, "s");
    out.set("sim.sampled.stitch_s", r.stitchSeconds, "s");
    out.set("sim.sampled.peak_live_snapshots",
            double(r.peakLiveSnapshots), "count");

    // Warm store: hash the trace, write the warm state, read it back.
    std::filesystem::remove_all(set.scratchDir);
    WarmArtifactStore store(set.scratchDir);
    const std::string key = warmStateKey(scfg);
    uint64_t hash = 0;
    out.set("sim.warm_store.hash_s",
            timed("warm_store.hash", [&] { hash = traceContentHash(t); }),
            "s");
    bool saved = false, loaded = false;
    out.set("sim.warm_store.write_s", timed("warm_store.save", [&] {
                saved = store.save(key, hash, warm);
            }),
            "s");
    SampledWarmState back;
    out.set("sim.warm_store.read_s", timed("warm_store.load", [&] {
                loaded = store.load(key, hash, scfg, back);
            }),
            "s");
    std::error_code ec;
    auto bytes = std::filesystem::file_size(store.pathFor(key, hash), ec);
    out.set("sim.warm_store.bytes", ec ? 0.0 : double(bytes), "bytes");
    if (!saved || !loaded)
        std::fprintf(stderr, "perfbench: warm-store probe %s failed\n",
                     saved ? "load" : "save");
    std::filesystem::remove_all(set.scratchDir);
}

void
fillAbsentLayers(Outcome &out)
{
    for (const auto &[name, unit] : kLayerMetrics)
        if (!out.metrics.count(name))
            out.set(name, 0.0, unit);
}

SpanSet
parseTrace(const std::string &json, double fromUs)
{
    SpanSet set;
    JsonValue doc;
    std::string err;
    if (!parseJson(json, doc, &err) || !doc.has("traceEvents")) {
        std::fprintf(stderr, "perfbench: unreadable trace: %s\n",
                     err.c_str());
        return set;
    }
    std::map<uint64_t, std::pair<std::string, double>> open;
    for (const JsonValue &ev : doc.at("traceEvents").elements) {
        const std::string &ph = ev.at("ph").text;
        double ts = ev.at("ts").number;
        if (ph == "X" && ts >= fromUs) {
            std::string arg;
            if (ev.has("args") && !ev.at("args").members.empty())
                arg = ev.at("args").members.begin()->second.text;
            set.spans.push_back({ev.at("cat").text, ev.at("name").text,
                                 arg, int(ev.at("tid").number), ts,
                                 ev.at("dur").number, 0});
        } else if (ph == "b") {
            open[uint64_t(ev.at("id").number)] = {ev.at("name").text,
                                                  ts};
        } else if (ph == "e") {
            auto it = open.find(uint64_t(ev.at("id").number));
            if (it != open.end() && it->second.second >= fromUs)
                set.async[it->second.first].push_back(
                    ts - it->second.second);
            if (it != open.end())
                open.erase(it);
        }
    }
    // Spans nest per thread (they are RAII scopes), so a stack over
    // (tid, start, longest first) finds each span's direct parent.
    std::vector<size_t> order(set.spans.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Span &x = set.spans[a], &y = set.spans[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.ts != y.ts)
            return x.ts < y.ts;
        return x.dur > y.dur;
    });
    std::vector<double> covered(set.spans.size(), 0.0);
    std::vector<size_t> stack;
    for (size_t i : order) {
        const Span &s = set.spans[i];
        while (!stack.empty()) {
            const Span &top = set.spans[stack.back()];
            if (top.tid == s.tid && s.ts < top.ts + top.dur)
                break;
            stack.pop_back();
        }
        if (!stack.empty()) {
            covered[stack.back()] += s.dur;
            set.spans[i].parent = long(stack.back());
        }
        stack.push_back(i);
    }
    for (size_t i = 0; i < set.spans.size(); ++i)
        set.spans[i].self = std::max(0.0, set.spans[i].dur - covered[i]);
    return set;
}

const Span *
findSpan(const SpanSet &set, const std::string &name)
{
    for (const Span &s : set.spans)
        if (s.name == name)
            return &s;
    return nullptr;
}

std::string
attribute(const SpanSet &set, double beginUs, double wallS,
          unsigned lanes, Outcome &out)
{
    const double endUs = beginUs + wallS * 1e6;
    const double capacity = wallS * double(lanes);
    std::map<std::string, double> layerS;
    std::map<std::string, double> spanS;
    std::map<std::string, std::string> spanLayer;
    for (const Span &s : set.spans) {
        if (s.ts < beginUs || s.ts > endUs)
            continue;
        const std::string layer = layerOf(s);
        const std::string label =
            s.name == "cache.compute" ? s.name + " (" + layer + ")"
                                      : s.name;
        spanLayer[label] = layer.empty() ? "(container)" : layer;
        spanS[label] += s.self / 1e6;
        if (!layer.empty())
            layerS[layer] += s.self / 1e6;
    }
    char line[160];
    std::string report;
    std::snprintf(line, sizeof line,
                  "attribution over %.3f s wall x %u lanes = %.3f "
                  "thread-seconds\n",
                  wallS, lanes, capacity);
    report += line;
    double attributed = 0;
    for (const char *layer : kLayers) {
        double share = layerS[layer] / capacity;
        attributed += share;
        out.set(std::string("attr.") + layer + "_share", share, "ratio");
        std::snprintf(line, sizeof line, "  %-16s %9.3f s  %6.1f%%\n",
                      layer, layerS[layer], 100.0 * share);
        report += line;
    }
    out.set("attr.unattributed_share", 1.0 - attributed, "ratio");
    std::snprintf(line, sizeof line,
                  "  %-16s %9.3f s  %6.1f%%  (idle or uninstrumented)\n",
                  "unattributed", capacity * (1.0 - attributed),
                  100.0 * (1.0 - attributed));
    report += line;
    report += "self time by span:\n";
    for (const auto &[name, s] : spanS) {
        std::snprintf(line, sizeof line, "  %-28s %9.3f s  -> %s\n",
                      name.c_str(), s, spanLayer[name].c_str());
        report += line;
    }
    return report;
}

void
poolMetrics(const SpanSet &set, double beginUs, double wallS,
            unsigned lanes, const std::vector<std::string> &batchSpans,
            Outcome &out)
{
    const double endUs = beginUs + wallS * 1e6;
    auto inside = [&](const Span &s) {
        return s.ts >= beginUs && s.ts <= endUs;
    };
    std::vector<const Span *> batches;
    for (const Span &s : set.spans)
        if (inside(s) && std::find(batchSpans.begin(), batchSpans.end(),
                                   s.name) != batchSpans.end())
            batches.push_back(&s);
    double busy = 0, cache_wait = 0;
    std::vector<double> waits_ms;
    for (const Span &s : set.spans) {
        if (!inside(s))
            continue;
        if (s.name == "cache.wait")
            cache_wait += s.dur / 1e6;
        if (s.name != "pool.task" && s.name != "pool.stream_task")
            continue;
        busy += s.dur / 1e6;
        if (s.name != "pool.task")
            continue;
        for (const Span *b : batches)
            if (s.ts >= b->ts && s.ts <= b->ts + b->dur)
                waits_ms.push_back((s.ts - b->ts) / 1e3);
    }
    auto it = set.async.find("pool.queue_wait");
    if (it != set.async.end())
        for (double us : it->second)
            waits_ms.push_back(us / 1e3);
    out.set("sim.pool.busy_share", busy / (wallS * double(lanes)),
            "ratio");
    out.set("sim.pool.queue_wait_p50_ms", median(waits_ms), "ms");
    out.set("sim.artifact_cache.wait_s", cache_wait, "s");
}

} // namespace perfbench
