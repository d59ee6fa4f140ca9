/**
 * @file
 * Per-layer measurement for the traced mode: direct timed calls into
 * each module's public functions ("probes"), and the span analysis
 * that turns a Chrome trace of a workload run into per-layer self
 * times and the attribution report.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "sim/config.h"
#include "workloads/workload.h"

namespace perfbench
{

/** The inputs one workload's probes run on. */
struct ProbeSet
{
    std::vector<const crisp::WorkloadInfo *> workloads;
    uint64_t trainOps = 0;
    uint64_t refOps = 0;
    crisp::SimConfig machine = crisp::SimConfig::skylake();
    /** Also probe the sampled warm pass and the warm store (on the
     *  first workload's reference trace, interval sampleOps). */
    uint64_t sampleOps = 0;
    std::string scratchDir; ///< warm-store probe directory
};

/**
 * Runs every probe of @p set single-threaded, each loop under one
 * span, and stores vm.*, core.*, cpu.*, bp.*, cache.* and (with
 * sampleOps) sim.sampled.* and sim.warm_store.* in @p out.
 */
void probeLayers(const ProbeSet &set, Outcome &out);

/** Sets every per-layer metric @p out lacks to 0: the workload does
 *  not pass through that layer. */
void fillAbsentLayers(Outcome &out);

/** One complete span of a Chrome trace, with its self time. */
struct Span
{
    std::string cat;
    std::string name;
    std::string arg; ///< value of the span's one arg, if any
    int tid = 0;
    double ts = 0;   ///< µs
    double dur = 0;  ///< µs
    double self = 0; ///< µs not covered by direct children
    long parent = -1; ///< index of the enclosing span on its thread
};

/** Spans and async pairs parsed from one Chrome trace document. */
struct SpanSet
{
    std::vector<Span> spans;
    /** Durations (µs) of 'b'/'e' async pairs, by name. */
    std::map<std::string, std::vector<double>> async;
};

/** Parses @p json (RuntimeTracer::toJson output), keeping events that
 *  begin at or after @p fromUs; computes self times per thread. */
SpanSet parseTrace(const std::string &json, double fromUs = 0);

/** @return the first span named @p name, or nullptr. */
const Span *findSpan(const SpanSet &set, const std::string &name);

/**
 * Attributes the self time of every span in @p set that lies inside
 * [beginUs, beginUs + wallS] to its layer, as a share of
 * wallS × lanes thread-seconds; stores attr.<layer>_share and
 * attr.unattributed_share in @p out and returns the report text.
 */
std::string attribute(const SpanSet &set, double beginUs,
                      double wallS, unsigned lanes, Outcome &out);

/**
 * Stores sim.pool.busy_share, sim.pool.queue_wait_p50_ms and
 * sim.artifact_cache.wait_s from the spans of @p set inside the
 * window. A parallelFor task's queue wait is its start minus the
 * start of the enclosing batch span named @p batchSpans.
 */
void poolMetrics(const SpanSet &set, double beginUs, double wallS,
                 unsigned lanes,
                 const std::vector<std::string> &batchSpans,
                 Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
