/**
 * @file
 * serve_open: the real crisp_serve daemon under an open-loop stream
 * of small seeded sweeps, driven over ServeClient from one thread.
 * See README.md for the traffic design and the metric definitions.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "serve/transport.h"
#include "telemetry/runtime_trace.h"

extern char **environ;

using namespace crisp;

namespace perfbench
{

namespace
{

// The traffic. Workloads and configs are small pools; the priming
// sweep covers every (workload, config) so each analysis is built
// before the timed phase, at a reference length the open loop never
// uses, so no open-loop job is a priming job except the deliberate
// repeats.
const std::vector<std::string> kPoolWorkloads = {
    "pointer_chase", "mcf",       "lbm",  "omnetpp",
    "xhpcg",         "deepsjeng", "namd", "memcached"};
const std::vector<std::vector<std::string>> kPoolConfigs = {
    {}, {"--rob", "192"}, {"--rs", "64"}, {"--rob", "320", "--rs", "128"}};
const std::vector<std::string> kVariants = {"ooo", "crisp", "ibda-8K"};
const uint64_t kTrainOps = 30'000;
const uint64_t kPrimeRefOps = 20'000;
const std::vector<uint64_t> kOpenRefOps = {150'000, 165'000, 180'000,
                                           195'000, 210'000, 225'000,
                                           240'000, 255'000};
/** Open-loop arrival rate, sweeps per second (fixed interval). */
const double kSweepsPerSecond = 9.0;
/** Every kRepeatEvery-th sweep resubmits a priming grid point. */
const size_t kRepeatEvery = 8;
/** A run whose generator's p95 lateness exceeds this is invalid. */
const double kLateBoundMs = 20.0;
const double kPollSeconds = 0.002;
const double kDrainTimeoutS = 60.0;
const unsigned kSetupReps = 5;
/** Reference lengths of the repeat sweeps: the priming grid again,
 *  once per length, so every repeat job is fresh. */
const std::vector<uint64_t> kRepeatRefOps = {21'000, 22'000, 23'000,
                                             24'000, 25'000};

std::string
strings(const std::vector<std::string> &v)
{
    std::string s = "[";
    for (size_t i = 0; i < v.size(); ++i)
        s += (i ? "," : "") + jsonQuote(v[i]);
    return s + "]";
}

/** One open-loop (or priming) submit: a grid of jobs. */
struct SweepPlan
{
    std::vector<std::string> workloads;
    std::vector<size_t> configs; ///< indices into kPoolConfigs
    uint64_t refOps = 0;
    bool repeat = false; ///< deliberately resubmits priming points

    std::string request() const
    {
        std::string cfgs = "[";
        for (size_t i = 0; i < configs.size(); ++i)
            cfgs += (i ? "," : "") + strings(kPoolConfigs[configs[i]]);
        return "{\"op\":\"submit\",\"proto\":1,\"workloads\":" +
               strings(workloads) + ",\"variants\":" + strings(kVariants) +
               ",\"configs\":" + cfgs + "]" +
               ",\"train_ops\":" + std::to_string(kTrainOps) +
               ",\"ref_ops\":" + std::to_string(refOps) + "}";
    }
};

/** @return the priming sweep: every pool workload and config. */
SweepPlan
primingSweep()
{
    SweepPlan p;
    p.workloads = kPoolWorkloads;
    for (size_t c = 0; c < kPoolConfigs.size(); ++c)
        p.configs.push_back(c);
    p.refOps = kPrimeRefOps;
    return p;
}

/** @return the expected-table key of one job. */
std::string
jobKey(const std::string &wl, const std::string &variant, size_t cfg,
       uint64_t ref)
{
    return wl + "/" + variant + "/c" + std::to_string(cfg) + "/" +
           std::to_string(ref);
}

/** A submitted job the client waits on. */
struct JobRef
{
    std::string id;
    std::string key;
    uint64_t ops = 0;
    double due = 0; ///< scheduled submit time of its sweep
};

/** Runs a crisp_serve child and owns its lifetime. */
class Daemon
{
  public:
    Daemon(const RunArgs &args, bool traced)
        : socket_(args.outDir + "/serve.sock")
    {
        std::filesystem::remove(socket_);
        std::vector<std::string> argv_s = {
            args.serveBin, "--socket", socket_, "--jobs",
            std::to_string(args.jobs), "--queue-capacity", "4096"};
        if (traced)
            argv_s.push_back("--trace-runtime");
        std::vector<char *> argv;
        for (std::string &s : argv_s)
            argv.push_back(s.data());
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        const std::string log = args.outDir + "/serve.log";
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        if (posix_spawn(&pid_, argv[0], &fa, nullptr, argv.data(),
                        environ) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&fa);
        // Ready once the socket accepts a connection.
        for (double t0 = now(); pid_ > 0 && now() - t0 < 30;) {
            ServeClient probe;
            std::string err;
            if (probe.connect(socket_, &err)) {
                ready_ = true;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    bool ready() const { return ready_; }
    int pid() const { return pid_; }
    const std::string &socket() const { return socket_; }

    /** Sends one request on a fresh connection (as crisp_submit
     *  does). @return false on I/O or parse failure. */
    bool request(const std::string &line, JsonValue &resp) const
    {
        ServeClient c;
        std::string err, reply;
        return c.connect(socket_, &err) && c.sendLine(line) &&
               c.recvLine(reply) && parseJson(reply, resp, &err);
    }

    /** Orderly shutdown, escalating to SIGKILL; waits for exit. */
    void stop()
    {
        if (pid_ <= 0)
            return;
        JsonValue resp;
        request("{\"op\":\"shutdown\",\"drain\":false}", resp);
        int status = 0;
        for (double t0 = now(); now() - t0 < 20;) {
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
    bool ready_ = false;
};

bool
ok(const JsonValue &v)
{
    return v.isObject() && v.has("ok") && v.at("ok").boolean;
}

/** Tracks submitted jobs until the client observes each terminal. */
class Tracker
{
  public:
    Tracker(const Daemon &d, const JsonValue *expected, Outcome &out)
        : daemon_(d), expected_(expected), out_(out)
    {
        std::string err;
        connected_ = status_.connect(d.socket(), &err);
    }

    /**
     * Submits @p plan, due at @p due, on a fresh connection (as
     * crisp_submit does). The response lists jobs in
     * grid order (workload, variant, config). @return false when
     * the submit was refused (its jobs count as failed).
     */
    bool submit(const SweepPlan &plan, double due, double *rtt = nullptr)
    {
        TraceSpan span("bench", "serve.submit");
        const double t0 = now();
        JsonValue resp;
        bool good = daemon_.request(plan.request(), resp) && ok(resp);
        const double t1 = now();
        if (rtt)
            *rtt = t1 - t0;
        const size_t expect_jobs = plan.workloads.size() *
                                   kVariants.size() * plan.configs.size();
        if (!good || resp.at("jobs").elements.size() != expect_jobs) {
            for (size_t i = 0; i < expect_jobs; ++i)
                out_.check(false);
            return false;
        }
        deduped_ += uint64_t(resp.at("deduped").number);
        size_t k = 0;
        for (const std::string &wl : plan.workloads)
            for (const std::string &variant : kVariants)
                for (size_t cfg : plan.configs) {
                    const JsonValue &js = resp.at("jobs").elements[k++];
                    JobRef ref{js.at("id").text,
                               jobKey(wl, variant, cfg, plan.refOps),
                               plan.repeat ? 0 : plan.refOps, due};
                    if (!observe(ref, js, t1))
                        pending_[ref.id] = ref;
                }
        return true;
    }

    /** One status round trip over the outstanding jobs. */
    void poll()
    {
        if (pending_.empty())
            return;
        TraceSpan span("bench", "serve.poll");
        std::vector<std::string> ids;
        for (const auto &[id, ref] : pending_)
            ids.push_back(id);
        JsonValue resp;
        if (!ask("{\"op\":\"status\",\"jobs\":" + strings(ids) + "}",
                 resp) ||
            !ok(resp))
            return;
        const double t = now();
        for (const JsonValue &js : resp.at("jobs").elements) {
            auto it = pending_.find(js.at("id").text);
            if (it != pending_.end() && observe(it->second, js, t))
                pending_.erase(it);
        }
    }

    /** Polls until nothing is outstanding or @p timeout_s passes;
     *  jobs still outstanding then count as failed (timeouts). */
    void drain(double timeout_s)
    {
        for (double t0 = now(); !pending_.empty() && now() - t0 < timeout_s;) {
            poll();
            std::this_thread::sleep_for(
                std::chrono::duration<double>(kPollSeconds));
        }
        for (size_t i = 0; i < pending_.size(); ++i)
            out_.check(false);
        pending_.clear();
    }

    bool idle() const { return pending_.empty(); }
    const std::vector<double> &latencies() const { return latency_; }
    uint64_t simOps() const { return simOps_; }
    uint64_t deduped() const { return deduped_; }
    double lastTerminal() const { return lastTerminal_; }

  private:
    /** One round trip on the tracker's own connection. */
    bool ask(const std::string &line, JsonValue &resp)
    {
        std::string reply, err;
        connected_ = connected_ && status_.sendLine(line) &&
                     status_.recvLine(reply) &&
                     parseJson(reply, resp, &err);
        return connected_;
    }

    /** Checks @p js if terminal. @return true when terminal. */
    bool observe(const JobRef &ref, const JsonValue &js, double t)
    {
        const std::string &state = js.at("state").text;
        if (state == "queued" || state == "running")
            return false;
        const double want = expectedNumber(expected_, ref.key);
        bool good = state == "done" && js.has("ipc") &&
                    js.at("ipc").number == want;
        if (!good)
            std::fprintf(stderr, "perfbench: job %s (%s) %s\n",
                         ref.key.c_str(), ref.id.c_str(), state.c_str());
        out_.check(good);
        latency_.push_back(t - ref.due);
        simOps_ += good ? ref.ops : 0;
        lastTerminal_ = t;
        return true;
    }

    const Daemon &daemon_;
    const JsonValue *expected_;
    Outcome &out_;
    ServeClient status_;
    bool connected_ = false;
    std::map<std::string, JobRef> pending_;
    std::vector<double> latency_;
    uint64_t simOps_ = 0;
    uint64_t deduped_ = 0;
    double lastTerminal_ = 0;
};

/** @return the seeded open-loop sweeps for @p count submits. */
std::vector<SweepPlan>
openLoopPlan(uint64_t seed, size_t count)
{
    std::vector<SweepPlan> fresh;
    for (size_t w = 0; w < kPoolWorkloads.size(); ++w)
        for (size_t c = 0; c < kPoolConfigs.size(); ++c)
            for (uint64_t ref : kOpenRefOps)
                fresh.push_back({{kPoolWorkloads[w]}, {c}, ref, false});
    SeedRng rng(seed);
    rng.shuffle(fresh);
    std::vector<SweepPlan> plan;
    size_t next = 0;
    for (size_t i = 0; i < count; ++i) {
        if (i % kRepeatEvery == kRepeatEvery - 1 || next == fresh.size()) {
            plan.push_back({{kPoolWorkloads[rng.next() %
                                            kPoolWorkloads.size()]},
                            {rng.next() % kPoolConfigs.size()},
                            kPrimeRefOps,
                            true});
        } else {
            plan.push_back(fresh[next++]);
        }
    }
    return plan;
}

/** Starts a daemon and primes it. @return seconds, or -1. */
double
startAndPrime(const RunArgs &args, bool traced,
              std::unique_ptr<Daemon> &daemon, Outcome &out)
{
    const double t0 = now();
    daemon = std::make_unique<Daemon>(args, traced);
    if (!daemon->ready())
        return -1;
    Tracker prime(*daemon, args.expected, out);
    if (!prime.submit(primingSweep(), t0))
        return -1;
    prime.drain(kDrainTimeoutS);
    return now() - t0;
}

/** Numbers of one open-loop phase. */
struct OpenLoop
{
    double wallS = 0;
    double latePct95Ms = 0;
    std::vector<double> latencyMs;
    std::vector<double> submitRttMs;
    uint64_t simOps = 0;
    uint64_t jobs = 0;
    uint64_t deduped = 0; ///< jobs the daemon served by dedup
};

OpenLoop
openLoop(const RunArgs &args, const Daemon &daemon,
         const std::vector<SweepPlan> &plan, Outcome &out)
{
    TraceSpan span("bench", "serve.open_loop");
    Tracker tracker(daemon, args.expected, out);
    OpenLoop r;
    std::vector<double> late;
    const double start = now() + 0.01;
    double last_poll = 0;
    for (size_t i = 0; i < plan.size();) {
        const double due = start + double(i) / kSweepsPerSecond;
        const double t = now();
        if (t >= due) {
            late.push_back((t - due) * 1e3);
            double rtt = 0;
            tracker.submit(plan[i], due, &rtt);
            r.submitRttMs.push_back(rtt * 1e3);
            ++i;
            continue;
        }
        if (!tracker.idle() && t - last_poll >= kPollSeconds) {
            tracker.poll();
            last_poll = now();
            continue;
        }
        double wake = std::min(due, tracker.idle() ? due
                                                   : last_poll + kPollSeconds);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, wake - now())));
    }
    tracker.drain(kDrainTimeoutS);
    r.wallS = tracker.lastTerminal() - start;
    for (double s : tracker.latencies())
        r.latencyMs.push_back(s * 1e3);
    r.jobs = tracker.latencies().size();
    r.simOps = tracker.simOps();
    r.deduped = tracker.deduped();
    r.latePct95Ms = quantile(late, 0.95);
    return r;
}

/** Submits the priming grid again at reference length @p ref (fresh
 *  jobs whose analyses and train traces the priming built) and waits
 *  for all of them. @return seconds. */
double
repeatPriming(const Daemon &daemon, uint64_t ref, const RunArgs &args,
              Outcome &out)
{
    SweepPlan plan = primingSweep();
    plan.refOps = ref;
    Tracker t(daemon, args.expected, out);
    const double t0 = now();
    t.submit(plan, t0);
    t.drain(kDrainTimeoutS);
    return now() - t0;
}

/** @return counter @p path of the daemon's metrics reply @p metrics,
 *  or 0. */
double
counter(const JsonValue &metrics, const std::string &path)
{
    JsonValue reg;
    std::string err;
    if (!ok(metrics) || !parseJson(metrics.at("stats_json").text, reg, &err))
        return 0;
    const JsonValue *v = reg.find(path);
    return v && v->isNumber() ? v->number : 0;
}

/** @return the sum of histogram @p path's samples in the daemon's
 *  metrics reply @p metrics (count x mean), or 0. */
double
histogramSum(const JsonValue &metrics, const std::string &path)
{
    return counter(metrics, path + ".count") *
           counter(metrics, path + ".mean");
}

/** One whole serve_open run: setup(s), open loop, repeats. */
struct ServeRun
{
    std::vector<double> setupS;
    OpenLoop loop;
    std::vector<double> repeatS;
    double peakRssMb = 0;
    // The daemon's metrics around the open loop; traced runs also
    // take its runtime trace right after it.
    JsonValue metricsBefore, metricsAfter, traceAfter;

    /** @return the seconds the daemon's runners spent on open-loop
     *  jobs, summed over every attempt. */
    double jobRunS() const
    {
        const std::string wall = "serve.latency.job_wall_ms";
        return (histogramSum(metricsAfter, wall) -
                histogramSum(metricsBefore, wall)) /
               1e3;
    }
};

ServeRun
serveRun(const RunArgs &args, unsigned setups, bool traced,
         Outcome &out, std::unique_ptr<Daemon> &daemon)
{
    ServeRun run;
    for (unsigned k = 0; k < setups; ++k) {
        if (daemon)
            daemon->stop();
        double s = startAndPrime(args, traced, daemon, out);
        if (s < 0) {
            std::fprintf(stderr, "perfbench: crisp_serve did not start "
                                 "or refused the priming sweep\n");
            out.check(false);
            return run;
        }
        run.setupS.push_back(s);
    }
    const std::vector<SweepPlan> plan = openLoopPlan(
        args.seed, size_t(std::ceil(args.seconds * kSweepsPerSecond)));
    daemon->request("{\"op\":\"metrics\"}", run.metricsBefore);
    run.loop = openLoop(args, *daemon, plan, out);
    daemon->request("{\"op\":\"metrics\"}", run.metricsAfter);
    if (traced)
        daemon->request("{\"op\":\"trace\"}", run.traceAfter);
    for (uint64_t ref : kRepeatRefOps)
        run.repeatS.push_back(repeatPriming(*daemon, ref, args, out));
    run.peakRssMb = procStatus(daemon->pid(), "VmHWM") / 1024.0;
    return run;
}

} // namespace

void
runServeOpen(const RunArgs &args, Outcome &out)
{
    std::unique_ptr<Daemon> daemon;
    if (!args.trace) {
        ServeRun run = serveRun(args, kSetupReps, false, out, daemon);
        const OpenLoop &l = run.loop;
        out.set("wall_s", l.wallS, "s");
        out.set("setup_s", median(run.setupS), "s");
        // Per second the daemon's runners worked, not per second of
        // the open loop: the loop's length is fixed by the schedule.
        const double busy_s = run.jobRunS() / double(args.jobs);
        if (!(busy_s > 0)) {
            std::fprintf(stderr, "perfbench: no job run time in the "
                                 "daemon's metrics: run invalid\n");
            out.valid = false;
        }
        out.set("sim_mops",
                busy_s > 0 ? double(l.simOps) / busy_s / 1e6 : 0,
                "Mops/s");
        out.extra["serve.job_run_s"] = run.jobRunS();
        out.set("repeat_s", median(run.repeatS), "s");
        out.set("job_p50_ms", quantile(l.latencyMs, 0.50), "ms");
        out.set("job_p95_ms", quantile(l.latencyMs, 0.95), "ms");
        out.set("peak_rss_mb", run.peakRssMb, "MB");
        out.extra["jobs.samples"] = double(l.jobs);
        out.extra["client.late_p95_ms"] = l.latePct95Ms;
        out.extra["client.late_bound_ms"] = kLateBoundMs;
        out.extra["client.rate_sweeps_per_s"] = kSweepsPerSecond;
        out.extra["setup_s.min"] = quantile(run.setupS, 0);
        out.extra["setup_s.max"] = quantile(run.setupS, 1);
        if (l.latePct95Ms > kLateBoundMs) {
            std::fprintf(stderr,
                         "perfbench: open-loop generator ran %.1f ms "
                         "late at p95 (bound %.1f ms): run invalid\n",
                         l.latePct95Ms, kLateBoundMs);
            out.valid = false;
        }
        return;
    }

    // Traced mode: an untraced run for the overhead baseline, then a
    // run against a daemon recording its own runtime trace.
    const double untraced =
        serveRun(args, 1, false, out, daemon).loop.wallS;
    daemon.reset();
    RuntimeTracer tracer;
    tracer.activate();
    ServeRun run;
    {
        TraceSpan span("bench", "run");
        run = serveRun(args, 1, true, out, daemon);
    }
    out.set("serve.threads_end", procStatus(daemon->pid(), "Threads"),
            "count");
    out.set("serve.vmsize_mb_end",
            procStatus(daemon->pid(), "VmSize") / 1024.0, "MB");
    out.set("serve.fds_end", procFdCount(daemon->pid()), "count");
    daemon.reset();

    ProbeSet probes;
    for (const std::string &wl : kPoolWorkloads)
        probes.workloads.push_back(findWorkload(wl));
    probes.trainOps = kTrainOps;
    probes.refOps = kOpenRefOps.front();
    probeLayers(probes, out);
    tracer.deactivate();

    const OpenLoop &l = run.loop;
    out.set("telemetry.trace_overhead_share", l.wallS / untraced - 1.0,
            "ratio");
    out.set("serve.submit_rtt_ms", median(l.submitRttMs), "ms");
    out.set("serve.dedup_share", double(l.deduped) / double(l.jobs),
            "ratio");
    for (const char *c : {"hits", "misses"})
        out.set(std::string("sim.artifact_cache.") + c,
                counter(run.metricsAfter, std::string("serve.cache.") + c) -
                    counter(run.metricsBefore,
                            std::string("serve.cache.") + c),
                "count");

    // Daemon-side numbers over the open loop: the daemon's trace was
    // taken right after it, so its last event ends the phase. (The
    // metrics histograms count every job since daemon start, priming
    // included, in 5 ms and 100 ms buckets.)
    std::string report;
    if (ok(run.traceAfter)) {
        const std::string &json = run.traceAfter.at("trace_json").text;
        std::ofstream(args.outDir + "/serve_open.daemon.trace.json")
            << json;
        double end_us = 0;
        for (const Span &s : parseTrace(json).spans)
            end_us = std::max(end_us, s.ts + s.dur);
        const double from_us = std::max(0.0, end_us - l.wallS * 1e6);
        SpanSet window = parseTrace(json, from_us);
        report = attribute(window, from_us, l.wallS, args.jobs, out);
        poolMetrics(window, from_us, l.wallS, args.jobs, {}, out);
        std::vector<double> queued, wall;
        for (double us : window.async["job.queued"])
            queued.push_back(us / 1e3);
        for (const Span &s : window.spans)
            if (s.name == "job.running")
                wall.push_back(s.dur / 1e3);
        out.set("serve.queue_wait_p50_ms", quantile(queued, 0.50), "ms");
        out.set("serve.queue_wait_p95_ms", quantile(queued, 0.95), "ms");
        out.set("serve.job_wall_p50_ms", median(wall), "ms");
    }
    std::ofstream(args.outDir + "/serve_open.trace.json")
        << tracer.toJson();
    char line[160];
    std::snprintf(line, sizeof line,
                  "trace overhead: traced open-loop wall %.3f s / "
                  "untraced %.3f s - 1 = %+.1f%%\n",
                  l.wallS, untraced, 100.0 * (l.wallS / untraced - 1.0));
    report += line;
    std::ofstream(args.outDir + "/serve_open.attribution.txt") << report;
    std::fprintf(stderr, "%s", report.c_str());
}

std::string
recordServeOpen(const RunArgs &args)
{
    // Every grid point the traffic can submit: the priming sweep and
    // each open-loop length, run through the daemon once.
    Daemon daemon(args, false);
    if (!daemon.ready())
        return "{}";
    std::vector<SweepPlan> plans = {primingSweep()};
    std::vector<uint64_t> refs = kOpenRefOps;
    refs.insert(refs.end(), kRepeatRefOps.begin(), kRepeatRefOps.end());
    for (uint64_t ref : refs) {
        SweepPlan p = primingSweep();
        p.refOps = ref;
        plans.push_back(p);
    }
    std::string json;
    for (const SweepPlan &p : plans) {
        JsonValue resp;
        if (!daemon.request(p.request(), resp) || !ok(resp))
            return "{}";
        // Wait for the grid, then read each job's IPC.
        std::vector<std::string> ids;
        for (const JsonValue &js : resp.at("jobs").elements)
            ids.push_back(js.at("id").text);
        JsonValue st;
        for (;;) {
            st = JsonValue();
            daemon.request("{\"op\":\"status\",\"jobs\":" + strings(ids) +
                               "}",
                           st);
            bool all = ok(st);
            for (const JsonValue &js : st.at("jobs").elements)
                all = all && js.at("state").text == "done";
            if (all)
                break;
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        size_t k = 0;
        for (const std::string &wl : p.workloads)
            for (const std::string &variant : kVariants)
                for (size_t cfg : p.configs)
                    json += (json.empty() ? "" : ",\n    ") +
                            jsonQuote(jobKey(wl, variant, cfg, p.refOps)) +
                            ": " +
                            jsonNumber(
                                st.at("jobs").elements[k++].at("ipc").number);
    }
    return "{\n    " + json + "\n  }";
}

} // namespace perfbench
