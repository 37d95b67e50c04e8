#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "memtrace/crossval.h"
#include "memtrace/replay.h"
#include "memtrace/trace.h"
#include "telemetry/telemetry.h"

namespace madbench {

using namespace madfhe;

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"lr_train", "bootstrap",
                                                   "serve_mixed"};
    return names;
}

namespace {

bool
parseU64(const std::string& s, u64* out)
{
    if (s.empty() || s.size() > 19 ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    *out = std::stoull(s);
    return true;
}

} // namespace

std::optional<Options>
parseArgs(const std::vector<std::string>& args, std::string* err)
{
    Options o;
    bool have_workload = false;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string& flag = args[i];
        if (i + 1 >= args.size()) {
            *err = "missing value for " + flag;
            return std::nullopt;
        }
        const std::string& val = args[++i];
        u64 n = 0;
        if (flag == "--workload") {
            const auto& names = workloadNames();
            if (std::find(names.begin(), names.end(), val) == names.end()) {
                *err = "unknown workload '" + val + "'";
                return std::nullopt;
            }
            o.workload = val;
            have_workload = true;
        } else if (flag == "--seed" && parseU64(val, &n)) {
            o.seed = n;
        } else if (flag == "--seconds" && parseU64(val, &n) && n >= 1 &&
                   n <= 600) {
            o.seconds = static_cast<double>(n);
        } else if (flag == "--trace" && (val == "0" || val == "1")) {
            o.trace = val == "1";
        } else {
            *err = "bad argument " + flag + " " + val;
            return std::nullopt;
        }
    }
    if (!have_workload) {
        *err = "--workload is required";
        return std::nullopt;
    }
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    const size_t mid = v.size() / 2;
    std::nth_element(v.begin(), v.begin() + mid, v.end());
    const double hi = v[mid];
    if (v.size() % 2 == 1)
        return hi;
    const double lo = *std::max_element(v.begin(), v.begin() + mid);
    return (lo + hi) / 2;
}

double
throughputPerSec(u64 units, double seconds)
{
    return seconds > 0 ? static_cast<double>(units) / seconds : 0;
}

double
precisionBits(double max_abs_err)
{
    if (!(max_abs_err > 0))
        return 64;
    return std::min(64.0, -std::log2(max_abs_err));
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
medianMs(size_t reps, const std::function<void()>& fn)
{
    fn();
    std::vector<double> ms;
    for (size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn();
        ms.push_back(msSince(t0));
    }
    return median(ms);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KB
}

memtrace::Trace
traceOf(const std::function<void()>& fn)
{
    memtrace::TraceSink& sink = memtrace::TraceSink::instance();
    sink.clear();
    sink.enable();
    try {
        fn();
    } catch (...) {
        sink.disable();
        sink.clear();
        throw;
    }
    sink.disable();
    memtrace::Trace trace = sink.snapshot();
    sink.clear();
    return trace;
}

namespace {

/** The events of every occurrence of scope `name`, each wrapped as a
 *  top-level scope so the replay cache is flushed between them. */
memtrace::Trace
extractScope(const memtrace::Trace& trace, const std::string& name)
{
    memtrace::Trace out;
    out.scope_names = trace.scope_names;
    size_t depth = 0; // open scopes inside the current occurrence
    for (const memtrace::Event& e : trace.events) {
        const bool begin = e.kind == memtrace::Kind::ScopeBegin;
        const bool end = e.kind == memtrace::Kind::ScopeEnd;
        if (depth == 0) {
            if (begin && e.addr < trace.scope_names.size() &&
                trace.scope_names[e.addr] == name) {
                out.events.push_back(e);
                depth = 1;
            }
            continue;
        }
        out.events.push_back(e);
        if (begin)
            ++depth;
        else if (end)
            --depth;
    }
    return out;
}

} // namespace

double
replayedDramMb(const CkksParams& params, const memtrace::Trace& trace,
               const std::string& scope)
{
    const memtrace::ReplayConfig rc = memtrace::scaledReplayConfig(
        params, 32, memtrace::ReplayConfig::Policy::Lru);
    memtrace::ReplayResult res;
    if (scope.empty()) {
        // One enclosing scope: cold at the start, written back at the end,
        // whatever scopes the library opened inside.
        memtrace::Trace unit;
        unit.scope_names = trace.scope_names;
        unit.scope_names.push_back("madbench.unit");
        const u64 id = unit.scope_names.size() - 1;
        unit.events.reserve(trace.events.size() + 2);
        unit.events.push_back({id, 0, memtrace::Kind::ScopeBegin});
        unit.events.insert(unit.events.end(), trace.events.begin(),
                           trace.events.end());
        unit.events.push_back({id, 0, memtrace::Kind::ScopeEnd});
        res = memtrace::replay(unit, rc);
    } else {
        res = memtrace::replay(extractScope(trace, scope), rc);
    }
    return res.total.bytes() / (1024.0 * 1024.0);
}

namespace {

constexpr u64 kFnvPrime = 0x100000001b3ULL;

u64
mix(u64 h, u64 word)
{
    return (h ^ word) * kFnvPrime;
}

u64
mixPoly(u64 h, const RnsPoly& p)
{
    h = mix(h, p.numLimbs());
    for (size_t i = 0; i < p.numLimbs(); ++i) {
        const u64* limb = p.limb(i);
        for (size_t k = 0; k < p.degree(); ++k)
            h = mix(h, limb[k]);
    }
    return h;
}

} // namespace

u64
digest(const Ciphertext& ct)
{
    u64 h = 0xcbf29ce484222325ULL;
    u64 scale_bits = 0;
    std::memcpy(&scale_bits, &ct.scale, sizeof scale_bits);
    h = mix(h, scale_bits);
    h = mixPoly(h, ct.c0);
    return mixPoly(h, ct.c1);
}

u64
digest(const std::vector<Ciphertext>& cts)
{
    u64 h = 0xcbf29ce484222325ULL;
    for (const Ciphertext& ct : cts)
        h = mix(h, digest(ct));
    return h;
}

std::string
resultJson(bool correct, u64 attempted, u64 failed,
           const std::vector<Metric>& metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        // Non-finite values are not JSON: write them as -1, a value no
        // metric takes when measured.
        const double v = std::isfinite(m.value) ? m.value : -1.0;
        std::snprintf(buf, sizeof buf, "%.17g", v);
        out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
    }
    out += "}}";
    return out;
}

namespace {

/**
 * Moves the calling thread to the next CPU of its initial affinity mask
 * before each unit, and restores the mask when it goes out of scope.
 * On a shared host each vCPU's speed drifts with its neighbours' load;
 * a single-threaded run left on one vCPU measures that vCPU's phase,
 * while a run that visits every vCPU in turn measures their mix.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&initial);
        ok = sched_getaffinity(0, sizeof initial, &initial) == 0;
        for (int c = 0; ok && c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &initial))
                cpus.push_back(c);
    }
    ~CpuRotation()
    {
        if (ok)
            sched_setaffinity(0, sizeof initial, &initial);
    }
    CpuRotation(const CpuRotation&) = delete;
    CpuRotation& operator=(const CpuRotation&) = delete;

    void
    next()
    {
        if (cpus.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[turn++ % cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t initial;
    bool ok = false;
    std::vector<int> cpus;
    size_t turn = 0;
};

} // namespace

TimedPhase
timeSerialUnits(double seconds, u64 want, const std::function<u64()>& unit,
                bool interleave_spans)
{
    TimedPhase ph;
    std::vector<double> spans_on, spans_off;
    CpuRotation rotation;
    const auto t0 = Clock::now();
    while (secondsSince(t0) < seconds) {
        rotation.next();
        const bool spans = interleave_spans && ph.attempted % 2 == 1;
        telemetry::setLevel(spans ? telemetry::Level::Spans
                                  : telemetry::Level::Off);
        const auto u0 = Clock::now();
        ++ph.attempted;
        u64 got = 0;
        try {
            got = unit();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "madbench: unit failed: %s\n", e.what());
            ++ph.failed;
            continue;
        }
        const double ms = msSince(u0);
        ph.latencies_ms.push_back(ms);
        (spans ? spans_on : spans_off).push_back(ms);
        if (got != want)
            ph.outputs_ok = false;
    }
    ph.elapsed_s = secondsSince(t0);
    telemetry::setLevel(telemetry::Level::Off);
    if (interleave_spans && !spans_on.empty() && !spans_off.empty())
        ph.trace_overhead = median(spans_on) / median(spans_off);
    return ph;
}

} // namespace madbench
