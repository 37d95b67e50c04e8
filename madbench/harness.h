/**
 * @file
 * The benchmark's shared machinery: command-line options, the timing
 * statistics every workload reports, peak-RSS and replayed-DRAM readers,
 * result digests and the one-line JSON result.
 */
#ifndef MADBENCH_HARNESS_H
#define MADBENCH_HARNESS_H

#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ckks/ciphertext.h"
#include "ckks/params.h"
#include "memtrace/trace.h"

namespace madbench {

using madfhe::u64;
using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10;
    bool trace = false;
};

/** Parse `--workload W --seed N --seconds S --trace 0|1`; nullopt (and
 *  a message in `err`) on anything else. */
std::optional<Options> parseArgs(const std::vector<std::string>& args,
                                 std::string* err);

/** Median (mean of the middle pair for even sizes); 0 for empty input. */
double median(std::vector<double> v);
/** Units completed per second of the timed phase. */
double throughputPerSec(u64 units, double seconds);
/** -log2 of the largest absolute error; capped at 64 bits for an exact
 *  result so the metric stays finite. */
double precisionBits(double max_abs_err);

double secondsSince(Clock::time_point t0);
double msSince(Clock::time_point t0);

/** Median milliseconds of `reps` calls of `fn` (one untimed call first). */
double medianMs(size_t reps, const std::function<void()>& fn);

/** Peak resident set size of this process, in MB. */
double peakRssMb();

/** The memtrace event stream of one call of `fn` (tracing is off
 *  before and after). */
madfhe::memtrace::Trace traceOf(const std::function<void()>& fn);

/**
 * Replayed DRAM MB of a trace: an LRU on-chip cache of 32 limbs at
 * `params`' ring (scaledReplayConfig), the paper's 32 MB at N = 2^17
 * moved to the reduced ring. With `scope` empty the whole trace is
 * replayed as one cold unit; otherwise only the events inside each
 * occurrence of the named memtrace scope (at any depth), each
 * occurrence starting cold, summed.
 */
double replayedDramMb(const madfhe::CkksParams& params,
                      const madfhe::memtrace::Trace& trace,
                      const std::string& scope = {});

/** FNV-1a-style fingerprint of ciphertext bytes (limbs, scale, level). */
u64 digest(const madfhe::Ciphertext& ct);
u64 digest(const std::vector<madfhe::Ciphertext>& cts);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** The result line: {"correct", "attempted", "failed", "metrics"}. */
std::string resultJson(bool correct, u64 attempted, u64 failed,
                       const std::vector<Metric>& metrics);

/** What a workload's timed phase measured. */
struct TimedPhase
{
    std::vector<double> latencies_ms; ///< one per completed unit
    u64 attempted = 0;
    u64 failed = 0;
    double elapsed_s = 0;
    bool outputs_ok = true; ///< every unit matched the checked digest
    /** Trace mode: median unit latency with telemetry spans on over the
     *  median with them off, units interleaved. 0 outside trace mode. */
    double trace_overhead = 0;
};

/**
 * Run `unit` back to back until `seconds` have passed. Each unit returns
 * its output digest, which must equal `want`. With `interleave_spans`,
 * every other unit runs with telemetry spans on and the phase reports
 * the overhead ratio.
 */
TimedPhase timeSerialUnits(double seconds, u64 want,
                           const std::function<u64()>& unit,
                           bool interleave_spans);

/** The three workloads' names, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& workloadNames();

} // namespace madbench

#endif // MADBENCH_HARNESS_H
