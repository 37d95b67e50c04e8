/**
 * @file
 * madbench: one workload per process.
 *
 *   madbench --workload lr_train|bootstrap|serve_mixed --seed N
 *            --seconds S --trace 0|1
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 the per-layer ones.
 * The last line of standard output is the JSON result; diagnostics go to
 * standard error. See README.md.
 */
#include <cstdio>
#include <exception>

#include "harness.h"
#include "workload.h"

using namespace madbench;

namespace {

/** The end-to-end metrics of one untraced run. */
std::vector<Metric>
endToEnd(Workload& w, const TimedPhase& ph, double setup_s)
{
    // Peak RSS is read before the memory-traced pass, whose event buffer
    // is not part of the workload.
    const double rss = peakRssMb();
    return {
        {"setup_s", setup_s, "s"},
        {"latency_ms_p50", median(ph.latencies_ms), "ms"},
        {"throughput_per_s",
         throughputPerSec(ph.latencies_ms.size(), ph.elapsed_s), "1/s"},
        {"dram_mb_per_unit", w.dramMbPerUnit(), "MB"},
        {"peak_rss_mb", rss, "MB"},
        {"precision_bits", precisionBits(w.check().max_abs_err), "bits"},
    };
}

/** The per-layer metrics of one traced run: the workload's own fixture
 *  for the layers every workload reaches, and each layer's home workload
 *  (built here on the same seed when it is not this one) for the rest. */
std::vector<Metric>
perLayer(Workload& w, const Options& opt, const TimedPhase& ph, bool* correct)
{
    std::vector<Metric> out = {
        {"trace.overhead_ratio", ph.trace_overhead, "ratio"}};
    for (Metric& m : fixtureLayerMetrics(w.fixture()))
        out.push_back(std::move(m));
    for (const std::string& name : workloadNames()) {
        std::vector<Metric> home;
        if (name == opt.workload) {
            home = w.homeLayerMetrics();
        } else {
            const std::unique_ptr<Workload> side =
                makeWorkload(name, opt.seed);
            side->setup();
            *correct = *correct && side->check().ok;
            home = side->homeLayerMetrics();
        }
        out.insert(out.end(), home.begin(), home.end());
    }
    return out;
}

} // namespace

int
main(int argc, char** argv)
{
    const auto t_start = Clock::now();
    std::string err;
    const std::optional<Options> opt =
        parseArgs(std::vector<std::string>(argv + 1, argv + argc), &err);
    if (!opt) {
        std::fprintf(stderr,
                     "madbench: %s\nusage: madbench --workload "
                     "lr_train|bootstrap|serve_mixed --seed N --seconds S "
                     "--trace 0|1\n",
                     err.c_str());
        return 2;
    }
    try {
        const std::unique_ptr<Workload> w =
            makeWorkload(opt->workload, opt->seed);
        w->setup();
        const double setup_s = secondsSince(t_start);
        const TimedPhase ph = w->runTimed(opt->seconds, opt->trace);
        if (ph.latencies_ms.size() <= 64) {
            std::fprintf(stderr, "madbench: unit ms:");
            for (double ms : ph.latencies_ms)
                std::fprintf(stderr, " %.0f", ms);
            std::fprintf(stderr, "\n");
        }
        bool correct = w->check().ok && ph.outputs_ok;
        const std::vector<Metric> metrics =
            opt->trace ? perLayer(*w, *opt, ph, &correct)
                       : endToEnd(*w, ph, setup_s);
        std::printf("%s\n",
                    resultJson(correct, ph.attempted, ph.failed, metrics)
                        .c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "madbench: %s\n", e.what());
        return 1;
    }
}
