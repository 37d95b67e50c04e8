/**
 * @file
 * bootstrap: one full Algorithm-4 bootstrap of a 1-limb ciphertext per
 * unit, at N = 2^11 with 20 levels and a Hamming-weight-16 secret.
 * CoeffToSlot/SlotToCoeff (BSGS matvec with hoisted rotations) and
 * EvalMod dominate; this is where the paper's DRAM claim lives.
 */
#include "boot/bootstrapper.h"
#include "telemetry/export.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace madbench {

using namespace madfhe;

namespace {

/** The stage spans Bootstrapper::bootstrap records and the memtrace
 *  scopes it opens, with the metric names they feed. */
struct Stage
{
    const char* span;
    const char* scope;
    const char* metric;
};
constexpr Stage kStages[] = {
    {"Bootstrap/CoeffToSlot", "CoeffToSlot", "boot.coeff_to_slot"},
    {"Bootstrap/EvalMod", "EvalMod", "boot.eval_mod"},
    {"Bootstrap/SlotToCoeff", "SlotToCoeff", "boot.slot_to_coeff"},
};

class Boot final : public Workload
{
  public:
    explicit Boot(u64 seed) : seed(seed) {}

    void
    setup() override
    {
        CkksParams p = CkksParams::bootstrapToy();
        p.log_n = 11;
        p.hamming_weight = 16;
        fx = std::make_unique<Fixture>(p, seed);
        BootstrapParams bp;
        bp.k_bound = 8.0;
        boot = std::make_unique<Bootstrapper>(fx->ctx, bp);
        fx->gks = fx->keygen.galoisKeys(fx->sk, boot->requiredRotations(),
                                        /*include_conjugate=*/true);
        msg = fx->randomSlots(1, 0.5);
        ct = fx->encrypt(msg, 1);

        const Ciphertext fresh = unit();
        want = digest(fresh);
        const size_t n = fx->ctx->slots();
        checked = checkSlots(fx->decrypt(fresh), msg, n, 0.02);
        // The refreshed ciphertext must still compute: one squaring.
        const CheckResult sq =
            checkSlots(fx->decrypt(fx->eval.square(fresh, fx->rlk)),
                       plainMul(msg, msg), n, 0.02);
        checked.ok = checked.ok && sq.ok;
    }

    const CheckResult& check() const override { return checked; }

    TimedPhase
    runTimed(double seconds, bool interleave_spans) override
    {
        return timeSerialUnits(
            seconds, want, [&] { return digest(unit()); }, interleave_spans);
    }

    double
    dramMbPerUnit() override
    {
        return replayedDramMb(fx->ctx->params(), traceOf([&] { unit(); }));
    }

    std::vector<Metric>
    homeLayerMetrics() override
    {
        std::vector<Metric> out;
        out.push_back({"boot.mod_raise_ms",
                       medianMs(7, [&] { (void)boot->modRaise(ct); }), "ms"});

        // Stages without a public entry point: read the span tree.
        telemetry::resetAll();
        telemetry::setLevel(telemetry::Level::Spans);
        for (int i = 0; i < 2; ++i)
            unit();
        telemetry::setLevel(telemetry::Level::Off);
        const telemetry::Snapshot snap = telemetry::snapshot();
        for (const Stage& s : kStages) {
            const telemetry::SpanRow* row = snap.span(s.span);
            const double ms =
                row && row->count
                    ? static_cast<double>(row->total_ns) / 1e6 /
                          static_cast<double>(row->count)
                    : -1;
            out.push_back({std::string(s.metric) + "_ms", ms, "ms"});
        }

        const memtrace::Trace trace = traceOf([&] { unit(); });
        for (const Stage& s : kStages)
            out.push_back({std::string(s.metric) + "_dram_mb",
                           replayedDramMb(fx->ctx->params(), trace, s.scope),
                           "MB"});
        return out;
    }

    Fixture& fixture() override { return *fx; }

  private:
    Ciphertext
    unit() const
    {
        return boot->bootstrap(fx->eval, fx->encoder, ct, fx->gks, fx->rlk);
    }

    u64 seed;
    std::unique_ptr<Fixture> fx;
    std::unique_ptr<Bootstrapper> boot;
    std::vector<std::complex<double>> msg;
    Ciphertext ct;
    CheckResult checked;
    u64 want = 0;
};

} // namespace

std::unique_ptr<Workload>
makeBootstrap(u64 seed)
{
    return std::make_unique<Boot>(seed);
}

} // namespace madbench
