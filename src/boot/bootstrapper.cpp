#include "boot/bootstrapper.h"

#include <cmath>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {
faultinject::Site g_fault_modraise("boot.modraise", faultinject::kLimbKinds);
} // namespace

Bootstrapper::Bootstrapper(std::shared_ptr<const CkksContext> ctx_,
                           BootstrapParams params)
    : ctx(std::move(ctx_)), parms(params)
{
    const size_t slots = ctx->slots();
    const double delta = ctx->scale();
    const double q0 = static_cast<double>(ctx->qValue(0));
    const double k = parms.k_bound;

    // CoeffToSlot carries Delta/(2*q0*K): its output slots are
    // t/(q0*K) after the conjugation split (in [-1, 1]).
    auto ctos_maps =
        coeffToSlotFactors(slots, parms.ctos_iters, delta / (2.0 * q0 * k));
    // SlotToCoeff carries q0*K/Delta, undoing the normalization.
    auto stoc_maps =
        slotToCoeffFactors(slots, parms.stoc_iters, q0 * k / delta);
    for (auto& m : ctos_maps)
        ctos.emplace_back(ctx, std::move(m), delta, parms.matvec);
    for (auto& m : stoc_maps)
        stoc.emplace_back(ctx, std::move(m), delta, parms.matvec);

    // Chebyshev series for f(x) = sin(2*pi*K*x) / (2*pi*K) on [-1, 1].
    const double two_pi_k = 2.0 * std::acos(-1.0) * k;
    auto f = [two_pi_k](double x) { return std::sin(two_pi_k * x) / two_pi_k; };
    sine = std::make_unique<ChebyshevEvaluator>(
        ctx, chebyshevInterpolate(f, parms.sine_degree));

}

std::vector<int>
Bootstrapper::requiredRotations() const
{
    std::vector<int> steps;
    for (const auto& f : ctos) {
        auto s = f.requiredRotations();
        steps.insert(steps.end(), s.begin(), s.end());
    }
    for (const auto& f : stoc) {
        auto s = f.requiredRotations();
        steps.insert(steps.end(), s.begin(), s.end());
    }
    return steps;
}

size_t
Bootstrapper::depth() const
{
    return parms.ctos_iters + parms.stoc_iters + sine->depth();
}

Ciphertext
Bootstrapper::modRaise(const Ciphertext& ct) const
{
    MAD_REQUIRE(ct.level() == 1, "modRaise expects a one-limb ciphertext");
    MAD_TRACE_SCOPE("ModRaise");
    TELEM_SPAN("ModRaise");
    const size_t n = ctx->degree();
    const Modulus& q0 = ctx->ring()->modulus(0);
    auto full_basis = ctx->ring()->qIndices(ctx->maxLevel());

    auto raisePoly = [&](const RnsPoly& p) {
        RnsPoly coeff = p;
        coeff.setRep(Rep::Coeff);
        RnsPoly out(ctx->ring(), full_basis, Rep::Coeff);
        // Center limb 0 of the private copy in place; every raised limb
        // lifts the same signed values with the from_signed kernel.
        u64* low = coeff.limb(0);
        i64* src = reinterpret_cast<i64*>(low);
        MAD_TRACE_READ(src, n * sizeof(u64));
        for (size_t c = 0; c < n; ++c)
            src[c] = q0.toSigned(low[c]);
        parallelFor(out.numLimbs(), [&](size_t i) {
            const Modulus& qi = ctx->ring()->modulus(i);
            u64* dst = out.limb(i);
            MAD_TRACE_WRITE(dst, n * sizeof(u64));
            simd::kernels().from_signed(dst, src, n, qi.value());
        });
        out.toEval();
        for (size_t i = 0; i < out.numLimbs(); ++i)
            faultinject::guardLimb(g_fault_modraise, out.limb(i), n);
        return out;
    };

    Ciphertext out;
    out.c0 = raisePoly(ct.c0);
    out.c1 = raisePoly(ct.c1);
    out.scale = ct.scale;
    return out;
}

Ciphertext
Bootstrapper::bootstrap(const Evaluator& eval, const CkksEncoder& encoder,
                        const Ciphertext& ct_in, const GaloisKeys& gks,
                        const SwitchingKey& rlk) const
{
    MAD_ERROR_OP("Bootstrap");
    MAD_TRACE_SCOPE("Bootstrap");
    TELEM_SPAN("Bootstrap");
    Ciphertext ct = ct_in.level() == 1 ? ct_in : eval.dropToLevel(ct_in, 1);

    // 1. ModRaise: plaintext becomes Delta*m + q0*I over the full chain.
    Ciphertext t = modRaise(ct);

    // 2. CoeffToSlot: slots become coefficient pairs, scaled into [-1,1].
    {
        MAD_TRACE_SCOPE("CoeffToSlot");
        TELEM_SPAN("CoeffToSlot");
        for (const auto& f : ctos)
            t = f.apply(eval, encoder, t, gks);
    }

    Ciphertext u;
    {
        MAD_TRACE_SCOPE("EvalMod");
        TELEM_SPAN("EvalMod");
        // 3. Conjugation split: real and imaginary coefficient halves.
        Ciphertext t_conj = eval.conjugate(t, gks);
        Ciphertext ct_re = eval.add(t, t_conj);
        Ciphertext ct_im =
            eval.negate(eval.mulImaginary(eval.sub(t, t_conj)));

        // 4. Approximate mod reduction on both halves (Algorithm 4, line 5).
        Ciphertext re2 = sine->evaluate(eval, encoder, ct_re, rlk);
        Ciphertext im2 = sine->evaluate(eval, encoder, ct_im, rlk);

        // 5. Recombine into complex coefficient pairs.
        size_t lvl = std::min(re2.level(), im2.level());
        re2 = eval.dropToLevel(re2, lvl);
        im2 = eval.dropToLevel(im2, lvl);
        u = eval.add(re2, eval.mulImaginary(im2));
    }

    // 6. SlotToCoeff: return to coefficient encoding. The folded
    // constants cancel, so the tracked scale lands near Delta.
    {
        MAD_TRACE_SCOPE("SlotToCoeff");
        TELEM_SPAN("SlotToCoeff");
        for (const auto& f : stoc)
            u = f.apply(eval, encoder, u, gks);
    }
    return u;
}

} // namespace madfhe
