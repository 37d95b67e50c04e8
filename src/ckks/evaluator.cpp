#include "ckks/evaluator.h"

#include <array>
#include <cmath>

#include "ckks/shape.h"
#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {

faultinject::Site g_fault_rescale("ckks.rescale", faultinject::kLimbKinds);

/** The tensor product (d0, d1, d2): d0 + d1*s + d2*s^2 equals
 *  (a0 + a1 s)(b0 + b1 s). */
std::array<RnsPoly, 3>
tensor(const Ciphertext& a, const Ciphertext& b)
{
    RnsPoly d0 = a.c0;
    d0.mulPointwise(b.c0);
    RnsPoly d1 = a.c0;
    d1.mulPointwise(b.c1);
    d1.addMul(a.c1, b.c0);
    RnsPoly d2 = a.c1;
    d2.mulPointwise(b.c1);
    return {std::move(d0), std::move(d1), std::move(d2)};
}

} // namespace

Evaluator::Evaluator(std::shared_ptr<const CkksContext> ctx_,
                     EvalOptions options)
    : ctx(ctx_), ksw(ctx_), opts(options)
{
}

Ciphertext
Evaluator::add(const Ciphertext& a, const Ciphertext& b) const
{
    shape::add(shape::of(a), shape::of(b));
    Ciphertext out = a;
    out.c0.add(b.c0);
    out.c1.add(b.c1);
    return out;
}

Ciphertext
Evaluator::sub(const Ciphertext& a, const Ciphertext& b) const
{
    shape::add(shape::of(a), shape::of(b));
    Ciphertext out = a;
    out.c0.sub(b.c0);
    out.c1.sub(b.c1);
    return out;
}

Ciphertext
Evaluator::negate(const Ciphertext& a) const
{
    Ciphertext out = a;
    out.c0.negate();
    out.c1.negate();
    return out;
}

std::pair<Ciphertext, Ciphertext>
Evaluator::align(const Ciphertext& a, const Ciphertext& b) const
{
    const shape::AlignPlan plan = shape::planAlign(shape::of(a), shape::of(b));
    Ciphertext x = a, y = b;
    if (x.level() > plan.level)
        x = dropToLevel(x, plan.level);
    if (y.level() > plan.level)
        y = dropToLevel(y, plan.level);
    if (plan.adjust >= 0) {
        Ciphertext& big = plan.adjust == 0 ? x : y;
        Ciphertext& other = plan.adjust == 0 ? y : x;
        big = mulScalarRescale(big, plan.ratio);
        big.scale = other.scale; // exact by construction of the ratio
        other = dropToLevel(other, big.level());
    }
    return {std::move(x), std::move(y)};
}

Ciphertext
Evaluator::addAligned(const Ciphertext& a, const Ciphertext& b) const
{
    auto [x, y] = align(a, b);
    return add(x, y);
}

Ciphertext
Evaluator::subAligned(const Ciphertext& a, const Ciphertext& b) const
{
    auto [x, y] = align(a, b);
    return sub(x, y);
}

Ciphertext
Evaluator::addPlain(const Ciphertext& a, const Plaintext& pt) const
{
    shape::addPlain(shape::of(a), shape::of(pt));
    Ciphertext out = a;
    out.c0.add(pt.poly);
    return out;
}

Ciphertext
Evaluator::subPlain(const Ciphertext& a, const Plaintext& pt) const
{
    shape::addPlain(shape::of(a), shape::of(pt));
    Ciphertext out = a;
    out.c0.sub(pt.poly);
    return out;
}

Ciphertext
Evaluator::mulPlain(const Ciphertext& a, const Plaintext& pt) const
{
    const shape::Shape s = shape::mulPlain(shape::of(a), shape::of(pt));
    Ciphertext out = a;
    out.c0.mulPointwise(pt.poly);
    out.c1.mulPointwise(pt.poly);
    out.scale = s.scale;
    return out;
}

Ciphertext
Evaluator::mulPlainRescale(const Ciphertext& a, const Plaintext& pt) const
{
    return rescale(mulPlain(a, pt));
}

Ciphertext
Evaluator::mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                        const SwitchingKey& rlk) const
{
    MAD_TRACE_SCOPE("Mult");
    TELEM_SPAN("Mult");
    const shape::Shape s = shape::mulNoRescale(shape::of(a), shape::of(b));
    auto [d0, d1, d2] = tensor(a, b);
    auto [u, v] = ksw.keySwitch(d2, rlk);
    Ciphertext out;
    out.c0 = std::move(d0);
    out.c0.add(u);
    out.c1 = std::move(d1);
    out.c1.add(v);
    out.scale = s.scale;
    return out;
}

Ciphertext
Evaluator::mul(const Ciphertext& a, const Ciphertext& b,
               const SwitchingKey& rlk) const
{
    MAD_ERROR_OP("Mult");
    const shape::Shape s = shape::mul(shape::of(a), shape::of(b), *ctx);
    if (!opts.merged_moddown)
        return rescale(mulNoRescale(a, b, rlk));

    MAD_TRACE_SCOPE("Mult");
    TELEM_SPAN("Mult");
    auto [d0, d1, d2] = tensor(a, b);

    // Raised-basis KeySwitch, with the linear Add lifted above ModDown
    // (Figure 4(b)) and a single merged ModDown dividing by P * q_top
    // (Figure 4(c)). keySwitchMerged dispatches on MADFHE_STREAM: Off
    // composes the materializing primitives, the streaming policies run
    // the fused limb-by-limb engine (byte-identical outputs).
    auto [u, v] = ksw.keySwitchMerged(d2, rlk, d0, d1);

    Ciphertext out;
    out.c0 = std::move(u);
    out.c1 = std::move(v);
    out.scale = s.scale;
    return out;
}

Ciphertext
Evaluator::square(const Ciphertext& a, const SwitchingKey& rlk) const
{
    return mul(a, a, rlk);
}

namespace {

/**
 * Divide one polynomial (eval rep) by its top limb with rounding:
 * out_i = (x_i - lift([x]_q_top)) * q_top^{-1} mod q_i.
 */
RnsPoly
rescalePoly(const RnsPoly& x, const CkksContext& ctx)
{
    MAD_TRACE_SCOPE("Rescale");
    TELEM_SPAN("Rescale");
    const size_t level = x.numLimbs();
    const size_t n = x.degree();
    const Modulus& q_top = ctx.ring()->modulus(level - 1);

    std::vector<u64> top(x.limb(level - 1), x.limb(level - 1) + n);
    MAD_TRACE_ALLOC(top.data(), n * sizeof(u64));
    MAD_TRACE_READ(x.limb(level - 1), n * sizeof(u64));
    MAD_TRACE_WRITE(top.data(), n * sizeof(u64));
    ctx.ring()->ntt(level - 1).inverse(top.data());
    // Center the dropped limb once; every kept limb lifts the same
    // signed values with the from_signed kernel.
    i64* top_signed = reinterpret_cast<i64*>(top.data());
    for (size_t c = 0; c < n; ++c)
        top_signed[c] = q_top.toSigned(top[c]);

    RnsPoly out(x.context(), ctx.ring()->qIndices(level - 1), Rep::Eval);
    // One correction slice per kept limb so the limbs are independent
    // parallel tasks (a single shared buffer would serialize them).
    std::vector<u64> corr((level - 1) * n);
    MAD_TRACE_ALLOC(corr.data(), corr.size() * sizeof(u64));
    parallelFor(level - 1, [&](size_t i) {
        const Modulus& qi = ctx.ring()->modulus(i);
        u64* ci = corr.data() + i * n;
        MAD_TRACE_READ(top.data(), n * sizeof(u64));
        MAD_TRACE_WRITE(ci, n * sizeof(u64));
        simd::kernels().from_signed(ci, top_signed, n, qi.value());
        ctx.ring()->ntt(i).forward(ci);
        const u64 inv = ctx.rescaleInv(level, i);
        const u64 inv_shoup = qi.shoupPrecompute(inv);
        const u64* xi = x.limb(i);
        u64* oi = out.limb(i);
        MAD_TRACE_READ(xi, n * sizeof(u64));
        MAD_TRACE_READ(ci, n * sizeof(u64));
        MAD_TRACE_WRITE(oi, n * sizeof(u64));
        simd::kernels().sub_mul_shoup(oi, xi, ci, n, inv, inv_shoup,
                                      qi.value());
    });
    for (size_t i = 0; i + 1 < level; ++i)
        faultinject::guardLimb(g_fault_rescale, out.limb(i), n);
    return out;
}

} // namespace

Ciphertext
Evaluator::rescale(const Ciphertext& a) const
{
    MAD_ERROR_OP("Rescale");
    const shape::Shape s = shape::rescale(shape::of(a), *ctx);
    Ciphertext out;
    out.c0 = rescalePoly(a.c0, *ctx);
    out.c1 = rescalePoly(a.c1, *ctx);
    out.scale = s.scale;
    if (integrity::enabled()) {
        // Scale/level sanity: rescale must drop exactly one limb and land
        // on a finite positive scale, or downstream math quietly degrades.
        if (out.level() != a.level() - 1 || !std::isfinite(out.scale) ||
            out.scale <= 0.0)
            throw FaultDetectedError("rescale produced an insane "
                                     "scale/level pair",
                                     __FILE__, __LINE__);
    }
    return out;
}

Ciphertext
Evaluator::dropToLevel(const Ciphertext& a, size_t level) const
{
    shape::dropToLevel(shape::of(a), level);
    Ciphertext out = a;
    out.c0.truncateLimbs(level);
    out.c1.truncateLimbs(level);
    return out;
}

Ciphertext
Evaluator::automorphKeySwitch(const Ciphertext& a, u64 elt,
                              const GaloisKeys& gks) const
{
    const SwitchingKey& gk = shape::galoisKey(gks, elt);
    RnsPoly c0t = a.c0.automorph(elt);
    RnsPoly c1t = a.c1.automorph(elt);
    auto [u, v] = ksw.keySwitch(c1t, gk);
    Ciphertext out;
    out.c0 = std::move(c0t);
    out.c0.add(u);
    out.c1 = std::move(v);
    out.scale = a.scale;
    return out;
}

Ciphertext
Evaluator::rotate(const Ciphertext& a, int steps, const GaloisKeys& gks) const
{
    MAD_ERROR_OP("Rotate");
    const u64 t = ctx->ring()->galoisElt(steps);
    if (t == 1)
        return a;
    MAD_TRACE_SCOPE("Rotate");
    TELEM_SPAN("Rotate");
    return automorphKeySwitch(a, t, gks);
}

Ciphertext
Evaluator::conjugate(const Ciphertext& a, const GaloisKeys& gks) const
{
    MAD_ERROR_OP("Conjugate");
    MAD_TRACE_SCOPE("Conjugate");
    TELEM_SPAN("Conjugate");
    return automorphKeySwitch(a, ctx->ring()->conjugateElt(), gks);
}

std::vector<Ciphertext>
Evaluator::rotateHoisted(const Ciphertext& a, const std::vector<int>& steps,
                         const GaloisKeys& gks) const
{
    // Decomp + ModUp once (Figure 5(c)); per step only Automorph +
    // KSKInnerProd + ModDown remain. The digits are computed lazily on
    // the first step that actually key-switches, so an empty step list
    // (-> empty result) or an all-zero one (-> copies of the input)
    // never pays or traces a wasted Decomp+ModUp. Duplicate steps are
    // well-defined: each occurrence yields an identical ciphertext off
    // the shared digits.
    std::vector<RnsPoly> digits;

    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    for (int s : steps) {
        const u64 t = ctx->ring()->galoisElt(s);
        if (t == 1) {
            out.push_back(a);
            continue;
        }
        const SwitchingKey& gk = shape::galoisKey(gks, t);
        if (digits.empty())
            digits = ksw.decomposeAndRaise(a.c1);
        std::vector<RnsPoly> rotated;
        rotated.reserve(digits.size());
        for (const auto& d : digits)
            rotated.push_back(d.automorph(t));
        RaisedCiphertext raised = ksw.innerProduct(rotated, gk);

        Ciphertext ct;
        ct.c0 = a.c0.automorph(t);
        ct.c0.add(ksw.modDown(raised.c0));
        ct.c1 = ksw.modDown(raised.c1);
        ct.scale = a.scale;
        out.push_back(std::move(ct));
    }
    return out;
}

RaisedCiphertext
Evaluator::rotateRaised(const std::vector<RnsPoly>& digits,
                        const Ciphertext& a, int steps,
                        const GaloisKeys& gks) const
{
    const u64 t = ctx->ring()->galoisElt(steps);
    RaisedCiphertext raised;
    if (t == 1) {
        raised.c0 = ksw.pModUp(a.c0);
        raised.c1 = ksw.pModUp(a.c1);
        raised.q_level = a.level();
        raised.scale = a.scale;
        return raised;
    }
    const SwitchingKey& gk = shape::galoisKey(gks, t);
    std::vector<RnsPoly> rotated;
    rotated.reserve(digits.size());
    for (const auto& d : digits)
        rotated.push_back(d.automorph(t));
    raised = ksw.innerProduct(rotated, gk);
    raised.c0.add(ksw.pModUp(a.c0.automorph(t)));
    raised.scale = a.scale;
    return raised;
}

Ciphertext
Evaluator::modDownPair(const RaisedCiphertext& r) const
{
    Ciphertext out;
    out.c0 = ksw.modDown(r.c0);
    out.c1 = ksw.modDown(r.c1);
    out.scale = r.scale;
    return out;
}

void
Evaluator::mulPlainRaised(RaisedCiphertext& r, const Plaintext& pt) const
{
    MAD_REQUIRE(pt.poly.numLimbs() == r.c0.numLimbs(),
            "raised plaintext must cover the full PQ basis");
    r.c0.mulPointwise(pt.poly);
    r.c1.mulPointwise(pt.poly);
    r.scale *= pt.scale;
}

void
Evaluator::addRaised(RaisedCiphertext& acc, const RaisedCiphertext& r) const
{
    shape::addRaised({acc.q_level, acc.scale}, {r.q_level, r.scale});
    acc.c0.add(r.c0);
    acc.c1.add(r.c1);
}

Ciphertext
Evaluator::mulMonomial(const Ciphertext& a, size_t power) const
{
    MAD_REQUIRE(a.c0.rep() == Rep::Eval, "mulMonomial expects eval rep");
    const size_t n = ctx->degree();
    Ciphertext out = a;
    parallelFor(a.level(), [&](size_t i) {
        const u32 chain_idx = a.c0.basis()[i];
        const NttTables& ntt = ctx->ring()->ntt(chain_idx);
        const Modulus& q = ctx->ring()->modulus(chain_idx);
        u64* c0 = out.c0.limb(i);
        u64* c1 = out.c1.limb(i);
        MAD_TRACE_READ(c0, n * sizeof(u64));
        MAD_TRACE_READ(c1, n * sizeof(u64));
        MAD_TRACE_WRITE(c0, n * sizeof(u64));
        MAD_TRACE_WRITE(c1, n * sizeof(u64));
        for (size_t k = 0; k < n; ++k) {
            // Evaluation slot k holds a(psi^(2k+1)); multiplying by
            // x^power scales it by psi^(power * (2k+1)).
            u64 w = ntt.psiPower(power * (2 * k + 1));
            c0[k] = q.mul(c0[k], w);
            c1[k] = q.mul(c1[k], w);
        }
    });
    return out;
}

Ciphertext
Evaluator::mulScalarRescale(const Ciphertext& a, double scalar) const
{
    shape::mulScalar(shape::of(a), *ctx);
    const u64 q_top = ctx->qValue(a.level() - 1);
    const double target = scalar * static_cast<double>(q_top);
    MAD_REQUIRE(std::abs(target) < 9.0e18, "scalar too large for one limb");
    const i64 k = static_cast<i64>(std::llround(target));

    Ciphertext out = a;
    std::vector<u64> per(a.level());
    for (size_t i = 0; i < a.level(); ++i)
        per[i] = out.c0.modulus(i).fromSigned(k);
    out.c0.mulScalarPerLimb(per);
    out.c1.mulScalarPerLimb(per);
    out.scale = a.scale * static_cast<double>(q_top);
    return rescale(out);
}

Ciphertext
Evaluator::addScalar(const Ciphertext& a, double scalar,
                     const CkksEncoder& encoder) const
{
    Plaintext pt = encoder.encodeScalar({scalar, 0.0}, a.scale, a.level());
    return addPlain(a, pt);
}

} // namespace madfhe
