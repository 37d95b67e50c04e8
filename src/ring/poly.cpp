#include "ring/poly.h"

#include <cstring>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {

/** Bytes of one limb of `p`. */
inline size_t
limbBytes(const RnsPoly& p)
{
    return p.degree() * sizeof(u64);
}

faultinject::Site g_fault_alloc("ring.poly_alloc", faultinject::kPointKinds);
faultinject::Site g_fault_pointwise("ring.pointwise", faultinject::kLimbKinds);
faultinject::Site g_fault_automorph("ring.automorph", faultinject::kLimbKinds);

} // namespace

RnsPoly::RnsPoly(std::shared_ptr<const RingContext> ctx_,
                 std::vector<u32> basis_, Rep rep_)
    : ctx(std::move(ctx_)), chain(std::move(basis_)), representation(rep_)
{
    MAD_REQUIRE(ctx != nullptr, "RnsPoly requires a ring context");
    MAD_REQUIRE(!chain.empty(), "RnsPoly requires at least one limb");
    faultinject::touchPoint(g_fault_alloc);
    data.assign(chain.size() * ctx->degree(), 0);
    MAD_TRACE_ALLOC(data.data(), data.size() * sizeof(u64));
}

RnsPoly::RnsPoly(const RnsPoly& other)
    : ctx(other.ctx), chain(other.chain),
      representation(other.representation), data(other.data)
{
    if (!data.empty()) {
        MAD_TRACE_READ(other.data.data(), data.size() * sizeof(u64));
        MAD_TRACE_ALLOC(data.data(), data.size() * sizeof(u64));
        MAD_TRACE_WRITE(data.data(), data.size() * sizeof(u64));
    }
}

RnsPoly&
RnsPoly::operator=(const RnsPoly& other)
{
    if (this == &other)
        return *this;
    ctx = other.ctx;
    chain = other.chain;
    representation = other.representation;
    data = other.data;
    if (!data.empty()) {
        MAD_TRACE_READ(other.data.data(), data.size() * sizeof(u64));
        MAD_TRACE_ALLOC(data.data(), data.size() * sizeof(u64));
        MAD_TRACE_WRITE(data.data(), data.size() * sizeof(u64));
    }
    return *this;
}

void
RnsPoly::requireCompatible(const RnsPoly& other) const
{
    MAD_CHECK(ctx.get() == other.ctx.get(), "ring context mismatch");
    MAD_CHECK(chain == other.chain, "RNS basis mismatch");
    MAD_CHECK(representation == other.representation, "representation mismatch");
}

void
RnsPoly::toEval()
{
    MAD_CHECK(representation == Rep::Coeff, "toEval requires coefficient rep");
    TELEM_SPAN("NTT");
    TELEM_SPAN(simd::activeSpanLabel());
    TELEM_COUNT("ring.ntt.limbs", numLimbs());
    parallelFor(numLimbs(),
                [&](size_t i) { ctx->ntt(chain[i]).forward(limb(i)); });
    representation = Rep::Eval;
}

void
RnsPoly::toCoeff()
{
    MAD_CHECK(representation == Rep::Eval, "toCoeff requires evaluation rep");
    TELEM_SPAN("iNTT");
    TELEM_SPAN(simd::activeSpanLabel());
    TELEM_COUNT("ring.intt.limbs", numLimbs());
    parallelFor(numLimbs(),
                [&](size_t i) { ctx->ntt(chain[i]).inverse(limb(i)); });
    representation = Rep::Coeff;
}

void
RnsPoly::setRep(Rep r)
{
    if (representation == r)
        return;
    if (r == Rep::Eval)
        toEval();
    else
        toCoeff();
}

void
RnsPoly::add(const RnsPoly& other)
{
    requireCompatible(other);
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* a = limb(i);
        const u64* b = other.limb(i);
        MAD_TRACE_READ(a, limbBytes(*this));
        MAD_TRACE_READ(b, limbBytes(*this));
        MAD_TRACE_WRITE(a, limbBytes(*this));
        simd::kernels().add_mod_vec(a, b, n, q.value());
    });
}

void
RnsPoly::sub(const RnsPoly& other)
{
    requireCompatible(other);
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* a = limb(i);
        const u64* b = other.limb(i);
        MAD_TRACE_READ(a, limbBytes(*this));
        MAD_TRACE_READ(b, limbBytes(*this));
        MAD_TRACE_WRITE(a, limbBytes(*this));
        simd::kernels().sub_mod_vec(a, b, n, q.value());
    });
}

void
RnsPoly::negate()
{
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* a = limb(i);
        MAD_TRACE_READ(a, limbBytes(*this));
        MAD_TRACE_WRITE(a, limbBytes(*this));
        for (size_t c = 0; c < n; ++c)
            a[c] = q.neg(a[c]);
    });
}

void
RnsPoly::mulPointwise(const RnsPoly& other)
{
    requireCompatible(other);
    MAD_CHECK(representation == Rep::Eval, "pointwise mul requires Eval rep");
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* a = limb(i);
        const u64* b = other.limb(i);
        MAD_TRACE_READ(a, limbBytes(*this));
        MAD_TRACE_READ(b, limbBytes(*this));
        MAD_TRACE_WRITE(a, limbBytes(*this));
        simd::kernels().mul_mod_vec(a, b, n, q);
    });
    for (size_t i = 0; i < numLimbs(); ++i)
        faultinject::guardLimb(g_fault_pointwise, limb(i), n);
}

void
RnsPoly::addMul(const RnsPoly& a, const RnsPoly& b)
{
    requireCompatible(a);
    requireCompatible(b);
    MAD_CHECK(representation == Rep::Eval, "addMul requires Eval rep");
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* dst = limb(i);
        const u64* x = a.limb(i);
        const u64* y = b.limb(i);
        MAD_TRACE_READ(dst, limbBytes(*this));
        MAD_TRACE_READ(x, limbBytes(*this));
        MAD_TRACE_READ(y, limbBytes(*this));
        MAD_TRACE_WRITE(dst, limbBytes(*this));
        simd::kernels().add_mul_mod_vec(dst, x, y, n, q);
    });
}

void
RnsPoly::mulScalarPerLimb(const std::vector<u64>& scalar)
{
    MAD_CHECK(scalar.size() == numLimbs(), "per-limb scalar count mismatch");
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64 s = scalar[i];
        u64 s_shoup = q.shoupPrecompute(s);
        u64* a = limb(i);
        MAD_TRACE_READ(a, limbBytes(*this));
        MAD_TRACE_WRITE(a, limbBytes(*this));
        simd::kernels().mul_shoup_scalar(a, a, n, s, s_shoup, q.value());
    });
}

void
RnsPoly::mulScalar(u64 c)
{
    std::vector<u64> per(numLimbs());
    for (size_t i = 0; i < numLimbs(); ++i)
        per[i] = modulus(i).reduce(c);
    mulScalarPerLimb(per);
}

RnsPoly
RnsPoly::automorph(u64 t) const
{
    MAD_TRACE_SCOPE("Automorph");
    TELEM_SPAN("Automorph");
    RnsPoly out(ctx, chain, representation);
    const size_t n = degree();
    if (representation == Rep::Eval) {
        const std::vector<u32>& perm = ctx->evalPermutation(t);
        parallelFor(numLimbs(), [&](size_t i) {
            const u64* src = limb(i);
            u64* dst = out.limb(i);
            MAD_TRACE_READ(src, limbBytes(*this));
            MAD_TRACE_WRITE(dst, limbBytes(*this));
            for (size_t k = 0; k < n; ++k)
                dst[k] = src[perm[k]];
        });
    } else {
        const CoeffAutomorphism& aut = ctx->coeffAutomorphism(t);
        parallelFor(numLimbs(), [&](size_t i) {
            const Modulus& q = modulus(i);
            const u64* src = limb(i);
            u64* dst = out.limb(i);
            MAD_TRACE_READ(src, limbBytes(*this));
            MAD_TRACE_WRITE(dst, limbBytes(*this));
            for (size_t k = 0; k < n; ++k) {
                u64 v = src[k];
                dst[aut.index[k]] = aut.negate[k] ? q.neg(v) : v;
            }
        });
    }
    for (size_t i = 0; i < out.numLimbs(); ++i)
        faultinject::guardLimb(g_fault_automorph, out.limb(i), n);
    return out;
}

void
RnsPoly::truncateLimbs(size_t keep)
{
    MAD_REQUIRE(keep >= 1 && keep <= numLimbs(), "invalid limb count to keep");
    chain.resize(keep);
    data.resize(keep * degree());
}

bool
RnsPoly::equals(const RnsPoly& other) const
{
    return ctx.get() == other.ctx.get() && chain == other.chain &&
           representation == other.representation && data == other.data;
}

void
RnsPoly::setFromSigned(const std::vector<i64>& values)
{
    MAD_CHECK(representation == Rep::Coeff, "setFromSigned requires coeff rep");
    MAD_REQUIRE(values.size() == degree(), "value count must equal ring degree");
    const size_t n = degree();
    parallelFor(numLimbs(), [&](size_t i) {
        const Modulus& q = modulus(i);
        u64* a = limb(i);
        MAD_TRACE_WRITE(a, limbBytes(*this));
        simd::kernels().from_signed(a, values.data(), n, q.value());
    });
}

RnsPoly
extractLimbs(const RnsPoly& src, const std::vector<u32>& chain)
{
    RnsPoly out(src.context(), chain, src.rep());
    const size_t n = src.degree();
    for (size_t i = 0; i < chain.size(); ++i) {
        size_t pos = src.numLimbs();
        for (size_t k = 0; k < src.numLimbs(); ++k) {
            if (src.basis()[k] == chain[i]) {
                pos = k;
                break;
            }
        }
        MAD_REQUIRE(pos < src.numLimbs(),
                "extractLimbs: chain index missing from source basis");
        MAD_TRACE_READ(src.limb(pos), n * sizeof(u64));
        MAD_TRACE_WRITE(out.limb(i), n * sizeof(u64));
        std::copy(src.limb(pos), src.limb(pos) + n, out.limb(i));
    }
    return out;
}

} // namespace madfhe
