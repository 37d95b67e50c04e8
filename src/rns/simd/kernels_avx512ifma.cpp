/**
 * @file
 * IFMA52 bodies of the NewLimb and key-switch MAC kernels and of the two
 * broadcast Shoup kernels. The table is the 64-bit AVX-512 table with
 * `newlimb`, `mac`, `mul_shoup_scalar` and `sub_mul_shoup` replaced; it
 * is what Backend::Avx512 runs when the CPU reports avx512ifma. Compiled
 * with -mavx512ifma only when the compiler supports it.
 *
 * For residues below kNarrowModulusBound (2^50) a product x * y is
 * below 2^100, and vpmadd52luq / vpmadd52huq add its low and high
 * 52-bit halves to two 64-bit lane sums: two uops per product, where
 * the 64-bit bodies assemble the high half from four vpmuludq partials.
 * Each high half is at most 2^48 - 1, so a window of 16 products keeps
 * hi + (lo >> 52) below 2^52 and the window folds with one 52-bit Shoup
 * multiply by 2^52 mod q plus one by 1. Folds are canonical, so the
 * result is the scalar table's residue byte for byte. Outside the
 * domain (a modulus at or above 2^50) the 64-bit bodies run.
 */
#include "rns/simd/simd.h"

#ifdef MADFHE_SIMD_AVX512IFMA

#include <immintrin.h>

#include "rns/simd/kernels_vec_inl.h"

namespace madfhe {
namespace simd {
namespace {

using V = __m512i;
constexpr size_t W = 8;
/** Products per lazy window (see the file comment). */
constexpr size_t kWindow = 16;

inline V
set1(u64 x)
{
    return _mm512_set1_epi64(static_cast<long long>(x));
}

inline V
load(const u64* p)
{
    return _mm512_loadu_si512(p);
}

/** x >= b ? x - b : x (unsigned). */
inline V
csub(V x, V b)
{
    return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, b), x, b);
}

/** Lane sums of the low and high 52-bit halves of 52x52-bit products. */
struct Acc52
{
    V lo = _mm512_setzero_si512();
    V hi = _mm512_setzero_si512();

    void
    mac(V x, V y)
    {
        lo = _mm512_madd52lo_epu64(lo, x, y);
        hi = _mm512_madd52hi_epu64(hi, x, y);
    }
};

/**
 * a * w mod q in [0, 2q) for a < 2^52, w < q < kNarrowModulusBound and
 * ws52 = floor(w * 2^52 / q): 52-bit Shoup. The true result is below
 * 2q < 2^52, so the wrapped difference of the two low product halves,
 * masked to 52 bits, is exact.
 */
inline V
mulShoupLazy52(V a, V w, V ws52, V q, V mask)
{
    const V zero = _mm512_setzero_si512();
    const V qh = _mm512_madd52hi_epu64(zero, a, ws52);
    return _mm512_and_si512(
        _mm512_sub_epi64(_mm512_madd52lo_epu64(zero, a, w),
                         _mm512_madd52lo_epu64(zero, qh, q)),
        mask);
}

/** Fold128's 52-bit constants broadcast into vectors. */
struct Fold52
{
    V q, two_q, r52, r52_shoup, pre52, mask;

    explicit Fold52(const Fold128& f)
        : q(set1(f.q)), two_q(set1(2 * f.q)), r52(set1(f.r52)),
          r52_shoup(set1(f.r52_shoup)), pre52(set1(f.pre52)),
          mask(set1((1ULL << 52) - 1))
    {
    }

    /** (lo + hi * 2^52) mod q in [0, q), for at most kWindow products. */
    V
    fold(const Acc52& a) const
    {
        const V zero = _mm512_setzero_si512();
        // lo's bits from 52 up move into hi: l0 + h * 2^52, both < 2^52.
        const V l0 = _mm512_and_si512(a.lo, mask);
        const V h = _mm512_add_epi64(a.hi, _mm512_srli_epi64(a.lo, 52));
        // l0 mod q in [0, 2q): Shoup by 1. qhat * q <= l0 < 2^52, so the
        // low product half is the whole product.
        const V qh0 = _mm512_madd52hi_epu64(zero, l0, pre52);
        const V m0 = _mm512_sub_epi64(l0, _mm512_madd52lo_epu64(zero, qh0, q));
        const V m1 = mulShoupLazy52(h, r52, r52_shoup, q, mask);
        return csub(csub(_mm512_add_epi64(m0, m1), two_q), q);
    }

    /** (a + b) mod q for canonical a, b. */
    V
    addMod(V a, V b) const
    {
        return csub(_mm512_add_epi64(a, b), q);
    }
};

void
newlimb(const u64* const* src, size_t k, const u64* us, size_t n,
        const u64* punct, const NewLimbTarget& t, u64* out)
{
    if (t.fold.q >= kNarrowModulusBound || !t.narrow_sources) {
        avx512NoIfmaKernels()->newlimb(src, k, us, n, punct, t, out);
        return;
    }
    const Fold52 f(t.fold);
    // -us * (Q mod p) is added as us * (p - Q mod p): us <= k, so it is
    // one more narrow product in the lazy sum.
    const V neg_q_mod = set1(t.neg_q_mod);
    size_t c = 0;
    for (; c + W <= n; c += W) {
        V result = _mm512_setzero_si512();
        Acc52 acc;
        size_t pending = 0;
        for (size_t i = 0; i < k; ++i) {
            acc.mac(load(src[i] + c), set1(punct[i]));
            if (++pending == kWindow) {
                result = f.addMod(result, f.fold(acc));
                acc = Acc52();
                pending = 0;
            }
        }
        if (us != nullptr) {
            acc.mac(load(us + c), neg_q_mod);
            ++pending;
        }
        if (pending != 0)
            result = f.addMod(result, f.fold(acc));
        _mm512_storeu_si512(out + c, result);
    }
    if (c < n)
        scalarKernels()->newlimb(vecimpl::offsetPtrs(src, k, c).data(), k,
                                 us != nullptr ? us + c : nullptr, n - c,
                                 punct, t, out + c);
}

void
mac(const u64* const* d, const u64* const* b, const u64* const* a,
    size_t terms, const u64* lift_u, const u64* lift_v, u64 lift_w, size_t n,
    const Fold128& fc, u64* u, u64* v)
{
    if (fc.q >= kNarrowModulusBound) {
        avx512NoIfmaKernels()->mac(d, b, a, terms, lift_u, lift_v, lift_w, n,
                                   fc, u, v);
        return;
    }
    const Fold52 f(fc);
    const V vw = set1(lift_w);
    size_t c = 0;
    for (; c + W <= n; c += W) {
        V ru = _mm512_setzero_si512();
        V rv = _mm512_setzero_si512();
        Acc52 au, av;
        size_t pending = 0;
        for (size_t j = 0; j < terms; ++j) {
            const V x = load(d[j] + c);
            au.mac(x, load(b[j] + c));
            av.mac(x, load(a[j] + c));
            if (++pending == kWindow) {
                ru = f.addMod(ru, f.fold(au));
                rv = f.addMod(rv, f.fold(av));
                au = Acc52();
                av = Acc52();
                pending = 0;
            }
        }
        if (lift_u != nullptr) {
            au.mac(load(lift_u + c), vw);
            av.mac(load(lift_v + c), vw);
            ++pending;
        }
        if (pending != 0) {
            ru = f.addMod(ru, f.fold(au));
            rv = f.addMod(rv, f.fold(av));
        }
        _mm512_storeu_si512(u + c, ru);
        _mm512_storeu_si512(v + c, rv);
    }
    if (c < n)
        scalarKernels()->mac(vecimpl::offsetPtrs(d, terms, c).data(),
                             vecimpl::offsetPtrs(b, terms, c).data(),
                             vecimpl::offsetPtrs(a, terms, c).data(), terms,
                             lift_u != nullptr ? lift_u + c : nullptr,
                             lift_v != nullptr ? lift_v + c : nullptr, lift_w,
                             n - c, fc, u + c, v + c);
}

void
mulShoupScalar(u64* dst, const u64* src, size_t n, u64 w, u64 w_shoup, u64 q)
{
    if (q >= kNarrowModulusBound) {
        avx512NoIfmaKernels()->mul_shoup_scalar(dst, src, n, w, w_shoup, q);
        return;
    }
    // floor(w * 2^52 / q) is the 64-bit Shoup constant floored further.
    const V vq = set1(q), vw = set1(w), vws = set1(w_shoup >> 12);
    const V mask = set1((1ULL << 52) - 1);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        const V r = mulShoupLazy52(load(src + i), vw, vws, vq, mask);
        _mm512_storeu_si512(dst + i, csub(r, vq));
    }
    if (i < n)
        scalarKernels()->mul_shoup_scalar(dst + i, src + i, n - i, w,
                                          w_shoup, q);
}

void
subMulShoup(u64* dst, const u64* x, const u64* y, size_t n, u64 w,
            u64 w_shoup, u64 q)
{
    if (q >= kNarrowModulusBound) {
        avx512NoIfmaKernels()->sub_mul_shoup(dst, x, y, n, w, w_shoup, q);
        return;
    }
    const V vq = set1(q), vw = set1(w), vws = set1(w_shoup >> 12);
    const V mask = set1((1ULL << 52) - 1);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        // x + q - y lies in [1, 2q): one conditional subtract.
        const V d = csub(_mm512_sub_epi64(_mm512_add_epi64(load(x + i), vq),
                                          load(y + i)),
                         vq);
        const V r = mulShoupLazy52(d, vw, vws, vq, mask);
        _mm512_storeu_si512(dst + i, csub(r, vq));
    }
    if (i < n)
        scalarKernels()->sub_mul_shoup(dst + i, x + i, y + i, n - i, w,
                                       w_shoup, q);
}

} // namespace

const Kernels*
avx512IfmaKernels()
{
    static const Kernels* table = []() -> const Kernels* {
        const Kernels* base = avx512NoIfmaKernels();
        if (base == nullptr || !__builtin_cpu_supports("avx512ifma"))
            return nullptr;
        static Kernels k = *base;
        k.mul_shoup_scalar = mulShoupScalar;
        k.newlimb = newlimb;
        k.mac = mac;
        k.sub_mul_shoup = subMulShoup;
        return &k;
    }();
    return table;
}

} // namespace simd
} // namespace madfhe

#else // !MADFHE_SIMD_AVX512IFMA

namespace madfhe {
namespace simd {

const Kernels*
avx512IfmaKernels()
{
    return nullptr;
}

} // namespace simd
} // namespace madfhe

#endif // MADFHE_SIMD_AVX512IFMA
