/**
 * @file
 * AVX-512 trait + dispatch table. 8 u64 lanes per __m512i; low 64-bit
 * products are native (vpmullq, AVX-512DQ), high halves are assembled
 * from vpmuludq partials, and unsigned compares use mask registers.
 * Compiled with -mavx512f/dq/vl only when the compiler supports them;
 * the factory returns null unless the CPU reports the features. This is
 * the 64-bit table; kernels_avx512ifma.cpp derives the IFMA52 one.
 */
#include "rns/simd/simd.h"

#ifdef MADFHE_SIMD_AVX512

#include <immintrin.h>

#include "rns/simd/kernels_vec_inl.h"

namespace madfhe {
namespace simd {
namespace {

struct Avx512Ops
{
    using V = __m512i;
    static constexpr size_t W = 8;

    static V load(const u64* p) { return _mm512_loadu_si512(p); }
    static void store(u64* p, V v) { _mm512_storeu_si512(p, v); }
    static V set1(u64 x) { return _mm512_set1_epi64(static_cast<long long>(x)); }
    static V add(V a, V b) { return _mm512_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm512_sub_epi64(a, b); }
    static V srl(V a, unsigned s) { return _mm512_srli_epi64(a, s); }
    static V sll(V a, unsigned s) { return _mm512_slli_epi64(a, s); }
    static V or_(V a, V b) { return _mm512_or_si512(a, b); }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }
    static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
    /** All-ones lanes where x < 0 as a signed value. */
    static V signMask(V x) { return _mm512_srai_epi64(x, 63); }

    /** x >= b ? x - b : x (unsigned). */
    static V csub(V x, V b)
    {
        return _mm512_mask_sub_epi64(x, _mm512_cmpge_epu64_mask(x, b), x, b);
    }
    /** 1 where a < b (unsigned), else 0. */
    static V borrow1(V a, V b)
    {
        return _mm512_maskz_set1_epi64(_mm512_cmplt_epu64_mask(a, b), 1);
    }

    static V mullo64(V a, V b) { return _mm512_mullo_epi64(a, b); }
    static __m512d castD(V a) { return _mm512_castsi512_pd(a); }
    static V castV(__m512d a) { return _mm512_castpd_si512(a); }
    static V mulhi64(V a, V b)
    {
        const V lo32 = set1(0xFFFFFFFFULL);
        V a1 = srl(a, 32), b1 = srl(b, 32);
        V lolo = _mm512_mul_epu32(a, b);
        V lohi = _mm512_mul_epu32(a, b1);
        V hilo = _mm512_mul_epu32(a1, b);
        V hihi = _mm512_mul_epu32(a1, b1);
        V cross = add(srl(lolo, 32),
                      add(_mm512_and_si512(lohi, lo32),
                          _mm512_and_si512(hilo, lo32)));
        return add(add(hihi, srl(cross, 32)),
                   add(srl(lohi, 32), srl(hilo, 32)));
    }
    static void mul128(V a, V b, V* hi, V* lo)
    {
        *hi = mulhi64(a, b);
        *lo = _mm512_mullo_epi64(a, b);
    }

    // --- double-precision ops for the error-free FMA transform ---
    using D = __m512d;

    static D loadd(const double* p) { return _mm512_loadu_pd(p); }
    static void stored(double* p, D v) { _mm512_storeu_pd(p, v); }
    static D set1d(double x) { return _mm512_set1_pd(x); }
    static D addd(D a, D b) { return _mm512_add_pd(a, b); }
    static D subd(D a, D b) { return _mm512_sub_pd(a, b); }
    static D muld(D a, D b) { return _mm512_mul_pd(a, b); }
    static D fmaddd(D a, D b, D c) { return _mm512_fmadd_pd(a, b, c); }
    static D fmsubd(D a, D b, D c) { return _mm512_fmsub_pd(a, b, c); }
    static D fnmaddd(D a, D b, D c) { return _mm512_fnmadd_pd(a, b, c); }
    static D roundd(D x)
    {
        return _mm512_roundscale_pd(x, _MM_FROUND_TO_NEAREST_INT |
                                           _MM_FROUND_NO_EXC);
    }
    /** t < 0 ? t + q : t */
    static D condAddQ(D t, D q)
    {
        __mmask8 m =
            _mm512_cmp_pd_mask(t, _mm512_setzero_pd(), _CMP_LT_OQ);
        return _mm512_mask_add_pd(t, m, t, q);
    }
    /** s >= q ? s - q : s */
    static D condSubQ(D s, D q)
    {
        __mmask8 m = _mm512_cmp_pd_mask(s, q, _CMP_GE_OQ);
        return _mm512_mask_sub_pd(s, m, s, q);
    }
    /** Exact conversions (AVX-512DQ has native u64 <-> f64). */
    static D u64ToFp(V x) { return _mm512_cvtepu64_pd(x); }
    static V fpToU64(D d) { return _mm512_cvtpd_epu64(d); }
    /**
     * In-place 8 x 8 transpose: lane c of r[k] becomes lane k of r[c].
     * unpacklo/hi pair rows into 128-bit column pairs, and two rounds of
     * 128-bit lane shuffles gather each column's four pairs.
     */
    static void transpose(D* r)
    {
        D t[8];
        for (int i = 0; i < 8; i += 2) {
            t[i] = _mm512_unpacklo_pd(r[i], r[i + 1]);
            t[i + 1] = _mm512_unpackhi_pd(r[i], r[i + 1]);
        }
        for (int h = 0; h < 2; ++h) {
            const D a = _mm512_shuffle_f64x2(t[h], t[2 + h], 0x88);
            const D b = _mm512_shuffle_f64x2(t[h], t[2 + h], 0xDD);
            const D c = _mm512_shuffle_f64x2(t[4 + h], t[6 + h], 0x88);
            const D d = _mm512_shuffle_f64x2(t[4 + h], t[6 + h], 0xDD);
            r[h] = _mm512_shuffle_f64x2(a, c, 0x88);
            r[4 + h] = _mm512_shuffle_f64x2(a, c, 0xDD);
            r[2 + h] = _mm512_shuffle_f64x2(b, d, 0x88);
            r[6 + h] = _mm512_shuffle_f64x2(b, d, 0xDD);
        }
    }
    /**
     * Deinterleave two adjacent vectors (one 2m-sized NTT block group)
     * into x/y butterfly operands for sub-vector stages m in {1, 2, 4}.
     * Lane l of x pairs with lane l of y and uses twiddle index
     * l & (m - 1); join() is the exact inverse.
     */
    static void split(D a, D b, size_t m, D* x, D* y)
    {
        __m512i xi, yi;
        if (m == 1) {
            xi = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
            yi = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        } else if (m == 2) {
            xi = _mm512_setr_epi64(0, 1, 4, 5, 8, 9, 12, 13);
            yi = _mm512_setr_epi64(2, 3, 6, 7, 10, 11, 14, 15);
        } else {
            xi = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
            yi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        }
        *x = _mm512_permutex2var_pd(a, xi, b);
        *y = _mm512_permutex2var_pd(a, yi, b);
    }
    static void join(D x, D y, size_t m, D* a, D* b)
    {
        __m512i ai, bi;
        if (m == 1) {
            ai = _mm512_setr_epi64(0, 8, 1, 9, 2, 10, 3, 11);
            bi = _mm512_setr_epi64(4, 12, 5, 13, 6, 14, 7, 15);
        } else if (m == 2) {
            ai = _mm512_setr_epi64(0, 1, 8, 9, 2, 3, 10, 11);
            bi = _mm512_setr_epi64(4, 5, 12, 13, 6, 7, 14, 15);
        } else {
            ai = _mm512_setr_epi64(0, 1, 2, 3, 8, 9, 10, 11);
            bi = _mm512_setr_epi64(4, 5, 6, 7, 12, 13, 14, 15);
        }
        *a = _mm512_permutex2var_pd(x, ai, y);
        *b = _mm512_permutex2var_pd(x, bi, y);
    }
};

/**
 * The overshoot estimated in double: s = 0.5 + sum_i x_i * (1/q_i) by
 * vcvtuqq2pd and FMA. Against the exact sum, s errs by at most
 * k(k+3) 2^-53 plus k 2^-106 (each conversion and each reciprocal
 * within a relative 2^-53, each rounded FMA within 2^-53 (k+1)); the
 * long-double reference errs by the same expression at 2^-64. Where
 * s's fractional part keeps a margin of (k+2)^2 2^-52 (more than both
 * together, even for a long double that is only a double) from either
 * integer, no integer lies between s and the reference, so floor(s) is
 * the reference's count. The rare lanes inside the margin are
 * recomputed by the scalar table's long-double loop.
 */
void
overshoot(const u64* const* x, size_t k, const double* inv_q,
          const long double* inv_q_ld, size_t n, u64* us)
{
    constexpr size_t W = Avx512Ops::W;
    const double kk = static_cast<double>(k) + 2.0;
    const double margin = kk * kk * 0x1p-52;
    const __m512d lo = _mm512_set1_pd(margin);
    const __m512d hi = _mm512_set1_pd(1.0 - margin);
    const Kernels* S = scalarKernels();
    size_t c = 0;
    for (; c + W <= n; c += W) {
        __m512d s = _mm512_set1_pd(0.5);
        for (size_t i = 0; i < k; ++i)
            s = _mm512_fmadd_pd(_mm512_cvtepu64_pd(Avx512Ops::load(x[i] + c)),
                                _mm512_set1_pd(inv_q[i]), s);
        const __m512d f = _mm512_roundscale_pd(
            s, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
        const __m512d frac = _mm512_sub_pd(s, f); // exact
        const __mmask8 near = _mm512_cmp_pd_mask(frac, lo, _CMP_LT_OQ) |
                              _mm512_cmp_pd_mask(frac, hi, _CMP_GT_OQ);
        Avx512Ops::store(us + c, _mm512_cvtpd_epu64(f));
        if (near != 0)
            S->overshoot(vecimpl::offsetPtrs(x, k, c).data(), k, inv_q,
                         inv_q_ld, W, us + c);
    }
    if (c < n)
        S->overshoot(vecimpl::offsetPtrs(x, k, c).data(), k, inv_q, inv_q_ld,
                     n - c, us + c);
}

const Kernels kAvx512 = {
    "avx512",
    "simd.avx512",
    Avx512Ops::W,
    vecimpl::nttStage<Avx512Ops>,
    vecimpl::reduce4q<Avx512Ops>,
    vecimpl::mulShoupVec<Avx512Ops>,
    vecimpl::mulShoupScalar<Avx512Ops>,
    vecimpl::mulModVec<Avx512Ops>,
    vecimpl::addMulModVec<Avx512Ops>,
    vecimpl::newlimb<Avx512Ops>,
    vecimpl::mac<Avx512Ops>,
    vecimpl::fpTransform<Avx512Ops>,
    overshoot,
    vecimpl::subMulShoup<Avx512Ops>,
    vecimpl::addModVec<Avx512Ops>,
    vecimpl::subModVec<Avx512Ops>,
    vecimpl::fromSigned<Avx512Ops>,
};

} // namespace

const Kernels*
avx512NoIfmaKernels()
{
    static const bool runnable = __builtin_cpu_supports("avx512f") &&
                                 __builtin_cpu_supports("avx512dq") &&
                                 __builtin_cpu_supports("avx512vl");
    return runnable ? &kAvx512 : nullptr;
}

} // namespace simd
} // namespace madfhe

#else // !MADFHE_SIMD_AVX512

namespace madfhe {
namespace simd {

const Kernels*
avx512NoIfmaKernels()
{
    return nullptr;
}

} // namespace simd
} // namespace madfhe

#endif // MADFHE_SIMD_AVX512
