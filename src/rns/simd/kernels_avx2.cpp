/**
 * @file
 * AVX2 trait + dispatch table. 4 u64 lanes per __m256i; 64x64 multiplies
 * are assembled from vpmuludq 32x32 partial products, and unsigned
 * compares use the sign-flip trick (AVX2 has only signed vpcmpgtq).
 * Compiled with -mavx2 only when the compiler supports it; the factory
 * returns null unless the CPU reports AVX2 at runtime.
 */
#include "rns/simd/simd.h"

#ifdef MADFHE_SIMD_AVX2

#include <immintrin.h>

#include "rns/simd/kernels_vec_inl.h"

namespace madfhe {
namespace simd {
namespace {

struct Avx2Ops
{
    using V = __m256i;
    static constexpr size_t W = 4;

    static V load(const u64* p)
    {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    }
    static void store(u64* p, V v)
    {
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
    }
    static V set1(u64 x) { return _mm256_set1_epi64x(static_cast<long long>(x)); }
    static V add(V a, V b) { return _mm256_add_epi64(a, b); }
    static V sub(V a, V b) { return _mm256_sub_epi64(a, b); }
    static V srl(V a, unsigned s) { return _mm256_srli_epi64(a, static_cast<int>(s)); }
    static V sll(V a, unsigned s) { return _mm256_slli_epi64(a, static_cast<int>(s)); }
    static V or_(V a, V b) { return _mm256_or_si256(a, b); }
    static V and_(V a, V b) { return _mm256_and_si256(a, b); }
    static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
    /** All-ones lanes where x < 0 as a signed value. */
    static V signMask(V x)
    {
        return _mm256_cmpgt_epi64(_mm256_setzero_si256(), x);
    }

    /** All-ones lanes where a < b (unsigned). */
    static V ltMask(V a, V b)
    {
        const V sign = set1(0x8000000000000000ULL);
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, sign),
                                  _mm256_xor_si256(a, sign));
    }
    /** x >= b ? x - b : x (unsigned). */
    static V csub(V x, V b)
    {
        // Subtract b from lanes where NOT (x < b).
        return sub(x, _mm256_andnot_si256(ltMask(x, b), b));
    }
    /** 1 where a < b (unsigned), else 0. */
    static V borrow1(V a, V b) { return srl(ltMask(a, b), 63); }

    static __m256d castD(V a) { return _mm256_castsi256_pd(a); }
    static V castV(__m256d a) { return _mm256_castpd_si256(a); }

    static V mullo64(V a, V b)
    {
        // lo64(a*b) = a0*b0 + ((a0*b1 + a1*b0) << 32)  (mod 2^64)
        V a1 = srl(a, 32), b1 = srl(b, 32);
        V cross = add(_mm256_mul_epu32(a, b1), _mm256_mul_epu32(a1, b));
        return add(_mm256_mul_epu32(a, b), sll(cross, 32));
    }
    static V mulhi64(V a, V b)
    {
        V hi, lo;
        mul128(a, b, &hi, &lo);
        return hi;
    }
    static void mul128(V a, V b, V* hi, V* lo)
    {
        const V lo32 = set1(0xFFFFFFFFULL);
        V a1 = srl(a, 32), b1 = srl(b, 32);
        V lolo = _mm256_mul_epu32(a, b);
        V lohi = _mm256_mul_epu32(a, b1);
        V hilo = _mm256_mul_epu32(a1, b);
        V hihi = _mm256_mul_epu32(a1, b1);
        V cross = add(srl(lolo, 32),
                      add(_mm256_and_si256(lohi, lo32),
                          _mm256_and_si256(hilo, lo32)));
        *hi = add(add(hihi, srl(cross, 32)), add(srl(lohi, 32), srl(hilo, 32)));
        *lo = add(lolo, sll(add(lohi, hilo), 32));
    }

    // --- double-precision ops for the error-free FMA transform ---
    using D = __m256d;

    static D loadd(const double* p) { return _mm256_loadu_pd(p); }
    static void stored(double* p, D v) { _mm256_storeu_pd(p, v); }
    static D set1d(double x) { return _mm256_set1_pd(x); }
    static D addd(D a, D b) { return _mm256_add_pd(a, b); }
    static D subd(D a, D b) { return _mm256_sub_pd(a, b); }
    static D muld(D a, D b) { return _mm256_mul_pd(a, b); }
    static D fmaddd(D a, D b, D c) { return _mm256_fmadd_pd(a, b, c); }
    static D fmsubd(D a, D b, D c) { return _mm256_fmsub_pd(a, b, c); }
    static D fnmaddd(D a, D b, D c) { return _mm256_fnmadd_pd(a, b, c); }
    static D roundd(D x)
    {
        return _mm256_round_pd(x, _MM_FROUND_TO_NEAREST_INT |
                                      _MM_FROUND_NO_EXC);
    }
    /** t < 0 ? t + q : t */
    static D condAddQ(D t, D q)
    {
        D m = _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_LT_OQ);
        return _mm256_add_pd(t, _mm256_and_pd(m, q));
    }
    /** s >= q ? s - q : s */
    static D condSubQ(D s, D q)
    {
        D m = _mm256_cmp_pd(s, q, _CMP_GE_OQ);
        return _mm256_sub_pd(s, _mm256_and_pd(m, q));
    }
    /**
     * Exact u64 -> double for x < 2^52: OR the exponent bits of 2^52
     * onto the mantissa (giving the double 2^52 + x) and subtract 2^52.
     */
    static D u64ToFp(V x)
    {
        const V magic = set1(0x4330000000000000ULL);
        return _mm256_sub_pd(_mm256_castsi256_pd(or_(x, magic)),
                             _mm256_castsi256_pd(magic));
    }
    /** Exact double -> u64 for integer d in [0, 2^52): reverse trick. */
    static V fpToU64(D d)
    {
        const V magic = set1(0x4330000000000000ULL);
        V bits = _mm256_castpd_si256(
            _mm256_add_pd(d, _mm256_castsi256_pd(magic)));
        return _mm256_and_si256(bits, set1(0xFFFFFFFFFFFFFULL));
    }
    /** In-place 4 x 4 transpose: lane c of r[k] becomes lane k of r[c]. */
    static void transpose(D* r)
    {
        const D t0 = _mm256_unpacklo_pd(r[0], r[1]);
        const D t1 = _mm256_unpackhi_pd(r[0], r[1]);
        const D t2 = _mm256_unpacklo_pd(r[2], r[3]);
        const D t3 = _mm256_unpackhi_pd(r[2], r[3]);
        r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
        r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
        r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
        r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
    }
    /**
     * Deinterleave two adjacent vectors (one 2m-sized NTT block group)
     * into x/y butterfly operands for sub-vector stages m in {1, 2}.
     * Lane l of x pairs with lane l of y and uses twiddle index
     * l & (m - 1); join() is the exact inverse.
     */
    static void split(D a, D b, size_t m, D* x, D* y)
    {
        if (m == 1) {
            *x = _mm256_unpacklo_pd(a, b);
            *y = _mm256_unpackhi_pd(a, b);
        } else {
            *x = _mm256_permute2f128_pd(a, b, 0x20);
            *y = _mm256_permute2f128_pd(a, b, 0x31);
        }
    }
    static void join(D x, D y, size_t m, D* a, D* b)
    {
        if (m == 1) {
            *a = _mm256_unpacklo_pd(x, y);
            *b = _mm256_unpackhi_pd(x, y);
        } else {
            *a = _mm256_permute2f128_pd(x, y, 0x20);
            *b = _mm256_permute2f128_pd(x, y, 0x31);
        }
    }
};

/** AVX2 has no exact u64 -> double conversion for 62-bit residues, so
 *  the overshoot stays on the scalar reference. */
void
overshoot(const u64* const* x, size_t k, const double* inv_q,
          const long double* inv_q_ld, size_t n, u64* us)
{
    scalarKernels()->overshoot(x, k, inv_q, inv_q_ld, n, us);
}

const Kernels kAvx2 = {
    "avx2",
    "simd.avx2",
    Avx2Ops::W,
    vecimpl::nttStage<Avx2Ops>,
    vecimpl::reduce4q<Avx2Ops>,
    vecimpl::mulShoupVec<Avx2Ops>,
    vecimpl::mulShoupScalar<Avx2Ops>,
    vecimpl::mulModVec<Avx2Ops>,
    vecimpl::addMulModVec<Avx2Ops>,
    vecimpl::newlimb<Avx2Ops>,
    vecimpl::mac<Avx2Ops>,
    vecimpl::fpTransform<Avx2Ops>,
    overshoot,
    vecimpl::subMulShoup<Avx2Ops>,
    vecimpl::addModVec<Avx2Ops>,
    vecimpl::subModVec<Avx2Ops>,
    vecimpl::fromSigned<Avx2Ops>,
};

} // namespace

const Kernels*
avx2Kernels()
{
    static const bool runnable =
        __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    return runnable ? &kAvx2 : nullptr;
}

} // namespace simd
} // namespace madfhe

#else // !MADFHE_SIMD_AVX2

namespace madfhe {
namespace simd {

const Kernels*
avx2Kernels()
{
    return nullptr;
}

} // namespace simd
} // namespace madfhe

#endif // MADFHE_SIMD_AVX2
