/**
 * @file
 * Scalar reference implementations of the dispatch table. These are the
 * semantics every vector backend must reproduce bit-for-bit; they mirror
 * the pre-SIMD inner loops of rns/ntt.cpp, ring/poly.cpp and
 * rns/basis.cpp exactly.
 */
#include "rns/simd/simd.h"

namespace madfhe {
namespace simd {

namespace {

void
nttStage(u64* p, size_t n, size_t m, const u64* tw, const u64* tw_shoup,
         u64 q, u64 two_q)
{
    for (size_t i = 0; i < n; i += 2 * m) {
        for (size_t j = 0; j < m; ++j) {
            const u64 w = tw[j];
            const u64 ws = tw_shoup[j];
            u64 x = p[i + j];
            if (x >= two_q)
                x -= two_q;
            u64 hi = static_cast<u64>(
                (static_cast<u128>(p[i + j + m]) * ws) >> 64);
            u64 y = p[i + j + m] * w - hi * q;
            p[i + j] = x + y;
            p[i + j + m] = x + two_q - y;
        }
    }
}

void
reduce4q(u64* p, size_t n, u64 q, u64 two_q)
{
    for (size_t i = 0; i < n; ++i) {
        u64 v = p[i];
        if (v >= two_q)
            v -= two_q;
        if (v >= q)
            v -= q;
        p[i] = v;
    }
}

inline u64
mulShoup(u64 a, u64 w, u64 ws, u64 q)
{
    u64 hi = static_cast<u64>((static_cast<u128>(a) * ws) >> 64);
    u64 r = a * w - hi * q;
    return r >= q ? r - q : r;
}

void
mulShoupVec(u64* a, const u64* w, const u64* w_shoup, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = mulShoup(a[i], w[i], w_shoup[i], q);
}

void
mulShoupScalar(u64* dst, const u64* src, size_t n, u64 w, u64 w_shoup,
               u64 q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = mulShoup(src[i], w, w_shoup, q);
}

void
mulModVec(u64* a, const u64* b, size_t n, const Modulus& q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = q.mul(a[i], b[i]);
}

void
addMulModVec(u64* dst, const u64* a, const u64* b, size_t n,
             const Modulus& q)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] = q.add(dst[i], q.mul(a[i], b[i]));
}

inline u64
mulhi(u64 a, u64 b)
{
    return static_cast<u64>((static_cast<u128>(a) * b) >> 64);
}

inline u64
addMod(u64 a, u64 b, u64 q)
{
    const u64 s = a + b;
    return s >= q ? s - q : s;
}

/**
 * Fold a 128-bit lazy sum into [0, q): hi * 2^64 mod q by Shoup (lazy,
 * < 2q) plus lo reduced under 2q with the pre1 = floor(2^64/q) quotient
 * estimate, then two conditional subtracts.
 */
inline u64
fold(u128 acc, const Fold128& f)
{
    const u64 hi = static_cast<u64>(acc >> 64);
    const u64 lo = static_cast<u64>(acc);
    const u64 m1 = hi * f.r64 - mulhi(hi, f.r64_shoup) * f.q;
    const u64 m2 = lo - mulhi(lo, f.pre1) * f.q;
    u64 r = m1 + m2; // < 4q < 2^64
    if (r >= 2 * f.q)
        r -= 2 * f.q;
    return r >= f.q ? r - f.q : r;
}

// Both lazy sums flush every 16 terms: each product is below 2^124 for
// moduli up to the 2^62 cap, so 16 of them stay under 2^128. Every fold
// is canonical, so where the windows fall does not change the result.

void
newlimb(const u64* const* src, size_t k, const u64* us, size_t n,
        const u64* punct, const NewLimbTarget& t, u64* out)
{
    const u64 q = t.fold.q;
    for (size_t c = 0; c < n; ++c) {
        u64 result = 0;
        for (size_t base = 0; base < k; base += 16) {
            const size_t end = k - base < 16 ? k : base + 16;
            u128 acc = 0;
            for (size_t i = base; i < end; ++i)
                acc += static_cast<u128>(src[i][c]) * punct[i];
            result = addMod(result, fold(acc, t.fold), q);
        }
        if (us != nullptr) {
            // Subtract us * Q mod p. Shoup's product is exact for any
            // 64-bit us, so us needs no reduction first.
            const u64 corr = mulShoup(us[c], t.q_mod, t.q_mod_shoup, q);
            result = result >= corr ? result - corr : result + q - corr;
        }
        out[c] = result;
    }
}

void
mac(const u64* const* d, const u64* const* b, const u64* const* a,
    size_t terms, const u64* lift_u, const u64* lift_v, u64 lift_w, size_t n,
    const Fold128& f, u64* u, u64* v)
{
    for (size_t c = 0; c < n; ++c) {
        u128 au = 0, av = 0;
        u64 ru = 0, rv = 0;
        size_t pending = 0;
        for (size_t j = 0; j < terms; ++j) {
            const u64 x = d[j][c];
            au += static_cast<u128>(x) * b[j][c];
            av += static_cast<u128>(x) * a[j][c];
            if (++pending == 16) {
                ru = addMod(ru, fold(au, f), f.q);
                rv = addMod(rv, fold(av, f), f.q);
                au = av = 0;
                pending = 0;
            }
        }
        if (lift_u != nullptr) {
            au += static_cast<u128>(lift_u[c]) * lift_w;
            av += static_cast<u128>(lift_v[c]) * lift_w;
            ++pending;
        }
        if (pending != 0) {
            ru = addMod(ru, fold(au, f), f.q);
            rv = addMod(rv, fold(av, f), f.q);
        }
        u[c] = ru;
        v[c] = rv;
    }
}

void
overshoot(const u64* const* x, size_t k, const double* /*inv_q*/,
          const long double* inv_q_ld, size_t n, u64* us)
{
    for (size_t c = 0; c < n; ++c) {
        long double frac = 0.5L;
        for (size_t i = 0; i < k; ++i)
            frac += static_cast<long double>(x[i][c]) * inv_q_ld[i];
        us[c] = static_cast<u64>(frac);
    }
}

inline u64
subMod(u64 a, u64 b, u64 q)
{
    return a >= b ? a - b : a + q - b;
}

void
subMulShoup(u64* dst, const u64* x, const u64* y, size_t n, u64 w,
            u64 w_shoup, u64 q)
{
    for (size_t c = 0; c < n; ++c)
        dst[c] = mulShoup(subMod(x[c], y[c], q), w, w_shoup, q);
}

void
addModVec(u64* a, const u64* b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = addMod(a[i], b[i], q);
}

void
subModVec(u64* a, const u64* b, size_t n, u64 q)
{
    for (size_t i = 0; i < n; ++i)
        a[i] = subMod(a[i], b[i], q);
}

void
fromSigned(u64* dst, const i64* src, size_t n, u64 q)
{
    const i64 qs = static_cast<i64>(q);
    for (size_t i = 0; i < n; ++i) {
        i64 r = src[i] % qs;
        if (r < 0)
            r += qs;
        dst[i] = static_cast<u64>(r);
    }
}

const Kernels kScalar = {
    "scalar",    "simd.scalar",  1,         nttStage,     reduce4q,
    mulShoupVec, mulShoupScalar, mulModVec, addMulModVec, newlimb,
    mac,
    nullptr, // fp_transform: the unfused scalar path IS the reference
    overshoot,   subMulShoup,    addModVec, subModVec,
    fromSigned,
};

} // namespace

const Kernels*
scalarKernels()
{
    return &kScalar;
}

} // namespace simd
} // namespace madfhe
