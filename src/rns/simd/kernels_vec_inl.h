/**
 * @file
 * ISA-generic bodies of the vector kernels, templated over a small trait
 * (`Ops`) that supplies lane width, loads/stores, 64-bit lane add/sub,
 * full 64x64 multiplies, unsigned conditional-subtract and borrow
 * detection. Included by kernels_avx2.cpp / kernels_avx512.cpp, each
 * compiled with its own -m flags; the dispatcher never lets these run on
 * hardware that lacks the ISA.
 *
 * Every kernel body follows the scalar reference (kernels_scalar.cpp)
 * operation-for-operation in exact integer arithmetic, so outputs are
 * bit-identical: modular results are canonical representatives and all
 * intermediates are computed mod 2^64 exactly as the scalar code does.
 * Vector main loops cover the largest multiple of Ops::W; remainders
 * fall through to the scalar table.
 */
#ifndef MADFHE_RNS_SIMD_KERNELS_VEC_INL_H
#define MADFHE_RNS_SIMD_KERNELS_VEC_INL_H

#include <memory>
#include <new>
#include <vector>

#include "rns/simd/simd.h"

namespace madfhe {
namespace simd {
namespace vecimpl {

/** mulShoupLazy over one vector: a * w - mulhi(a, ws) * q, in [0, 2q). */
template <class Ops>
inline typename Ops::V
mulShoupLazyV(typename Ops::V a, typename Ops::V w, typename Ops::V ws,
              typename Ops::V vq)
{
    auto hi = Ops::mulhi64(a, ws);
    return Ops::sub(Ops::mullo64(a, w), Ops::mullo64(hi, vq));
}

/** (a - b) mod q for canonical a, b: a + q - b lies in [1, 2q), and one
 *  conditional subtract gives the scalar result. */
template <class Ops>
inline typename Ops::V
subModV(typename Ops::V a, typename Ops::V b, typename Ops::V vq)
{
    return Ops::csub(Ops::sub(Ops::add(a, vq), b), vq);
}

/** One Harvey butterfly per lane: x' = x + t, y' = x + 2q - t with
 *  x conditionally brought under 2q and t = mulShoupLazy(y, w). */
template <class Ops>
inline void
butterflyV(typename Ops::V* x, typename Ops::V* y, typename Ops::V w,
           typename Ops::V ws, typename Ops::V vq, typename Ops::V v2q)
{
    const auto xr = Ops::csub(*x, v2q);
    const auto t = mulShoupLazyV<Ops>(*y, w, ws, vq);
    *x = Ops::add(xr, t);
    *y = Ops::sub(Ops::add(xr, v2q), t);
}

template <class Ops>
void
nttStage(u64* p, size_t n, size_t m, const u64* tw, const u64* tw_shoup,
         u64 q, u64 two_q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    const auto v2q = Ops::set1(two_q);
    if (m < W) {
        // First log2(W) stages: each 2W-coefficient pair of vectors
        // holds whole butterfly blocks, which split()/join() (lane
        // shuffles on the bit-cast double view) separate into x/y lanes.
        // Lane l uses twiddle l & (m - 1).
        if (n < 2 * W) {
            scalarKernels()->ntt_stage(p, n, m, tw, tw_shoup, q, two_q);
            return;
        }
        u64 wbuf[W], wsbuf[W];
        for (size_t l = 0; l < W; ++l) {
            wbuf[l] = tw[l & (m - 1)];
            wsbuf[l] = tw_shoup[l & (m - 1)];
        }
        const auto w = Ops::load(wbuf);
        const auto ws = Ops::load(wsbuf);
        for (size_t i = 0; i < n; i += 2 * W) {
            typename Ops::D a = Ops::castD(Ops::load(p + i));
            typename Ops::D b = Ops::castD(Ops::load(p + i + W));
            typename Ops::D xd, yd;
            Ops::split(a, b, m, &xd, &yd);
            auto x = Ops::castV(xd);
            auto y = Ops::castV(yd);
            butterflyV<Ops>(&x, &y, w, ws, vq, v2q);
            Ops::join(Ops::castD(x), Ops::castD(y), m, &a, &b);
            Ops::store(p + i, Ops::castV(a));
            Ops::store(p + i + W, Ops::castV(b));
        }
        return;
    }
    for (size_t i = 0; i < n; i += 2 * m) {
        u64* x_ptr = p + i;
        u64* y_ptr = p + i + m;
        for (size_t j = 0; j < m; j += W) {
            auto x = Ops::load(x_ptr + j);
            auto y = Ops::load(y_ptr + j);
            butterflyV<Ops>(&x, &y, Ops::load(tw + j),
                            Ops::load(tw_shoup + j), vq, v2q);
            Ops::store(x_ptr + j, x);
            Ops::store(y_ptr + j, y);
        }
    }
}

template <class Ops>
void
reduce4q(u64* p, size_t n, u64 q, u64 two_q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    const auto v2q = Ops::set1(two_q);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        auto v = Ops::load(p + i);
        v = Ops::csub(v, v2q);
        v = Ops::csub(v, vq);
        Ops::store(p + i, v);
    }
    if (i < n)
        scalarKernels()->reduce_4q(p + i, n - i, q, two_q);
}

template <class Ops>
void
mulShoupVec(u64* a, const u64* w, const u64* w_shoup, size_t n, u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        auto va = Ops::load(a + i);
        auto vw = Ops::load(w + i);
        auto vws = Ops::load(w_shoup + i);
        auto r = mulShoupLazyV<Ops>(va, vw, vws, vq);
        Ops::store(a + i, Ops::csub(r, vq));
    }
    if (i < n)
        scalarKernels()->mul_shoup_vec(a + i, w + i, w_shoup + i, n - i, q);
}

template <class Ops>
void
mulShoupScalar(u64* dst, const u64* src, size_t n, u64 w, u64 w_shoup,
               u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    const auto vw = Ops::set1(w);
    const auto vws = Ops::set1(w_shoup);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        auto r = mulShoupLazyV<Ops>(Ops::load(src + i), vw, vws, vq);
        Ops::store(dst + i, Ops::csub(r, vq));
    }
    if (i < n)
        scalarKernels()->mul_shoup_scalar(dst + i, src + i, n - i, w,
                                          w_shoup, q);
}

template <class Ops>
void
subMulShoup(u64* dst, const u64* x, const u64* y, size_t n, u64 w,
            u64 w_shoup, u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    const auto vw = Ops::set1(w);
    const auto vws = Ops::set1(w_shoup);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        auto d = subModV<Ops>(Ops::load(x + i), Ops::load(y + i), vq);
        Ops::store(dst + i, Ops::csub(mulShoupLazyV<Ops>(d, vw, vws, vq), vq));
    }
    if (i < n)
        scalarKernels()->sub_mul_shoup(dst + i, x + i, y + i, n - i, w,
                                       w_shoup, q);
}

template <class Ops>
void
addModVec(u64* a, const u64* b, size_t n, u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    size_t i = 0;
    for (; i + W <= n; i += W)
        Ops::store(a + i, Ops::csub(Ops::add(Ops::load(a + i),
                                             Ops::load(b + i)),
                                    vq));
    if (i < n)
        scalarKernels()->add_mod_vec(a + i, b + i, n - i, q);
}

template <class Ops>
void
subModVec(u64* a, const u64* b, size_t n, u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    size_t i = 0;
    for (; i + W <= n; i += W)
        Ops::store(a + i, subModV<Ops>(Ops::load(a + i), Ops::load(b + i), vq));
    if (i < n)
        scalarKernels()->sub_mod_vec(a + i, b + i, n - i, q);
}

/**
 * Vector Barrett for products of canonical residues: with L = q.bits()
 * and mu = floor(2^(2L) / q), the estimate
 *   qhat = floor( floor(a*b / 2^(L-1)) * mu / 2^(L+1) )
 * satisfies Q - 3 <= qhat <= Q (Q the true quotient), so
 * r = a*b - qhat*q lies in [0, 4q) and two conditional subtracts
 * canonicalize. All quantities fit: mu < 2^(L+1) <= 2^63 and
 * t = floor(a*b / 2^(L-1)) < 2^(L+1) <= 2^63 for q < 2^62.
 */
template <class Ops>
struct BarrettCtx
{
    typename Ops::V vq, v2q, vmu;
    unsigned sh_hi_t;  ///< 65 - L: hi contribution to t
    unsigned sh_lo_t;  ///< L - 1:  lo contribution to t
    unsigned sh_hi_q;  ///< 63 - L: hi contribution to qhat
    unsigned sh_lo_q;  ///< L + 1:  lo contribution to qhat

    explicit BarrettCtx(const Modulus& q)
    {
        const unsigned L = q.bits();
        const u64 mu = static_cast<u64>(
            (static_cast<u128>(1) << (2 * L)) / q.value());
        vq = Ops::set1(q.value());
        v2q = Ops::set1(2 * q.value());
        vmu = Ops::set1(mu);
        sh_hi_t = 65 - L;
        sh_lo_t = L - 1;
        sh_hi_q = 63 - L;
        sh_lo_q = L + 1;
    }

    typename Ops::V
    mulMod(typename Ops::V a, typename Ops::V b) const
    {
        typename Ops::V p_hi, p_lo;
        Ops::mul128(a, b, &p_hi, &p_lo);
        auto t = Ops::or_(Ops::sll(p_hi, sh_hi_t), Ops::srl(p_lo, sh_lo_t));
        typename Ops::V th, tl;
        Ops::mul128(t, vmu, &th, &tl);
        auto qhat = Ops::or_(Ops::sll(th, sh_hi_q), Ops::srl(tl, sh_lo_q));
        auto r = Ops::sub(p_lo, Ops::mullo64(qhat, vq));
        r = Ops::csub(r, v2q);
        return Ops::csub(r, vq);
    }
};

template <class Ops>
void
mulModVec(u64* a, const u64* b, size_t n, const Modulus& q)
{
    constexpr size_t W = Ops::W;
    if (q.bits() < 3) { // degenerate tiny moduli: shifts would misbehave
        scalarKernels()->mul_mod_vec(a, b, n, q);
        return;
    }
    const BarrettCtx<Ops> ctx(q);
    size_t i = 0;
    for (; i + W <= n; i += W)
        Ops::store(a + i, ctx.mulMod(Ops::load(a + i), Ops::load(b + i)));
    if (i < n)
        scalarKernels()->mul_mod_vec(a + i, b + i, n - i, q);
}

template <class Ops>
void
addMulModVec(u64* dst, const u64* a, const u64* b, size_t n,
             const Modulus& q)
{
    constexpr size_t W = Ops::W;
    if (q.bits() < 3) {
        scalarKernels()->add_mul_mod_vec(dst, a, b, n, q);
        return;
    }
    const BarrettCtx<Ops> ctx(q);
    size_t i = 0;
    for (; i + W <= n; i += W) {
        auto prod = ctx.mulMod(Ops::load(a + i), Ops::load(b + i));
        auto s = Ops::add(Ops::load(dst + i), prod);
        Ops::store(dst + i, Ops::csub(s, ctx.vq));
    }
    if (i < n)
        scalarKernels()->add_mul_mod_vec(dst + i, a + i, b + i, n - i, q);
}

/**
 * from_signed: dst[i] = src[i] mod q in [0, q), the scalar loop's
 * truncated `%` plus +q on negatives. |v| taken as an unsigned 64-bit
 * value (INT64_MIN gives 2^63) is reduced by Shoup's multiply with
 * w = 1 and floor(2^64 / q), which lands in [0, 2q) for any 64-bit
 * input; one conditional subtract makes it canonical, and a negative
 * lane becomes (q - r) mod q.
 */
template <class Ops>
void
fromSigned(u64* dst, const i64* src, size_t n, u64 q)
{
    constexpr size_t W = Ops::W;
    const auto vq = Ops::set1(q);
    const auto vpre =
        Ops::set1(static_cast<u64>((static_cast<u128>(1) << 64) / q));
    size_t i = 0;
    for (; i + W <= n; i += W) {
        const auto v = Ops::load(reinterpret_cast<const u64*>(src + i));
        const auto neg = Ops::signMask(v);
        const auto mag = Ops::sub(Ops::xor_(v, neg), neg);
        auto r = Ops::sub(mag, Ops::mullo64(Ops::mulhi64(mag, vpre), vq));
        r = Ops::csub(r, vq);
        r = Ops::add(Ops::sub(Ops::xor_(r, neg), neg), Ops::and_(neg, vq));
        Ops::store(dst + i, Ops::csub(r, vq));
    }
    if (i < n)
        scalarKernels()->from_signed(dst + i, src + i, n - i, q);
}

/**
 * Error-free modular arithmetic in binary64 for q < 2^50 on balanced
 * (signed) residues held as integer-valued doubles. For |w| < q and
 * |y| < G*q:
 *
 *   h = fl(w*y), l = fma(w, y, -h)        // w*y == h + l exactly
 *   c = fma(h, fl(1/q), M) - M            // M = 1.5 * 2^52
 *   d = fma(-c, q, h)                     // exact: |d| <= |t| + |l| < 2q
 *   t = d + l                             // exact: t == w*y - c*q
 *
 * While |h/q| < 2^51 (the bound on G below keeps it under 2^50.4) the
 * sum h*fl(1/q) + M lies in [2^52, 2^53), where
 * doubles are spaced exactly 1 apart, so the FMA rounds the exact
 * product to the nearest integer and subtracting M is exact: c is
 * within 0.5 + 2*G*q*2^-53 of the true quotient w*y/q (one error term
 * from fl(1/q), one from dropping l). When G*q*2^-53 <= 0.49/3 that is
 * below 1, so |t| < q and every step above is exact integer arithmetic,
 * independent of how a tie rounds. (The rounding assumes the default
 * round-to-nearest mode, which nothing in the library changes.)
 */
template <class Ops>
struct FpModQ
{
    using D = typename Ops::D;
    D qd, qinv, magic;

    explicit FpModQ(u64 q)
        : qd(Ops::set1d(static_cast<double>(q))),
          qinv(Ops::set1d(1.0 / static_cast<double>(q))),
          magic(Ops::set1d(0x1.8p52))
    {
    }

    /** Nearest integer to x * fl(1/q); needs |x * fl(1/q)| < 2^51. */
    D
    quotient(D x) const
    {
        return Ops::subd(Ops::fmaddd(x, qinv, magic), magic);
    }

    /** x - c*q for c nearest x/q: |result| <= 0.6q for |x| < 2^53. */
    D
    reduce(D x) const
    {
        return Ops::fnmaddd(quotient(x), qd, x);
    }

    /** w * y mod q, balanced in (-q, q), exact (see above). */
    D
    mulmod(D w, D y) const
    {
        const D h = Ops::muld(w, y);
        const D l = Ops::fmsubd(w, y, h);
        return Ops::addd(Ops::fnmaddd(quotient(h), qd, h), l);
    }

    /** DIT butterfly: x' = x + w*y, y' = x - w*y. */
    void
    bfly(D& x, D& y, D w) const
    {
        const D t = mulmod(w, y);
        y = Ops::subd(x, t);
        x = Ops::addd(x, t);
    }
};

/** x with its low `bits` bits reversed. */
constexpr size_t
revBits(size_t x, unsigned bits)
{
    size_t r = 0;
    for (unsigned b = 0; b < bits; ++b)
        r |= ((x >> b) & 1) << (bits - 1 - b);
    return r;
}

/** Frees fpScratch's 64-byte-aligned buffers. */
struct AlignedDelete
{
    void
    operator()(double* p) const
    {
        ::operator delete[](p, std::align_val_t{64});
    }
};

/** Per-thread 64-byte-aligned scratch of at least n doubles. */
template <class Ops>
double*
fpScratch(size_t n)
{
    static thread_local std::unique_ptr<double[], AlignedDelete> buf;
    static thread_local size_t cap = 0;
    if (cap < n) {
        buf.reset(static_cast<double*>(
            ::operator new[](n * sizeof(double), std::align_val_t{64})));
        cap = n;
    }
    return buf.get();
}

/** Stages a pass runs after the fused entry: (m, 2m) radix-4 or a lone
 *  radix-2 stage m, each optionally reducing its inputs first. */
struct FpPass
{
    size_t m;
    bool radix4;
    bool reduce_in;  ///< reduce every input before stage m
    bool reduce_mid; ///< reduce every value between stages m and 2m
};

/** Doubles per L1-resident chunk: passes whose span fits run every
 *  chunk-local stage on one chunk before moving to the next. */
constexpr size_t kFpChunk = 2048;

/**
 * Fused whole-NTT kernel in double precision for q < 2^50 (FpModQ's
 * error-free modular multiply): a decimation-in-time transform with
 * bit-reversed input order and natural output order over the stage
 * twiddles tw (stage m's slice starts at tw + m), then an optional
 * pointwise multiply by `post`, leaving canonical residues in p.
 *
 * Residues run balanced with no per-butterfly reduction: within the
 * bounds below |t| < q, so values grow by at most q per stage. A growth
 * ledger, computed once per call from q alone, marks the stages whose
 * inputs must first be reduced to |x| <= 0.6q (a quotient tie may leave
 * a residue just past q/2, so a reduction books 0.6, not 0.5) so that
 * both bounds hold:
 *
 *   products: G <= (0.49/3) * 2^53 / q   (quotient within 1)
 *   adds:     G <= 2^53 / q - 1          (integer sums stay exact)
 *
 * For 45-bit primes no reduction ever runs; near 2^50 one runs every
 * stage, in registers, on values the pass has loaded anyway.
 *
 * The schedule makes few passes over the limb:
 *   entry — element (block k, lane l) of the bit-reversed order is p[
 *     rev(l) * n/W + rev(k)], so W contiguous vectors, one from each of
 *     the W rows p + r*n/W at the same column, hold lane rev(r) of W
 *     consecutive-in-rev blocks. Stages m = 1 .. W/2 pair lanes inside a
 *     block, i.e. whole row vectors, so they run as vertical butterflies
 *     with broadcast twiddles; one W x W transpose then turns the rows
 *     into blocks, stored at rev(column + t). No gather, no shuffle per
 *     stage. Requires n >= W*W (one column group).
 *   passes — the remaining stages in radix-4 pairs (a radix-2 last when
 *     their count is odd), chunked through kFpChunk doubles while the
 *     pass span fits, then over the whole scratch.
 *   exit — fused into the last pass: post multiply (the inverse
 *     untwist-and-scale) or a final reduction, +q on negatives, convert
 *     back into p.
 */
template <class Ops>
bool
fpTransform(u64* p, size_t n, const double* tw, const double* post, u64 q)
{
    using D = typename Ops::D;
    constexpr size_t W = Ops::W;
    constexpr unsigned kLogW = W == 8 ? 3 : 2;
    static_assert(W == size_t{1} << kLogW, "lane count must be 4 or 8");
    if (q >= kNarrowModulusBound || n < W * W)
        return false;

    const FpModQ<Ops> f(q);
    const unsigned logn = floorLog2(n);

    // Growth ledger: reduce[s] for stage m = 2^s; |values| < growth * q.
    const double qs = static_cast<double>(q);
    const double bound_prod = 0.49 / 3.0 * 0x1p53 / qs;
    const double bound_add = 0x1p53 / qs - 1.0;
    const double bound = bound_prod < bound_add ? bound_prod : bound_add;
    bool reduce[64] = {};
    double growth = 1.0;
    for (unsigned s = 0; s < logn; ++s) {
        reduce[s] = growth > bound;
        if (reduce[s])
            growth = 0.6;
        growth += 1.0;
    }
    const bool reduce_exit = post != nullptr && growth > bound;

    double* pd = fpScratch<Ops>(n);

    // Entry: stages 1 .. W/2 on row vectors, transpose, store blocks.
    {
        const size_t row = n / W;
        const size_t groups = row / W;
        D ew[W] = {};
        for (size_t i = 1; i < W; ++i)
            ew[i] = Ops::set1d(tw[i]);
        size_t rg = 0; // column group index, bit-reversed over `groups`
        for (size_t c = 0; c < row; c += W) {
            D u[W];
#pragma GCC unroll 8
            for (size_t l = 0; l < W; ++l)
                u[l] = Ops::u64ToFp(
                    Ops::load(p + revBits(l, kLogW) * row + c));
#pragma GCC unroll 3
            for (unsigned s = 0; s < kLogW; ++s) {
                const size_t m = size_t{1} << s;
                if (reduce[s]) {
#pragma GCC unroll 8
                    for (size_t l = 0; l < W; ++l)
                        u[l] = f.reduce(u[l]);
                }
#pragma GCC unroll 8
                for (size_t l = 0; l < W; ++l)
                    if ((l & m) == 0)
                        f.bfly(u[l], u[l + m], ew[m + (l & (m - 1))]);
            }
            Ops::transpose(u);
#pragma GCC unroll 8
            for (size_t t = 0; t < W; ++t)
                Ops::stored(pd + (rg + revBits(t, kLogW) * groups) * W, u[t]);
            size_t bit = groups >> 1;
            while (bit && (rg & bit)) {
                rg ^= bit;
                bit >>= 1;
            }
            rg |= bit;
        }
    }

    FpPass passes[64] = {};
    size_t npass = 0;
    for (unsigned s = kLogW; s < logn;) {
        const bool r4 = s + 1 < logn;
        passes[npass++] = {size_t{1} << s, r4, reduce[s], r4 && reduce[s + 1]};
        s += r4 ? 2 : 1;
    }

    auto to_scratch = [pd](size_t k, D x) { Ops::stored(pd + k, x); };
    auto to_output = [&](size_t k, D x) {
        x = f.reduce(x);
        Ops::store(p + k, Ops::fpToU64(Ops::condAddQ(x, f.qd)));
    };
    auto to_output_post = [&](size_t k, D x) {
        if (reduce_exit)
            x = f.reduce(x);
        x = f.mulmod(Ops::loadd(post + k), x);
        Ops::store(p + k, Ops::fpToU64(Ops::condAddQ(x, f.qd)));
    };
    auto run = [&](const FpPass& ps, size_t lo, size_t hi, auto store) {
        const size_t m = ps.m;
        if (!ps.radix4) {
            for (size_t i = lo; i < hi; i += 2 * m) {
                for (size_t j = 0; j < m; j += W) {
                    D a = Ops::loadd(pd + i + j);
                    D b = Ops::loadd(pd + i + m + j);
                    if (ps.reduce_in) {
                        a = f.reduce(a);
                        b = f.reduce(b);
                    }
                    f.bfly(a, b, Ops::loadd(tw + m + j));
                    store(i + j, a);
                    store(i + m + j, b);
                }
            }
            return;
        }
        for (size_t i = lo; i < hi; i += 4 * m) {
            double* x = pd + i;
            for (size_t j = 0; j < m; j += W) {
                D a = Ops::loadd(x + j);
                D b = Ops::loadd(x + m + j);
                D c = Ops::loadd(x + 2 * m + j);
                D d = Ops::loadd(x + 3 * m + j);
                if (ps.reduce_in) {
                    a = f.reduce(a);
                    b = f.reduce(b);
                    c = f.reduce(c);
                    d = f.reduce(d);
                }
                const D w1 = Ops::loadd(tw + m + j);
                f.bfly(a, b, w1);
                f.bfly(c, d, w1);
                if (ps.reduce_mid) {
                    a = f.reduce(a);
                    b = f.reduce(b);
                    c = f.reduce(c);
                    d = f.reduce(d);
                }
                f.bfly(a, c, Ops::loadd(tw + 2 * m + j));
                f.bfly(b, d, Ops::loadd(tw + 3 * m + j));
                store(i + j, a);
                store(i + m + j, b);
                store(i + 2 * m + j, c);
                store(i + 3 * m + j, d);
            }
        }
    };

    // Passes whose span fits a chunk form a prefix (spans grow); the
    // last pass spans all n, so it is chunk-local only when n fits.
    const size_t chunk = n < kFpChunk ? n : kFpChunk;
    size_t local = 0;
    while (local < npass &&
           passes[local].m * (passes[local].radix4 ? 4 : 2) <= chunk)
        ++local;
    auto run_pass = [&](size_t i, size_t lo, size_t hi) {
        if (i + 1 < npass)
            run(passes[i], lo, hi, to_scratch);
        else if (post != nullptr)
            run(passes[i], lo, hi, to_output_post);
        else
            run(passes[i], lo, hi, to_output);
    };
    for (size_t c0 = 0; c0 < n; c0 += chunk)
        for (size_t i = 0; i < local; ++i)
            run_pass(i, c0, c0 + chunk);
    for (size_t i = local; i < npass; ++i)
        run_pass(i, 0, n);
    return true;
}

/** Per-lane lazy 128-bit sum hi:lo of 64x64 products. */
template <class Ops>
struct Acc128
{
    typename Ops::V lo = Ops::set1(0);
    typename Ops::V hi = Ops::set1(0);

    void
    mac(typename Ops::V x, typename Ops::V y)
    {
        typename Ops::V ph, pl;
        Ops::mul128(x, y, &ph, &pl);
        auto nlo = Ops::add(lo, pl);
        hi = Ops::add(hi, Ops::add(ph, Ops::borrow1(nlo, pl)));
        lo = nlo;
    }
};

/** Fold128 broadcast into vectors; fold() mirrors the scalar fold. */
template <class Ops>
struct FoldV
{
    typename Ops::V vq, v2q, vr64, vr64s, vpre1;

    explicit FoldV(const Fold128& f)
        : vq(Ops::set1(f.q)), v2q(Ops::set1(2 * f.q)),
          vr64(Ops::set1(f.r64)), vr64s(Ops::set1(f.r64_shoup)),
          vpre1(Ops::set1(f.pre1))
    {
    }

    /** acc mod q in [0, q). */
    typename Ops::V
    fold(const Acc128<Ops>& acc) const
    {
        auto m1 = mulShoupLazyV<Ops>(acc.hi, vr64, vr64s, vq);
        auto qe = Ops::mulhi64(acc.lo, vpre1);
        auto m2 = Ops::sub(acc.lo, Ops::mullo64(qe, vq));
        auto r = Ops::add(m1, m2); // < 4q < 2^64
        return Ops::csub(Ops::csub(r, v2q), vq);
    }

    /** (a + b) mod q for canonical a, b. */
    typename Ops::V
    addMod(typename Ops::V a, typename Ops::V b) const
    {
        return Ops::csub(Ops::add(a, b), vq);
    }
};

/** The k pointers of `p`, each advanced by `off` (for scalar tails). */
inline std::vector<const u64*>
offsetPtrs(const u64* const* p, size_t k, size_t off)
{
    std::vector<const u64*> out(k);
    for (size_t i = 0; i < k; ++i)
        out[i] = p[i] + off;
    return out;
}

template <class Ops>
void
newlimb(const u64* const* src, size_t k, const u64* us, size_t n,
        const u64* punct, const NewLimbTarget& t, u64* out)
{
    constexpr size_t W = Ops::W;
    const FoldV<Ops> f(t.fold);
    const auto vqm = Ops::set1(t.q_mod);
    const auto vqms = Ops::set1(t.q_mod_shoup);
    size_t c = 0;
    for (; c + W <= n; c += W) {
        auto result = Ops::set1(0);
        for (size_t base = 0; base < k; base += 16) {
            const size_t end = k - base < 16 ? k : base + 16;
            Acc128<Ops> acc;
            for (size_t i = base; i < end; ++i)
                acc.mac(Ops::load(src[i] + c), Ops::set1(punct[i]));
            result = f.addMod(result, f.fold(acc));
        }
        if (us != nullptr) {
            // result - us * (Q mod p), modular: +q keeps it positive.
            auto corr = Ops::csub(
                mulShoupLazyV<Ops>(Ops::load(us + c), vqm, vqms, f.vq), f.vq);
            result = f.addMod(Ops::sub(result, corr), f.vq);
        }
        Ops::store(out + c, result);
    }
    if (c < n)
        scalarKernels()->newlimb(offsetPtrs(src, k, c).data(), k,
                                 us != nullptr ? us + c : nullptr, n - c,
                                 punct, t, out + c);
}

template <class Ops>
void
mac(const u64* const* d, const u64* const* b, const u64* const* a,
    size_t terms, const u64* lift_u, const u64* lift_v, u64 lift_w, size_t n,
    const Fold128& fc, u64* u, u64* v)
{
    constexpr size_t W = Ops::W;
    const FoldV<Ops> f(fc);
    const auto vw = Ops::set1(lift_w);
    size_t c = 0;
    for (; c + W <= n; c += W) {
        auto ru = Ops::set1(0);
        auto rv = Ops::set1(0);
        Acc128<Ops> au, av;
        size_t pending = 0;
        for (size_t j = 0; j < terms; ++j) {
            const auto x = Ops::load(d[j] + c);
            au.mac(x, Ops::load(b[j] + c));
            av.mac(x, Ops::load(a[j] + c));
            if (++pending == 16) {
                ru = f.addMod(ru, f.fold(au));
                rv = f.addMod(rv, f.fold(av));
                au = Acc128<Ops>();
                av = Acc128<Ops>();
                pending = 0;
            }
        }
        if (lift_u != nullptr) {
            au.mac(Ops::load(lift_u + c), vw);
            av.mac(Ops::load(lift_v + c), vw);
            ++pending;
        }
        if (pending != 0) {
            ru = f.addMod(ru, f.fold(au));
            rv = f.addMod(rv, f.fold(av));
        }
        Ops::store(u + c, ru);
        Ops::store(v + c, rv);
    }
    if (c < n)
        scalarKernels()->mac(offsetPtrs(d, terms, c).data(),
                             offsetPtrs(b, terms, c).data(),
                             offsetPtrs(a, terms, c).data(), terms,
                             lift_u != nullptr ? lift_u + c : nullptr,
                             lift_v != nullptr ? lift_v + c : nullptr, lift_w,
                             n - c, fc, u + c, v + c);
}

} // namespace vecimpl
} // namespace simd
} // namespace madfhe

#endif // MADFHE_RNS_SIMD_KERNELS_VEC_INL_H
