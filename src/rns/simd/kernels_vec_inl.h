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
        // holds whole butterfly blocks, which split()/join() (the FP
        // transform's lane shuffles, bit-cast) separate into x/y lanes.
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
 * Fused whole-NTT kernel in double precision for q < 2^50 — the
 * error-free FMA modular multiply, with balanced (signed) residues that
 * free-run across stages. For |w| < q and |y| < G*q:
 *
 *   h = fl(w*y), l = fma(w, y, -h)        // w*y == h + l exactly
 *   b = fl(h * fl(1/q)), c = round(b)     // |c - w*y/q| < 1 when
 *                                         //   3*2^-53 * G*q <= 0.49
 *   d = fma(-c, q, h)                     // exact: |d| <= |t| + |l| < 2q
 *   t = d + l                             // exact: t == w*y - c*q,
 *                                         //   |t| < q
 *
 * Every step is exact integer arithmetic in binary64, independent of
 * how round() breaks ties (any c within 1 of the true quotient keeps
 * all the bounds), which is what makes the final output bit-identical
 * to the scalar path: both produce the unique canonical representative
 * of the same residue. The key property: |t| < q no matter how big the
 * inputs are, so butterflies x' = x +- t need NO per-butterfly
 * reduction — values grow by at most q per stage and are pulled back to
 * [-q/2, q/2] by a canonicalization sweep only when the growth ledger
 * says a bound is at risk:
 *
 *   products: G <= (0.49/3) * 2^53 / q   (quotient estimate within 1)
 *   adds:     G <= 2^53 / q - 1          (integer sums stay exact)
 *
 * For the 40-45-bit CKKS chain primes G allows far more than log2(n)
 * stages, so no mid-transform sweep ever runs; near the 2^50 gate the
 * sweeps approach one per stage and the kernel degenerates gracefully.
 *
 * The whole pipeline is fused around the FP domain:
 *   entry — one pass gathers p in bit-reversed order (lane l of output
 *     block k reads p[revbits(k) + revbits(l)*n/W], the split-radix
 *     decomposition of the bit-reversal), converts to double into a
 *     per-thread scratch, and multiplies in pre_rev (the forward twist,
 *     already stored in bit-reversed order) when present;
 *   stages — butterflies over scratch; stages with m < W keep blocks
 *     inside a vector pair, split()/join() shuffle x/y apart and back;
 *   exit — post-multiply (fused inverse untwist) or a final sweep,
 *     conditional +q to canonical, convert back into p.
 */
template <class Ops>
bool
fpTransform(u64* p, size_t n, const double* pre_rev, const double* tw,
            const double* post, u64 q)
{
    using D = typename Ops::D;
    constexpr size_t W = Ops::W;
    if (q >= kNarrowModulusBound || n < 2 * W)
        return false;

    const double qs = static_cast<double>(q);
    const D qd = Ops::set1d(qs);
    const D qinv = Ops::set1d(1.0 / qs);

    static thread_local std::vector<double> scratch;
    if (scratch.size() < n)
        scratch.resize(n);
    double* pd = scratch.data();

    // t = w*y mod q, balanced in (-q, q), exact (see header comment).
    auto mulmod = [&](D w, D y) {
        D h = Ops::muld(w, y);
        D l = Ops::fmsubd(w, y, h);
        D c = Ops::roundd(Ops::muld(h, qinv));
        return Ops::addd(Ops::fnmaddd(c, qd, h), l);
    };
    auto butterfly = [&](D x, D y, D w, D* ox, D* oy) {
        D t = mulmod(w, y);
        *ox = Ops::addd(x, t);
        *oy = Ops::subd(x, t);
    };

    // Entry: bit-reversed gather + convert + optional twist.
    {
        const size_t n_w = n / W;
        unsigned wbits = 0;
        while ((size_t{1} << wbits) < W)
            ++wbits;
        u64 goff[W];
        for (size_t l = 0; l < W; ++l) {
            size_t rl = 0;
            for (unsigned b = 0; b < wbits; ++b)
                rl |= ((l >> b) & 1) << (wbits - 1 - b);
            goff[l] = rl * n_w;
        }
        const auto vidx = Ops::load(goff);
        size_t j = 0; // bit-reverse of k over log2(n/W) bits
        for (size_t k = 0; k < n_w; ++k) {
            D x = Ops::u64ToFp(Ops::loadIdx(p + j, vidx));
            if (pre_rev)
                x = mulmod(Ops::loadd(pre_rev + k * W), x);
            Ops::stored(pd + k * W, x);
            size_t bit = n_w >> 1;
            while (bit && (j & bit)) {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
        }
    }

    // Growth ledger: |values| < growth * q. A quotient tie in the sweep
    // can leave a residue just past q/2, so a sweep books 0.6, not 0.5.
    const double two53 = 9007199254740992.0;
    const double bound_prod = 0.49 / 3.0 * two53 / qs;
    const double bound_add = two53 / qs - 1.0;
    const double bound = bound_prod < bound_add ? bound_prod : bound_add;
    double growth = 1.0;
    auto sweep = [&] {
        for (size_t i = 0; i < n; i += W) {
            D x = Ops::loadd(pd + i);
            D c = Ops::roundd(Ops::muld(x, qinv));
            Ops::stored(pd + i, Ops::fnmaddd(c, qd, x));
        }
        growth = 0.6;
    };

    for (size_t m = 1; m < n; m <<= 1) {
        if (growth > bound)
            sweep();
        if (2 * m <= W) {
            // Butterfly blocks fit inside a vector pair: lane l of the
            // split-out x/y vectors uses twiddle j = l mod m.
            double wbuf[W];
            for (size_t l = 0; l < W; ++l)
                wbuf[l] = tw[m + (l & (m - 1))];
            const D w = Ops::loadd(wbuf);
            for (size_t i = 0; i < n; i += 2 * W) {
                D a = Ops::loadd(pd + i);
                D b = Ops::loadd(pd + i + W);
                D x, y;
                Ops::split(a, b, m, &x, &y);
                butterfly(x, y, w, &x, &y);
                Ops::join(x, y, m, &a, &b);
                Ops::stored(pd + i, a);
                Ops::stored(pd + i + W, b);
            }
        } else {
            for (size_t i = 0; i < n; i += 2 * m) {
                double* x_ptr = pd + i;
                double* y_ptr = pd + i + m;
                for (size_t j = 0; j < m; j += W) {
                    const D w = Ops::loadd(tw + m + j);
                    D x = Ops::loadd(x_ptr + j);
                    D y = Ops::loadd(y_ptr + j);
                    butterfly(x, y, w, &x, &y);
                    Ops::stored(x_ptr + j, x);
                    Ops::stored(y_ptr + j, y);
                }
            }
        }
        growth += 1.0;
    }

    // Exit: post-multiply lands balanced in (-q, q) on its own; without
    // one, a final sweep does. Then +q on the negatives -> canonical.
    if (post && growth > bound)
        sweep();
    for (size_t i = 0; i < n; i += W) {
        D x = Ops::loadd(pd + i);
        if (post) {
            x = mulmod(Ops::loadd(post + i), x);
        } else {
            D c = Ops::roundd(Ops::muld(x, qinv));
            x = Ops::fnmaddd(c, qd, x);
        }
        x = Ops::condAddQ(x, qd);
        Ops::store(p + i, Ops::fpToU64(x));
    }
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
