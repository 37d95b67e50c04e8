/**
 * @file
 * Negacyclic number-theoretic transform over one limb modulus.
 *
 * We use the twist formulation: multiply coefficient i by psi^i (a primitive
 * 2N-th root of unity), then run a standard cyclic NTT with omega = psi^2.
 * Both directions keep the data in *natural order*, so that in evaluation
 * representation slot k holds a(psi^(2k+1)). Natural ordering makes Galois
 * automorphisms (Rotate/Conjugate) pure index permutations in evaluation
 * representation — the property the MAD caching analysis relies on
 * (Automorph costs zero compute, Table 4). The fused SIMD FP path
 * computes the same forward transform with the twist folded into
 * negacyclic stage twiddles (psi_tw_fp below).
 *
 * Construction cost is paid once per (N, q) pair process-wide: get()
 * memoizes tables, the cyclic stage twiddles are sliced out of the psi
 * power table instead of being recomputed (omega = psi^2, so
 * omega^(j*N/2m) = psi^(j*N/m)), and the bit-reversal permutation is
 * stored as explicit swap pairs.
 *
 * The batch entry points (forwardBatch/inverseBatch) transform several
 * limbs that share this modulus with a single walk over the twiddle
 * tables: each (stage, twiddle) pair is loaded once and applied to every
 * buffer before advancing, which is how the key-switch digit fan-out
 * amortizes table traffic (MAD's limb-wise reuse, Table 3).
 */
#ifndef MADFHE_RNS_NTT_H
#define MADFHE_RNS_NTT_H

#include <memory>
#include <utility>
#include <vector>

#include "rns/modarith.h"

namespace madfhe {

/**
 * Precomputed twiddle tables for a fixed (N, q) pair. Immutable after
 * construction and shareable across polynomials, contexts and threads.
 */
class NttTables
{
  public:
    /**
     * @param n Ring degree, a power of two.
     * @param q Prime modulus with q = 1 (mod 2n).
     */
    NttTables(size_t n, const Modulus& q);

    /**
     * Process-wide memoized lookup keyed by (n, q). Every context
     * creation path should come through here so tables are built once
     * per process rather than once per context.
     */
    static std::shared_ptr<const NttTables> get(size_t n, const Modulus& q);

    size_t degree() const { return n; }
    const Modulus& modulus() const { return q; }

    /** In-place coefficient -> evaluation transform (size n buffer). */
    void forward(u64* a) const;

    /** In-place evaluation -> coefficient transform (size n buffer). */
    void inverse(u64* a) const;

    /**
     * Transform `count` size-n buffers (all residues mod this q) with
     * one shared walk over the twiddle tables. Equivalent to calling
     * forward() on each buffer, limb by limb, in order.
     */
    void forwardBatch(u64* const* a, size_t count) const;

    /** Batched inverse(); see forwardBatch. */
    void inverseBatch(u64* const* a, size_t count) const;

    /**
     * forwardBatch()/inverseBatch() without trace events or fault
     * guards: the limb-streaming engine (ckks/stream.h) transforms
     * scratch limbs that never reach DRAM and does its own traffic
     * accounting and output guarding. Bit-identical to the traced
     * entry points.
     */
    void forwardBatchRaw(u64* const* a, size_t count) const;
    void inverseBatchRaw(u64* const* a, size_t count) const;

    void
    forwardRaw(u64* a) const
    {
        u64* const one[1] = {a};
        forwardBatchRaw(one, 1);
    }

    void
    inverseRaw(u64* a) const
    {
        u64* const one[1] = {a};
        inverseBatchRaw(one, 1);
    }

    /** The primitive 2n-th root psi used by this table. */
    u64 psi() const { return psi_pow[1]; }

    /** psi^e mod q for any exponent (reduced mod 2n; psi^n = -1). */
    u64
    psiPower(u64 e) const
    {
        e %= 2 * n;
        bool negate = e >= n;
        if (negate)
            e -= n;
        u64 v = psi_pow[e];
        return negate ? q.neg(v) : v;
    }

  private:
    void cyclicTransform(u64* const* a, size_t count,
                         const std::vector<u64>& tw,
                         const std::vector<u64>& tw_shoup) const;
    void cyclicTransformOne(u64* a, const std::vector<u64>& tw,
                            const std::vector<u64>& tw_shoup) const;

    size_t n;
    unsigned logn;
    Modulus q;

    /** psi^i, i in [0, n), with Shoup preconditioners (forward twist). */
    std::vector<u64> psi_pow, psi_pow_shoup;
    /**
     * Fused inverse untwist-and-scale: psi^{-i} * n^{-1} mod q, so the
     * inverse transform pays one Shoup multiply per coefficient instead
     * of two.
     */
    std::vector<u64> ipsi_ninv, ipsi_ninv_shoup;

    /**
     * Stage twiddles for the cyclic transform: tw[m + j] = omega^(j * n/(2m))
     * for stage half-size m in {1, 2, 4, ..., n/2}, j in [0, m).
     */
    std::vector<u64> omega_tw, omega_tw_shoup;
    std::vector<u64> iomega_tw, iomega_tw_shoup;

    /** Bit-reversal permutation as (i, rev(i)) pairs with rev(i) > i. */
    std::vector<std::pair<u32, u32>> bitrev_swaps;

    /**
     * Double-precision tables for the fused SIMD FP transform
     * (rns/simd), built only when q < 2^50 (all values below 2^50
     * convert exactly). psi_tw_fp holds the forward transform's
     * negacyclic stage twiddles, psi_tw_fp[m + k] = psi^((2k+1) * n/(2m))
     * for stage half-size m and k in [0, m): a decimation-in-time
     * transform over them computes the same a(psi^(2j+1)) as the twist
     * by psi^i followed by the cyclic transform, so the twist needs no
     * pass of its own. iomega_fp and ipsi_ninv_fp are element-wise
     * copies of the inverse u64 tables.
     */
    std::vector<double> psi_tw_fp, iomega_fp, ipsi_ninv_fp;
};

/** Find a primitive 2n-th root of unity modulo q (q = 1 mod 2n). */
u64 findPrimitiveRoot(size_t two_n, const Modulus& q);

} // namespace madfhe

#endif // MADFHE_RNS_NTT_H
