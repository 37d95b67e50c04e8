/**
 * @file
 * CkksContext: the shared immutable state of one CKKS instantiation — the
 * ring, the modulus chain split into key-switching digits, the raised basis
 * P, and every cached basis converter / scalar table that ModUp, ModDown,
 * Rescale and the merged/hoisted variants (Section 3.2 of the paper) need.
 */
#ifndef MADFHE_CKKS_CONTEXT_H
#define MADFHE_CKKS_CONTEXT_H

#include <map>
#include <memory>
#include <mutex>

#include "ckks/params.h"
#include "ring/poly.h"

namespace madfhe {

class CkksContext
{
  public:
    explicit CkksContext(const CkksParams& params);

    const CkksParams& params() const { return parms; }
    std::shared_ptr<const RingContext> ring() const { return ring_ctx; }
    size_t degree() const { return ring_ctx->degree(); }
    size_t slots() const { return parms.slots(); }

    /** Limbs in a fresh ciphertext (L + 1). */
    size_t maxLevel() const { return parms.chainLength(); }
    size_t dnum() const { return parms.dnum; }
    size_t alpha() const { return parms.alpha(); }

    /** beta: digits spanned by a ciphertext with `level` limbs. */
    size_t numDigits(size_t level) const { return ceilDiv(level, alpha()); }
    /** First chain index of digit j. */
    size_t digitStart(size_t j) const { return j * alpha(); }
    /** Number of limbs of digit j for a ciphertext with `level` limbs. */
    size_t digitSize(size_t j, size_t level) const;

    /** Chain indices of the raised basis Q[0,level) + P. */
    std::vector<u32> raisedIndices(size_t level) const;
    /** Chain indices of the full key basis Q[0,L+1) + P. */
    std::vector<u32> keyIndices() const;

    /**
     * Converter from the limbs of digit j (at `level` limbs) to the rest of
     * the raised basis (the ModUp NewLimb step, Algorithm 1).
     */
    const BasisConverter& modUpConverter(size_t digit, size_t level) const;

    /** Converter P -> Q[0,level) (the ModDown step, Algorithm 2). */
    const BasisConverter& modDownConverter(size_t level) const;

    /**
     * Converter (P u {q_(level-1)}) -> Q[0,level-1): the *merged* ModDown
     * that divides by P and rescales by the top limb in one pass
     * (the "Merging ModDown in Mult" optimization, Figure 4).
     */
    const BasisConverter& mergedModDownConverter(size_t level) const;

    /** MAC fold constants of ring modulus `chain_idx` (Q or P), built
     *  once here so the key switch never divides per kernel call. */
    const simd::Fold128& fold(size_t chain_idx) const
    {
        return folds[chain_idx];
    }

    /** P mod q_i. */
    u64 pModQ(size_t i) const { return p_mod_q[i]; }
    /** P^{-1} mod q_i. */
    u64 pInvModQ(size_t i) const { return p_inv_mod_q[i]; }
    /** q_{level-1}^{-1} mod q_i, for Rescale at `level` limbs. */
    u64 rescaleInv(size_t level, size_t i) const;
    /** (P * q_{level-1})^{-1} mod q_i, for the merged ModDown. */
    u64 mergedInv(size_t level, size_t i) const;

    /** The scale a ciphertext at `level` limbs is rescaled to track: the
     *  actual prime values drift slightly from 2^log_scale, so the exact
     *  running scale is data. */
    double scale() const { return parms.scale(); }

    /** Modulus value of Q-chain limb i. */
    u64 qValue(size_t i) const { return ring_ctx->modulus(i).value(); }

    /** log2 of the full modulus QP (all Q and P limbs). */
    double logQP() const;
    /** Coarse Ring-LWE security estimate for this parameter set (see
     *  support/security.h; toy test parameters score far below 128). */
    double securityBits() const;

  private:
    CkksParams parms;
    std::shared_ptr<RingContext> ring_ctx;

    std::vector<simd::Fold128> folds;
    std::vector<u64> p_mod_q;
    std::vector<u64> p_inv_mod_q;
    /** rescale_inv[lvl][i] = q_(lvl-1)^{-1} mod q_i (i < lvl-1). */
    std::vector<std::vector<u64>> rescale_inv;
    /** merged_inv[lvl][i] = (P*q_(lvl-1))^{-1} mod q_i (i < lvl-1). */
    std::vector<std::vector<u64>> merged_inv;

    /** Guards the three converter caches, which are filled on first use
     *  and may be reached from several threads at once. std::map nodes
     *  never move, so references handed out stay valid after the lock
     *  is released. */
    mutable std::mutex converter_mutex;
    mutable std::map<std::pair<size_t, size_t>,
                     std::unique_ptr<BasisConverter>> modup_cache;
    mutable std::map<size_t, std::unique_ptr<BasisConverter>> moddown_cache;
    mutable std::map<size_t, std::unique_ptr<BasisConverter>> merged_cache;
};

} // namespace madfhe

#endif // MADFHE_CKKS_CONTEXT_H
