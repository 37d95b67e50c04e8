/**
 * @file
 * RNS bases and the fast basis-extension primitive NewLimb (Equation 1 of
 * the paper). A basis B = {q_1, ..., q_k} represents Z_Q, Q = prod q_i; the
 * converter maps residues over a source basis to residues over a disjoint
 * target basis using the Halevi–Polyakov–Shoup fast conversion (result may
 * carry an additive multiple of Q below k*Q, absorbed by CKKS noise — this
 * is the standard full-RNS CKKS construction [Cheon et al., SAC'18]).
 */
#ifndef MADFHE_RNS_BASIS_H
#define MADFHE_RNS_BASIS_H

#include <vector>

#include "rns/modarith.h"
#include "rns/simd/simd.h"

namespace madfhe {

/** An ordered set of coprime word-sized prime moduli with precomputations
 *  for conversions out of this basis. */
class RnsBasis
{
  public:
    explicit RnsBasis(std::vector<Modulus> moduli);

    size_t size() const { return mods.size(); }
    const Modulus& operator[](size_t i) const { return mods[i]; }
    const std::vector<Modulus>& moduli() const { return mods; }

    /** (Q/q_i)^{-1} mod q_i — the Q~_i factor in Equation (1). */
    u64 invPunctured(size_t i) const { return inv_punctured[i]; }
    u64 invPuncturedShoup(size_t i) const { return inv_punctured_shoup[i]; }

    /** Q mod p for an external modulus p. */
    u64 productMod(const Modulus& p) const;

    /** log2 of the basis product, as a double (for noise/size budgeting). */
    double logProduct() const;

  private:
    std::vector<Modulus> mods;
    std::vector<u64> inv_punctured;
    std::vector<u64> inv_punctured_shoup;
};

/** How the fast basis extension treats the +uQ overshoot of Equation (1). */
enum class ConvMode
{
    /**
     * Plain HPS conversion: output equals x + u*Q (mod p) for some
     * 0 <= u < k. Cheapest; the overshoot is absorbed by CKKS noise.
     */
    Approx,
    /**
     * Floating-point-corrected conversion: subtracts round(x/Q)*Q, i.e.
     * extends the *centered* representative exactly. This is the variant
     * the functional CKKS pipeline uses.
     */
    SignedExact,
};

/**
 * Fast conversion of RNS residues from a source basis to a target basis
 * (the slot-wise NewLimb kernel). Precomputes (Q/q_i) mod p_j for every
 * source limb i and target modulus p_j.
 */
class BasisConverter
{
  public:
    BasisConverter(const RnsBasis& from, const RnsBasis& to);

    const RnsBasis& source() const { return from; }
    const RnsBasis& target() const { return to; }

    /**
     * Convert n coefficients. `in[i]` points at the i-th source limb,
     * `out[j]` at the j-th target limb (all length n, coefficient rep).
     */
    void convert(const std::vector<const u64*>& in, size_t n,
                 const std::vector<u64*>& out,
                 ConvMode mode = ConvMode::SignedExact) const;

    /**
     * Convert into a single target limb j (the per-NewLimb granularity the
     * O(alpha) caching optimization schedules around).
     */
    void convertLimb(const std::vector<const u64*>& in, size_t n,
                     size_t target_idx, u64* out,
                     ConvMode mode = ConvMode::SignedExact) const;

    /**
     * convertLimb() without trace events or fault guards: the
     * limb-streaming engine (ckks/stream.h) converts into scratch limbs
     * that never reach DRAM and does its own accounting. Bit-identical
     * to convertLimb().
     */
    void convertLimbRaw(const std::vector<const u64*>& in, size_t n,
                        size_t target_idx, u64* out,
                        ConvMode mode = ConvMode::SignedExact) const;

    /**
     * Scale pass of Equation (1) for one source limb:
     * out[c] = in[c] * (Q/q_i)^{-1} mod q_i with i = src_idx. Feeding
     * the results of all source limbs to overshootRaw() +
     * accumulateScaledRaw() reproduces convert() bit-for-bit — this
     * split is what lets the streaming engine pin pre-scaled digits
     * (the O(alpha) basis-change cache) and reuse them across every
     * target limb without changing a single output byte. In-place
     * (out == in) is allowed. No trace events.
     */
    void scaleSourceRaw(const u64* in, size_t n, size_t src_idx,
                        u64* out) const;

    /**
     * Overshoot pass: us[c] = floor(0.5 + sum_i scaled[i][c] / q_i),
     * the round(x/Q) count ConvMode::SignedExact subtracts, summed in
     * long double in ascending i (vector backends reach the same count
     * through a double estimate; see simd::Kernels::overshoot). `scaled`
     * are scaleSourceRaw() outputs, one per source limb. No trace
     * events.
     */
    void overshootRaw(const std::vector<const u64*>& scaled, size_t n,
                      u64* us) const;

    /**
     * Accumulate pre-scaled residues into target limb `target_idx`:
     * out[c] = sum_i scaled[i][c] * (Q/q_i) mod p_j, minus us[c] * Q
     * when `us` is non-null (ConvMode::SignedExact); pass nullptr for
     * ConvMode::Approx. One call of the whole-limb NewLimb kernel; no
     * trace events or guards. convert() and convertLimbRaw() produce
     * every target limb through this function.
     */
    void accumulateScaledRaw(const std::vector<const u64*>& scaled,
                             const u64* us, size_t n, size_t target_idx,
                             u64* out) const;

  private:
    RnsBasis from;
    RnsBasis to;
    /** punctured_mod[j][i] = (Q/q_i) mod p_j. */
    std::vector<std::vector<u64>> punctured_mod;
    /** 1/q_i as double and as long double: the overshoot kernel's
     *  estimate and its reference formula. */
    std::vector<double> inv_q;
    std::vector<long double> inv_q_ld;
    /** Per-target NewLimb kernel constants: p_j's fold constants and
     *  Q mod p_j (with its Shoup preconditioner) for the overshoot
     *  correction. */
    std::vector<simd::NewLimbTarget> targets;
};

} // namespace madfhe

#endif // MADFHE_RNS_BASIS_H
