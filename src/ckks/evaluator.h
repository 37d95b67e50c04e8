/**
 * @file
 * The CKKS evaluator: the primitive-operation API of Table 2 (PtAdd, Add,
 * PtMult, Mult, Rotate, Conjugate) plus Rescale, level management, and the
 * hoisted/raised-basis variants used by the MAD algorithmic optimizations.
 */
#ifndef MADFHE_CKKS_EVALUATOR_H
#define MADFHE_CKKS_EVALUATOR_H

#include "ckks/encoder.h"
#include "ckks/keyswitch.h"

namespace madfhe {

/** Toggles for the MAD algorithmic optimizations (Section 3.2). */
struct EvalOptions
{
    /** Fuse the KeySwitch ModDown with Rescale in Mult (Figure 4). */
    bool merged_moddown = true;
};

class Evaluator
{
  public:
    explicit Evaluator(std::shared_ptr<const CkksContext> ctx,
                       EvalOptions options = {});

    const CkksContext& context() const { return *ctx; }
    const KeySwitcher& keySwitcher() const { return ksw; }
    const EvalOptions& options() const { return opts; }

    /** Add two ciphertexts (same level; scales must agree closely). */
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext negate(const Ciphertext& a) const;

    /**
     * Level/scale-aligning addition: operands at different levels are
     * dropped to the lower one; if the scales differ beyond tolerance,
     * the larger-scale operand is scalar-adjusted (consuming one level).
     * Convenience for application code; the strict add() is cheaper when
     * the shapes already match.
     */
    Ciphertext addAligned(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext subAligned(const Ciphertext& a, const Ciphertext& b) const;

    /** Bring two ciphertexts to a common level and matching scale. */
    std::pair<Ciphertext, Ciphertext> align(const Ciphertext& a,
                                            const Ciphertext& b) const;

    /** PtAdd: add an encoded plaintext. */
    Ciphertext addPlain(const Ciphertext& a, const Plaintext& pt) const;
    Ciphertext subPlain(const Ciphertext& a, const Plaintext& pt) const;

    /**
     * PtMult without rescale: scale becomes a.scale * pt.scale; callers
     * follow with rescale() (or rely on mulPlainRescale()).
     */
    Ciphertext mulPlain(const Ciphertext& a, const Plaintext& pt) const;
    /** PtMult followed by Rescale (the Table 2 contract). */
    Ciphertext mulPlainRescale(const Ciphertext& a, const Plaintext& pt) const;

    /**
     * Mult (Table 2): tensor, relinearize with `rlk`, rescale. With
     * merged_moddown the KeySwitch ModDown and the Rescale are one fused
     * ModDown in the raised basis; otherwise they run separately.
     */
    Ciphertext mul(const Ciphertext& a, const Ciphertext& b,
                   const SwitchingKey& rlk) const;
    /** Mult without the final rescale (scale = sa * sb). */
    Ciphertext mulNoRescale(const Ciphertext& a, const Ciphertext& b,
                            const SwitchingKey& rlk) const;
    Ciphertext square(const Ciphertext& a, const SwitchingKey& rlk) const;

    /** Divide by the top limb, dropping one level (scale /= q_top). */
    Ciphertext rescale(const Ciphertext& a) const;

    /** Drop limbs to `level` without changing the scale (modulus switch
     *  by truncation — exact in RNS). */
    Ciphertext dropToLevel(const Ciphertext& a, size_t level) const;

    /** Rotate slots left by `steps` (Table 2 Rotate; Automorph +
     *  KeySwitch). */
    Ciphertext rotate(const Ciphertext& a, int steps,
                      const GaloisKeys& gks) const;
    /** Complex conjugation of every slot. */
    Ciphertext conjugate(const Ciphertext& a, const GaloisKeys& gks) const;

    /**
     * Hoisted rotations (ModUp hoisting, Figure 5(c)): Decomp+ModUp once,
     * then one inner product + ModDown per step. Returns one ciphertext
     * per requested step; step 0 returns the input unchanged. Edge cases
     * are well-defined: an empty step list returns an empty vector, an
     * all-zero list returns copies of the input (neither pays the
     * Decomp+ModUp, which is computed lazily on the first key-switching
     * step), and duplicate steps yield identical ciphertexts.
     */
    std::vector<Ciphertext> rotateHoisted(const Ciphertext& a,
                                          const std::vector<int>& steps,
                                          const GaloisKeys& gks) const;

    /**
     * Raised-basis rotation for ModDown hoisting (Figure 5(b)): same as a
     * hoisted rotation, but the result stays in the raised basis PQ so the
     * caller can accumulate linear combinations and ModDown once.
     */
    RaisedCiphertext rotateRaised(const std::vector<RnsPoly>& digits,
                                  const Ciphertext& a, int steps,
                                  const GaloisKeys& gks) const;

    /** Finish a raised accumulation: two ModDowns. */
    Ciphertext modDownPair(const RaisedCiphertext& r) const;

    /** Multiply a raised ciphertext by a plaintext (linear functions stay
     *  valid in the raised basis — Section 3.2). */
    void mulPlainRaised(RaisedCiphertext& r, const Plaintext& pt) const;
    /** Accumulate raised ciphertexts. */
    void addRaised(RaisedCiphertext& acc, const RaisedCiphertext& r) const;

    /**
     * Multiply the underlying ring element by the monomial x^power —
     * exact and noiseless, no level consumed. Slot j gets multiplied by
     * zeta^(power * 5^j); power = N/2 multiplies every slot by the
     * imaginary unit (the bootstrapping conjugation-split trick).
     */
    Ciphertext mulMonomial(const Ciphertext& a, size_t power) const;
    /** mulMonomial(a, N/2): multiply every slot by i. */
    Ciphertext
    mulImaginary(const Ciphertext& a) const
    {
        return mulMonomial(a, ctx->degree() / 2);
    }

    /** Multiply every slot by a real scalar, consuming one level. */
    Ciphertext mulScalarRescale(const Ciphertext& a, double scalar) const;
    /** Add a scalar to every slot (no level consumed). */
    Ciphertext addScalar(const Ciphertext& a, double scalar,
                         const CkksEncoder& encoder) const;

  private:
    /** Automorph by Galois element `elt`, then key-switch c1 back to s
     *  (the body Rotate and Conjugate share). */
    Ciphertext automorphKeySwitch(const Ciphertext& a, u64 elt,
                                  const GaloisKeys& gks) const;

    std::shared_ptr<const CkksContext> ctx;
    KeySwitcher ksw;
    EvalOptions opts;
};

} // namespace madfhe

#endif // MADFHE_CKKS_EVALUATOR_H
