/**
 * @file
 * The CKKS level/scale state machine: each Table 2 primitive maps its
 * operands' (level, scale) — the paper's l and Delta — to its output's,
 * or refuses with a UserError. These free functions are its only
 * implementation. `Evaluator` checks and sets its outputs through them,
 * `vbackend::VirtualBackend` replays them on plaintext carriers, and
 * `graph::inferShapes` infers edge metadata with them. Each scale is the
 * expression the real evaluation computes, in the same order, so all
 * three agree bit for bit and fail with the same messages.
 */
#ifndef MADFHE_CKKS_SHAPE_H
#define MADFHE_CKKS_SHAPE_H

#include "ckks/keys.h"

namespace madfhe {
namespace shape {

/** A ciphertext's (level, scale). */
struct Shape
{
    size_t level = 0;
    double scale = 0.0;
};

inline Shape of(const Ciphertext& ct) { return {ct.level(), ct.scale}; }
inline Shape of(const Plaintext& pt) { return {pt.level(), pt.scale}; }

/** Strict Add/Sub: equal levels, scales within tolerance. Returns `a`. */
Shape add(Shape a, Shape b);
/** Tensor + relinearize without rescale: scale a.scale * b.scale. */
Shape mulNoRescale(Shape a, Shape b);
/** Mult (Table 2): mulNoRescale then one rescale, so it needs level 2. */
Shape mul(Shape a, Shape b, const CkksContext& ctx);
/** Divide by the top limb: one level down, scale / q_top. */
Shape rescale(Shape a, const CkksContext& ctx);
/** Truncate to `level` limbs (1 <= level <= a.level); scale kept. */
Shape dropToLevel(Shape a, size_t level);
/** Scalar folded into q_top, then one rescale: the scale becomes
 *  (a.scale * q_top) / q_top. */
Shape mulScalar(Shape a, const CkksContext& ctx);
/** PtMatVecMult: diagonals encoded at `pt_scale`, one final rescale. */
Shape matVec(Shape a, double pt_scale, const CkksContext& ctx);

/** PtAdd: the plaintext matches the ciphertext's level and scale. */
Shape addPlain(Shape ct, Shape pt);
/** PtMult without rescale: same level; scale ct.scale * pt.scale. */
Shape mulPlain(Shape ct, Shape pt);
/** Raised accumulation: equal Q-levels, scales within tolerance. */
Shape addRaised(Shape acc, Shape r);

/**
 * How an aligning add brings two operands to one shape: both drop to
 * `level`; if their scales differ beyond tolerance, the larger-scale
 * operand `adjust` gets mulScalar(`ratio`) and the other drops to match.
 */
struct AlignPlan
{
    size_t level = 0;
    int adjust = -1; ///< 0 or 1: the operand to scale-adjust; -1: none
    double ratio = 1.0;
};
AlignPlan planAlign(Shape a, Shape b);

/** The switching key for Galois element `elt`; raises the canonical
 *  UserError when the caller did not supply it. */
const SwitchingKey& galoisKey(const GaloisKeys& gks, u64 elt);

} // namespace shape
} // namespace madfhe

#endif // MADFHE_CKKS_SHAPE_H
