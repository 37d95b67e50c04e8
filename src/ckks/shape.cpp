#include "ckks/shape.h"

#include <algorithm>
#include <cmath>

namespace madfhe {
namespace shape {

namespace {

/** Relative difference under which two scales count as equal. */
constexpr double kScaleTolerance = 1e-3;

double
qTop(Shape a, const CkksContext& ctx)
{
    return static_cast<double>(ctx.qValue(a.level - 1));
}

/** Equal levels, and `b`'s scale within tolerance of `a`'s. */
Shape
requireMatch(Shape a, Shape b, const char* level_msg, const char* scale_msg)
{
    MAD_REQUIRE(a.level == b.level, level_msg);
    MAD_REQUIRE(std::abs(a.scale - b.scale) / a.scale < kScaleTolerance,
                scale_msg);
    return a;
}

} // namespace

Shape
add(Shape a, Shape b)
{
    return requireMatch(a, b, "ciphertext levels differ",
                        "ciphertext scales differ; rescale/align first");
}

Shape
mulNoRescale(Shape a, Shape b)
{
    add(a, b); // the operands' shapes must agree
    return {a.level, a.scale * b.scale};
}

Shape
mul(Shape a, Shape b, const CkksContext& ctx)
{
    const Shape product = mulNoRescale(a, b);
    MAD_REQUIRE(a.level >= 2, "mul needs a level to rescale into");
    return rescale(product, ctx);
}

Shape
rescale(Shape a, const CkksContext& ctx)
{
    MAD_REQUIRE(a.level >= 2, "cannot rescale the last limb away");
    return {a.level - 1, a.scale / qTop(a, ctx)};
}

Shape
dropToLevel(Shape a, size_t level)
{
    MAD_REQUIRE(level >= 1 && level <= a.level, "bad target level");
    return {level, a.scale};
}

Shape
mulScalar(Shape a, const CkksContext& ctx)
{
    MAD_REQUIRE(a.level >= 2, "no level left to rescale into");
    return rescale({a.level, a.scale * qTop(a, ctx)}, ctx);
}

Shape
matVec(Shape a, double pt_scale, const CkksContext& ctx)
{
    return rescale({a.level, a.scale * pt_scale}, ctx);
}

Shape
addPlain(Shape ct, Shape pt)
{
    return requireMatch(ct, pt, "plaintext level mismatch",
                        "plaintext scale mismatch");
}

Shape
mulPlain(Shape ct, Shape pt)
{
    MAD_REQUIRE(ct.level == pt.level, "plaintext level mismatch");
    return {ct.level, ct.scale * pt.scale};
}

Shape
addRaised(Shape acc, Shape r)
{
    return requireMatch(acc, r, "raised level mismatch",
                        "raised scale mismatch");
}

AlignPlan
planAlign(Shape a, Shape b)
{
    AlignPlan plan;
    plan.level = std::min(a.level, b.level);
    if (std::abs(a.scale - b.scale) / std::max(a.scale, b.scale) >=
        kScaleTolerance) {
        // The scalar adjustment consumes a level on both operands.
        MAD_REQUIRE(plan.level >= 2, "cannot scale-align at the last level");
        plan.adjust = a.scale > b.scale ? 0 : 1;
        plan.ratio = plan.adjust == 0 ? b.scale / a.scale : a.scale / b.scale;
    }
    return plan;
}

const SwitchingKey&
galoisKey(const GaloisKeys& gks, u64 elt)
{
    auto it = gks.find(elt);
    MAD_REQUIRE(it != gks.end(), "missing Galois key for requested rotation");
    return it->second;
}

} // namespace shape
} // namespace madfhe
