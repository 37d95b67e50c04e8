#include "rns/basis.h"

#include <algorithm>
#include <cmath>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "telemetry/telemetry.h"

namespace madfhe {

namespace {
faultinject::Site g_fault_basis("rns.basis_convert", faultinject::kLimbKinds);
} // namespace

RnsBasis::RnsBasis(std::vector<Modulus> moduli) : mods(std::move(moduli))
{
    MAD_REQUIRE(!mods.empty(), "RNS basis must contain at least one modulus");
    for (size_t i = 0; i < mods.size(); ++i)
        for (size_t j = i + 1; j < mods.size(); ++j)
            MAD_REQUIRE(mods[i].value() != mods[j].value(),
                    "RNS moduli must be distinct");

    inv_punctured.resize(mods.size());
    inv_punctured_shoup.resize(mods.size());
    for (size_t i = 0; i < mods.size(); ++i) {
        const Modulus& qi = mods[i];
        u64 prod = 1;
        for (size_t j = 0; j < mods.size(); ++j) {
            if (j == i)
                continue;
            prod = qi.mul(prod, qi.reduce(mods[j].value()));
        }
        inv_punctured[i] = qi.inverse(prod);
        inv_punctured_shoup[i] = qi.shoupPrecompute(inv_punctured[i]);
    }
}

u64
RnsBasis::productMod(const Modulus& p) const
{
    u64 prod = 1;
    for (const auto& q : mods)
        prod = p.mul(prod, p.reduce(q.value()));
    return prod;
}

double
RnsBasis::logProduct() const
{
    double acc = 0;
    for (const auto& q : mods)
        acc += std::log2(static_cast<double>(q.value()));
    return acc;
}

BasisConverter::BasisConverter(const RnsBasis& from_, const RnsBasis& to_)
    : from(from_), to(to_)
{
    for (size_t i = 0; i < from.size(); ++i)
        for (size_t j = 0; j < to.size(); ++j)
            MAD_REQUIRE(from[i].value() != to[j].value(),
                    "source and target bases must be disjoint");

    bool narrow_sources = true;
    for (size_t i = 0; i < from.size(); ++i)
        narrow_sources = narrow_sources &&
                         from[i].value() < simd::kNarrowModulusBound;
    punctured_mod.resize(to.size());
    targets.resize(to.size());
    for (size_t j = 0; j < to.size(); ++j) {
        const Modulus& pj = to[j];
        punctured_mod[j].resize(from.size());
        for (size_t i = 0; i < from.size(); ++i) {
            u64 prod = 1;
            for (size_t k = 0; k < from.size(); ++k) {
                if (k == i)
                    continue;
                prod = pj.mul(prod, pj.reduce(from[k].value()));
            }
            punctured_mod[j][i] = prod;
        }
        const u64 q_mod = from.productMod(pj);
        targets[j] = {simd::foldFor(pj), q_mod, pj.shoupPrecompute(q_mod),
                      pj.neg(q_mod), narrow_sources};
    }
    inv_q.resize(from.size());
    inv_q_ld.resize(from.size());
    for (size_t i = 0; i < from.size(); ++i) {
        inv_q[i] = 1.0 / static_cast<double>(from[i].value());
        inv_q_ld[i] = 1.0L / static_cast<long double>(from[i].value());
    }
}

namespace {

/** Coefficients per scale/overshoot block: k scaled residue rows of
 *  this length stay cache-resident while every target limb reads them. */
constexpr size_t kBlock = 512;

/**
 * Scale pass and overshoot of Equation (1) over [0, n), fanned out over
 * the pool in kBlock-coefficient blocks; each block is handed to
 * emit(scaled, us, c, len): scaled[i] points at the block's scaled
 * residues of source limb i, `us` at its overshoot counts (null under
 * ConvMode::Approx), covering coefficients [c, c + len).
 */
template <typename Emit>
void
forEachScaledBlock(const BasisConverter& conv,
                   const std::vector<const u64*>& in, size_t n,
                   ConvMode mode, Emit&& emit)
{
    const size_t k = in.size();
    parallelForRange(n, [&](size_t begin, size_t end) {
        const size_t cap = std::min(kBlock, end - begin);
        std::vector<u64> buf((k + 1) * cap);
        std::vector<const u64*> scaled(k);
        u64* us = buf.data() + k * cap;
        for (size_t c = begin; c < end; c += kBlock) {
            const size_t len = std::min(kBlock, end - c);
            for (size_t i = 0; i < k; ++i) {
                u64* dst = buf.data() + i * cap;
                conv.scaleSourceRaw(in[i] + c, len, i, dst);
                scaled[i] = dst;
            }
            if (mode == ConvMode::SignedExact) {
                conv.overshootRaw(scaled, len, us);
                emit(scaled, us, c, len);
            } else {
                emit(scaled, nullptr, c, len);
            }
        }
    });
}

} // namespace

void
BasisConverter::convertLimb(const std::vector<const u64*>& in, size_t n,
                            size_t target_idx, u64* out, ConvMode mode) const
{
    const size_t k = from.size();
    MAD_CHECK(in.size() == k, "source limb count mismatch");
    for (size_t i = 0; i < k; ++i)
        MAD_TRACE_READ(in[i], n * sizeof(u64));
    MAD_TRACE_WRITE(out, n * sizeof(u64));
    convertLimbRaw(in, n, target_idx, out, mode);
    faultinject::guardLimb(g_fault_basis, out, n);
}

void
BasisConverter::convertLimbRaw(const std::vector<const u64*>& in, size_t n,
                               size_t target_idx, u64* out,
                               ConvMode mode) const
{
    MAD_CHECK(in.size() == from.size(), "source limb count mismatch");
    // The scale pass is recomputed per target limb to keep this entry
    // point stateless; convert() amortizes it across all target limbs.
    forEachScaledBlock(*this, in, n, mode,
                       [&](const std::vector<const u64*>& scaled,
                           const u64* us, size_t c, size_t len) {
                           accumulateScaledRaw(scaled, us, len, target_idx,
                                               out + c);
                       });
}

void
BasisConverter::scaleSourceRaw(const u64* in, size_t n, size_t src_idx,
                               u64* out) const
{
    MAD_CHECK(src_idx < from.size(), "source limb index out of range");
    // mul_shoup_scalar is elementwise and bit-identical to the scalar
    // mulShoup on every backend (the PR 5 bit-exactness contract), so
    // cached pre-scaled limbs reproduce the in-convert scale pass
    // exactly.
    simd::kernels().mul_shoup_scalar(out, in, n, from.invPunctured(src_idx),
                                     from.invPuncturedShoup(src_idx),
                                     from[src_idx].value());
}

void
BasisConverter::overshootRaw(const std::vector<const u64*>& scaled, size_t n,
                             u64* us) const
{
    MAD_CHECK(scaled.size() == from.size(), "source limb count mismatch");
    simd::kernels().overshoot(scaled.data(), scaled.size(), inv_q.data(),
                              inv_q_ld.data(), n, us);
}

void
BasisConverter::accumulateScaledRaw(const std::vector<const u64*>& scaled,
                                    const u64* us, size_t n,
                                    size_t target_idx, u64* out) const
{
    MAD_CHECK(scaled.size() == from.size(), "source limb count mismatch");
    simd::kernels().newlimb(scaled.data(), scaled.size(), us, n,
                            punctured_mod[target_idx].data(),
                            targets[target_idx], out);
}

void
BasisConverter::convert(const std::vector<const u64*>& in, size_t n,
                        const std::vector<u64*>& out, ConvMode mode) const
{
    MAD_CHECK(in.size() == from.size(), "source limb count mismatch");
    MAD_CHECK(out.size() == to.size(), "target limb count mismatch");
    TELEM_SPAN("BasisConvert");
    TELEM_SPAN(simd::activeSpanLabel());
    TELEM_COUNT("rns.basis.src_limbs", in.size());
    TELEM_COUNT("rns.basis.dst_limbs", out.size());
    const size_t k = from.size();
    for (size_t i = 0; i < k; ++i)
        MAD_TRACE_READ(in[i], n * sizeof(u64));
    for (size_t j = 0; j < out.size(); ++j)
        MAD_TRACE_WRITE(out[j], n * sizeof(u64));

    // Slot-wise access pattern: scale each source block once, then
    // accumulate it into every target limb. Coefficient ranges are
    // independent, so they fan out across the pool.
    forEachScaledBlock(*this, in, n, mode,
                       [&](const std::vector<const u64*>& scaled,
                           const u64* us, size_t c, size_t len) {
                           for (size_t j = 0; j < out.size(); ++j)
                               accumulateScaledRaw(scaled, us, len, j,
                                                   out[j] + c);
                       });
    for (size_t j = 0; j < out.size(); ++j)
        faultinject::guardLimb(g_fault_basis, out[j], n);
}

} // namespace madfhe
