#include "rns/ntt.h"

#include <map>
#include <mutex>

#include "memtrace/trace.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"

namespace madfhe {

namespace {
faultinject::Site g_fault_ntt_fwd("rns.ntt_fwd", faultinject::kLimbKinds);
faultinject::Site g_fault_ntt_inv("rns.ntt_inv", faultinject::kLimbKinds);
} // namespace

u64
findPrimitiveRoot(size_t two_n, const Modulus& q)
{
    MAD_REQUIRE((q.value() - 1) % two_n == 0, "q != 1 mod 2n");
    const u64 exponent = (q.value() - 1) / two_n;
    // Deterministic scan: candidate generators 2, 3, 4, ... One pow per
    // candidate: g^((q-1)/2) == -1 iff g is a quadratic non-residue, and
    // exactly then g^((q-1)/2n) has order 2n (its n-th power is -1).
    for (u64 g = 2; g < q.value(); ++g) {
        if (q.pow(g, (q.value() - 1) / 2) == q.value() - 1)
            return q.pow(g, exponent);
    }
    throw std::logic_error("no primitive root found (q not prime?)");
}

std::shared_ptr<const NttTables>
NttTables::get(size_t n, const Modulus& q)
{
    static std::mutex mu;
    static std::map<std::pair<size_t, u64>, std::weak_ptr<const NttTables>>
        cache;
    std::lock_guard<std::mutex> lock(mu);
    auto& slot = cache[{n, q.value()}];
    if (auto tables = slot.lock())
        return tables;
    auto tables = std::make_shared<const NttTables>(n, q);
    slot = tables;
    return tables;
}

NttTables::NttTables(size_t n_, const Modulus& q_) : n(n_), q(q_)
{
    MAD_REQUIRE(isPowerOfTwo(n), "NTT size must be a power of two");
    // The Harvey lazy butterflies keep values in [0, 4q) between stages,
    // which needs two headroom bits: q < 2^62 so 4q < 2^64. Modulus
    // already rejects wider moduli; this records the reliance at the
    // kernel that depends on it.
    MAD_REQUIRE(q.value() < (1ULL << 62),
            "NTT modulus must be < 2^62 (4q lazy-reduction headroom)");
    logn = floorLog2(n);

    const u64 psi = findPrimitiveRoot(2 * n, q);
    const u64 ipsi = q.inverse(psi);
    const u64 n_inv = q.inverse(static_cast<u64>(n % q.value()));

    // psi powers carry the forward twist and, via omega = psi^2, the
    // forward stage twiddles; ipsi powers are folded with n^{-1} into
    // the fused inverse untwist table.
    psi_pow.resize(n);
    psi_pow_shoup.resize(n);
    ipsi_ninv.resize(n);
    ipsi_ninv_shoup.resize(n);
    std::vector<u64> ipsi_pow(n);
    u64 p = 1, ip = 1;
    for (size_t i = 0; i < n; ++i) {
        psi_pow[i] = p;
        psi_pow_shoup[i] = q.shoupPrecompute(p);
        ipsi_pow[i] = ip;
        ipsi_ninv[i] = q.mul(ip, n_inv);
        ipsi_ninv_shoup[i] = q.shoupPrecompute(ipsi_ninv[i]);
        p = q.mul(p, psi);
        ip = q.mul(ip, ipsi);
    }

    // Stage twiddles are slices of the (i)psi power tables:
    // omega^(j * n/(2m)) = psi^(j * n/m), so no pow chains and no fresh
    // Shoup precomputations (a 128-bit division each) are needed for the
    // forward tables.
    omega_tw.resize(n);
    iomega_tw.resize(n);
    omega_tw_shoup.resize(n);
    iomega_tw_shoup.resize(n);
    for (size_t m = 1; m < n; m <<= 1) {
        const size_t stride = n / m;
        for (size_t j = 0; j < m; ++j) {
            const size_t e = j * stride;
            omega_tw[m + j] = psi_pow[e];
            omega_tw_shoup[m + j] = psi_pow_shoup[e];
            iomega_tw[m + j] = ipsi_pow[e];
            iomega_tw_shoup[m + j] = q.shoupPrecompute(ipsi_pow[e]);
        }
    }

    bitrev_swaps.reserve(n / 2);
    for (size_t i = 0; i < n; ++i) {
        u32 r = 0;
        for (unsigned b = 0; b < logn; ++b)
            r |= ((i >> b) & 1) << (logn - 1 - b);
        if (r > i)
            bitrev_swaps.emplace_back(static_cast<u32>(i), r);
    }

    // FP tables for the fused SIMD transform; u64 values below 2^50 are
    // exactly representable as doubles, wider moduli stay on the integer
    // path and never read these. The exponent (2k+1) * n/(2m) is below
    // n because 2k+1 < 2m.
    if (q.value() < simd::kNarrowModulusBound) {
        psi_tw_fp.resize(n);
        iomega_fp.resize(n);
        ipsi_ninv_fp.resize(n);
        for (size_t m = 1; m < n; m <<= 1)
            for (size_t k = 0; k < m; ++k)
                psi_tw_fp[m + k] =
                    static_cast<double>(psi_pow[(2 * k + 1) * (n / (2 * m))]);
        for (size_t i = 0; i < n; ++i) {
            iomega_fp[i] = static_cast<double>(iomega_tw[i]);
            ipsi_ninv_fp[i] = static_cast<double>(ipsi_ninv[i]);
        }
    }
}

void
NttTables::cyclicTransformOne(u64* p, const std::vector<u64>& tw,
                              const std::vector<u64>& tw_shoup) const
{
    for (const auto& [i, r] : bitrev_swaps)
        std::swap(p[i], p[r]);
    // Harvey lazy butterflies: values stay in [0, 4q) across stages (the
    // left operand is conditionally brought under 2q, the lazy Shoup
    // product is under 2q), with one final reduction pass. 4q < 2^64
    // holds because every limb modulus is below 2^62 (enforced in
    // Modulus and rns/primegen.cpp). The stage kernel is SIMD-dispatched
    // (rns/simd); every backend is bit-exact against the scalar table.
    const auto& K = simd::kernels();
    const u64 two_q = 2 * q.value();
    for (size_t m = 1; m < n; m <<= 1)
        K.ntt_stage(p, n, m, tw.data() + m, tw_shoup.data() + m, q.value(),
                    two_q);
    K.reduce_4q(p, n, q.value(), two_q);
}

void
NttTables::cyclicTransform(u64* const* a, size_t count,
                           const std::vector<u64>& tw,
                           const std::vector<u64>& tw_shoup) const
{
    if (count == 1) {
        cyclicTransformOne(a[0], tw, tw_shoup);
        return;
    }
    for (size_t b = 0; b < count; ++b) {
        u64* p = a[b];
        for (const auto& [i, r] : bitrev_swaps)
            std::swap(p[i], p[r]);
    }
    const auto& K = simd::kernels();
    const u64 two_q = 2 * q.value();
    if (K.lanes == 1) {
        // Scalar backend: share each (stage, twiddle) pair across the
        // whole batch so the twiddle tables are walked once (the MAD
        // limb-wise reuse the key-switch digit fan-out relies on).
        for (size_t m = 1; m < n; m <<= 1) {
            for (size_t i = 0; i < n; i += 2 * m) {
                for (size_t j = 0; j < m; ++j) {
                    const u64 w = tw[m + j];
                    const u64 ws = tw_shoup[m + j];
                    for (size_t b = 0; b < count; ++b) {
                        u64* p = a[b];
                        u64 x = p[i + j];
                        if (x >= two_q)
                            x -= two_q;
                        u64 y = q.mulShoupLazy(p[i + j + m], w, ws);
                        p[i + j] = x + y;
                        p[i + j + m] = x + two_q - y;
                    }
                }
            }
        }
    } else {
        // Vector backends read twiddles as vector loads, so buffers are
        // kept innermost per stage: the stage slice stays hot in L1
        // across the batch while each buffer streams through once.
        for (size_t m = 1; m < n; m <<= 1)
            for (size_t b = 0; b < count; ++b)
                K.ntt_stage(a[b], n, m, tw.data() + m, tw_shoup.data() + m,
                            q.value(), two_q);
    }
    for (size_t b = 0; b < count; ++b)
        K.reduce_4q(a[b], n, q.value(), two_q);
}

void
NttTables::forwardBatchRaw(u64* const* a, size_t count) const
{
    const auto& K = simd::kernels();
    // Vector backends fuse bit-reversal, stages and (through the
    // negacyclic twiddles) the twist into one FP kernel when the modulus
    // fits its domain (it declines otherwise and we run the unfused path
    // below). Outputs are bit-identical either way.
    if (K.fp_transform && !psi_tw_fp.empty() && count > 0 &&
        K.fp_transform(a[0], n, psi_tw_fp.data(), nullptr, q.value())) {
        // The kernel's domain depends only on (q, n), so the verdict is
        // uniform across the batch.
        for (size_t b = 1; b < count; ++b)
            MAD_CHECK(K.fp_transform(a[b], n, psi_tw_fp.data(), nullptr,
                                     q.value()),
                      "fp transform verdict changed within a batch");
        return;
    }
    // Forward twist by psi^i. The twiddle-vector kernel covers index 0
    // too: psi^0 = 1 and mulShoup(x, 1, floor(2^64/q)) returns x exactly
    // for canonical x, so the result is bit-identical to starting at 1.
    if (K.lanes == 1 && count > 1) {
        for (size_t i = 1; i < n; ++i) {
            const u64 w = psi_pow[i];
            const u64 ws = psi_pow_shoup[i];
            for (size_t b = 0; b < count; ++b)
                a[b][i] = q.mulShoup(a[b][i], w, ws);
        }
    } else {
        for (size_t b = 0; b < count; ++b)
            K.mul_shoup_vec(a[b], psi_pow.data(), psi_pow_shoup.data(), n,
                            q.value());
    }
    cyclicTransform(a, count, omega_tw, omega_tw_shoup);
}

void
NttTables::forwardBatch(u64* const* a, size_t count) const
{
    for (size_t b = 0; b < count; ++b) {
        MAD_TRACE_READ(a[b], n * sizeof(u64));
        MAD_TRACE_WRITE(a[b], n * sizeof(u64));
    }
    forwardBatchRaw(a, count);
    for (size_t b = 0; b < count; ++b)
        faultinject::guardLimb(g_fault_ntt_fwd, a[b], n);
}

void
NttTables::inverseBatchRaw(u64* const* a, size_t count) const
{
    const auto& K = simd::kernels();
    // Fused FP path: bit-reversal, stages, and the untwist-and-scale
    // multiply in one kernel (see forwardBatch).
    if (K.fp_transform && !psi_tw_fp.empty() && count > 0 &&
        K.fp_transform(a[0], n, iomega_fp.data(), ipsi_ninv_fp.data(),
                       q.value())) {
        for (size_t b = 1; b < count; ++b)
            MAD_CHECK(K.fp_transform(a[b], n, iomega_fp.data(),
                                     ipsi_ninv_fp.data(), q.value()),
                      "fp transform verdict changed within a batch");
        return;
    }
    cyclicTransform(a, count, iomega_tw, iomega_tw_shoup);
    // Fused scale-by-n^{-1} and untwist: one Shoup multiply per
    // coefficient against the precombined psi^{-i} * n^{-1} table.
    if (K.lanes == 1 && count > 1) {
        for (size_t i = 0; i < n; ++i) {
            const u64 w = ipsi_ninv[i];
            const u64 ws = ipsi_ninv_shoup[i];
            for (size_t b = 0; b < count; ++b)
                a[b][i] = q.mulShoup(a[b][i], w, ws);
        }
    } else {
        for (size_t b = 0; b < count; ++b)
            K.mul_shoup_vec(a[b], ipsi_ninv.data(), ipsi_ninv_shoup.data(),
                            n, q.value());
    }
}

void
NttTables::inverseBatch(u64* const* a, size_t count) const
{
    for (size_t b = 0; b < count; ++b) {
        MAD_TRACE_READ(a[b], n * sizeof(u64));
        MAD_TRACE_WRITE(a[b], n * sizeof(u64));
    }
    inverseBatchRaw(a, count);
    for (size_t b = 0; b < count; ++b)
        faultinject::guardLimb(g_fault_ntt_inv, a[b], n);
}

void
NttTables::forward(u64* a) const
{
    u64* const one[1] = {a};
    forwardBatch(one, 1);
}

void
NttTables::inverse(u64* a) const
{
    u64* const one[1] = {a};
    inverseBatch(one, 1);
}

} // namespace madfhe
