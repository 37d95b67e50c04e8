/**
 * @file
 * Scalar-vs-SIMD bit-exactness suite. The contract under test is
 * stronger than correctness: every vector kernel must leave the exact
 * canonical residues the scalar path leaves — byte-identical buffers —
 * across ring sizes, prime shapes on both sides of the FP-kernel domain
 * boundary (q < 2^50), non-lane-multiple tails, thread counts, and with
 * fault injection armed. Byte identity is what keeps memtrace replay,
 * seed-compressed ciphertext expansion and the determinism suite valid
 * under any backend.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "ckks/encryptor.h"
#include "ckks/serialize.h"
#include "rns/basis.h"
#include "rns/ntt.h"
#include "rns/primegen.h"
#include "rns/simd/simd.h"
#include "support/faultinject.h"
#include "support/parallel.h"
#include "support/random.h"
#include "test_util.h"

namespace madfhe {
namespace {

std::vector<u64>
randomResidues(size_t n, const Modulus& q, u64 seed)
{
    Prng rng(seed);
    std::vector<u64> a(n);
    for (auto& v : a)
        v = rng.uniform(q.value());
    return a;
}

std::vector<simd::Backend>
vectorBackends()
{
    std::vector<simd::Backend> out;
    for (simd::Backend b : {simd::Backend::Avx2, simd::Backend::Avx512})
        if (simd::supported(b))
            out.push_back(b);
    return out;
}

/** RAII: restore the scalar backend even when an assertion bails out. */
struct ScopedBackend
{
    explicit ScopedBackend(simd::Backend b) { simd::setBackend(b); }
    ~ScopedBackend() { simd::setBackend(simd::Backend::Scalar); }
};

/** RAII: run one per-ISA table, then restore the scalar backend. */
struct ScopedKernels
{
    explicit ScopedKernels(const simd::Kernels* k) { simd::setKernels(k); }
    ~ScopedKernels() { simd::setBackend(simd::Backend::Scalar); }
};

/** A runnable kernel table and the name tests report it under. */
struct Table
{
    const simd::Kernels* k;
    const char* label;
};

/** Every runnable vector table: AVX2, AVX-512 with its 64-bit
 *  newlimb/mac bodies, and AVX-512 with the IFMA52 ones. */
std::vector<Table>
vectorTables()
{
    std::vector<Table> out;
    for (Table t : {Table{simd::avx2Kernels(), "avx2"},
                    Table{simd::avx512NoIfmaKernels(), "avx512"},
                    Table{simd::avx512IfmaKernels(), "avx512+ifma"}})
        if (t.k != nullptr)
            out.push_back(t);
    return out;
}

TEST(SimdDispatch, ScalarIsAlwaysAvailable)
{
    EXPECT_TRUE(simd::supported(simd::Backend::Scalar));
    ASSERT_NE(simd::scalarKernels(), nullptr);
    EXPECT_STREQ(simd::scalarKernels()->name, "scalar");
    EXPECT_EQ(simd::scalarKernels()->lanes, 1u);
    // The scalar table is the reference: it has no fused FP kernel.
    EXPECT_EQ(simd::scalarKernels()->fp_transform, nullptr);
}

/**
 * Backend::Avx512 runs the IFMA52 bodies exactly when the CPU has
 * avx512ifma, and that table differs from the 64-bit one in newlimb,
 * mac and the two broadcast Shoup kernels only. Prints whether this
 * suite tests the IFMA52 bodies: CI runners may lack avx512ifma, and the
 * table-sweeping cases then cover the 64-bit bodies only.
 */
TEST(SimdDispatch, Avx512RunsIfmaBodiesWhenTheCpuHasThem)
{
    const simd::Kernels* ifma = simd::avx512IfmaKernels();
    const simd::Kernels* base = simd::avx512NoIfmaKernels();
    std::printf("[ SIMD     ] IFMA52 kernel bodies: %s\n",
                ifma ? "tested by this suite (CPU has avx512ifma)"
                     : "not tested (no avx512ifma on this CPU/build)");
    if (ifma == nullptr) {
        EXPECT_EQ(simd::avx512Kernels(), base);
        GTEST_SKIP() << "CPU or compiler lacks avx512ifma";
    }
    ASSERT_NE(base, nullptr);
    EXPECT_EQ(simd::avx512Kernels(), ifma);
    EXPECT_NE(ifma->newlimb, base->newlimb);
    EXPECT_NE(ifma->mac, base->mac);
    EXPECT_NE(ifma->mul_shoup_scalar, base->mul_shoup_scalar);
    EXPECT_NE(ifma->sub_mul_shoup, base->sub_mul_shoup);
    EXPECT_EQ(ifma->ntt_stage, base->ntt_stage);
    EXPECT_EQ(ifma->fp_transform, base->fp_transform);
    EXPECT_EQ(ifma->overshoot, base->overshoot);
    EXPECT_STREQ(ifma->name, "avx512");
    ScopedKernels sk(base);
    EXPECT_EQ(simd::backend(), simd::Backend::Avx512);
}

/**
 * NTT/iNTT byte identity over ring sizes and prime widths spanning both
 * kernel regimes: < 2^50 engages the fused error-free FMA transform on
 * vector backends, >= 2^50 falls back to the integer Harvey path (whose
 * first log2(W) stages shuffle lanes within vector pairs, and run
 * scalar below 2W coefficients), and 61 bits sits just under the
 * q < 2^62 lazy-reduction ceiling.
 */
TEST(SimdNtt, BitExactAcrossSizesAndPrimeShapes)
{
    const auto backends = vectorBackends();
    if (backends.empty())
        GTEST_SKIP() << "no vector backend runnable on this host";

    for (size_t n : {size_t{8}, size_t{16}, size_t{32}, size_t{64},
                     size_t{1024}, size_t{8192}}) {
        for (unsigned bits : {28u, 40u, 45u, 49u, 50u, 53u, 54u, 60u, 61u}) {
            const Modulus q(generateNttPrimes(bits, n, 1)[0]);
            const NttTables tab(n, q);
            const auto coeff = randomResidues(n, q, 1000 + bits);

            auto fwd_ref = coeff;
            auto inv_ref = coeff;
            {
                ScopedBackend sb(simd::Backend::Scalar);
                tab.forward(fwd_ref.data());
                inv_ref = fwd_ref;
                tab.inverse(inv_ref.data());
            }
            ASSERT_EQ(inv_ref, coeff) << "scalar roundtrip broken";

            for (simd::Backend b : backends) {
                ScopedBackend sb(b);
                auto fwd = coeff;
                tab.forward(fwd.data());
                EXPECT_EQ(fwd, fwd_ref)
                    << simd::backendName(b) << " forward differs, n=" << n
                    << " bits=" << bits;
                auto inv = fwd_ref;
                tab.inverse(inv.data());
                EXPECT_EQ(inv, coeff)
                    << simd::backendName(b) << " inverse differs, n=" << n
                    << " bits=" << bits;
            }
        }
    }
}

/** The input shapes of the exactness sweep, residues mod q. */
std::vector<std::pair<const char*, std::vector<u64>>>
nttInputs(size_t n, const Modulus& q)
{
    const u64 top = q.value() - 1;
    std::vector<u64> alternating(n), impulse(n, 0);
    for (size_t i = 0; i < n; ++i)
        alternating[i] = i % 2 ? top : 0;
    // Off index 0, so the impulse meets non-unit twiddles at every stage.
    impulse[n / 2 + 1] = 1;
    return {{"random", randomResidues(n, q, n + q.value())},
            {"zero", std::vector<u64>(n, 0)},
            {"q-1", std::vector<u64>(n, top)},
            {"alternating", alternating},
            {"impulse", impulse}};
}

/**
 * Exactness sweep of the fused FP transform and the integer path on
 * every runnable table against the scalar reference, forward and
 * inverse. Sizes run from 8 to 2^16, so both sides of the FP entry's
 * lanes^2 floor run (8 and 16 for AVX2, 32 and 64 for AVX-512), and so
 * do the chunked and whole-scratch radix-4 passes.
 * Widths: 28/33/45 bits never reduce mid-transform; 49 bits reduces
 * every third stage, which lands on both a pass's input and its middle
 * for both lane counts; the largest NTT prime below 2^50 reduces before
 * every stage after the first and before the inverse's exit multiply;
 * 53 bits takes the integer path.
 *
 * Kernel mutations checked against this case (each made in a copy of
 * the kernel, then this test run): a wrong broadcast twiddle index in
 * the in-register entry stages and a transposed block stored at
 * column + t instead of rev(column + t) both fail on random inputs at
 * every size and width the FP kernel takes; a ledger that never
 * reduces fails at 50 bits. Dropping only the mid-pass reduction
 * changes no output: the ledger's product bound keeps a 1.5x margin,
 * and one skipped reduction per pass leaves every value exact and the
 * exit canonical, so that guard is held by the ledger's proof (see
 * kernels_vec_inl.h), not by an output this test can see.
 */
TEST(SimdNtt, ExactnessSweepAcrossTablesSizesWidthsAndInputs)
{
    const auto tables = vectorTables();
    if (tables.empty())
        GTEST_SKIP() << "no vector table runnable on this host";
    const size_t max_n = size_t{1} << 16;
    for (unsigned bits : {28u, 33u, 45u, 49u, 50u, 53u}) {
        // Primes = 1 mod 2^17 serve every size; 50 scans down from 2^50.
        const Modulus q(generateNttPrimes(bits, max_n, 1)[0]);
        for (size_t n = 8; n <= max_n; n *= 2) {
            const NttTables tab(n, q);
            for (const auto& [shape, input] : nttInputs(n, q)) {
                auto fwd_ref = input;
                auto inv_ref = input;
                {
                    ScopedBackend sb(simd::Backend::Scalar);
                    tab.forward(fwd_ref.data());
                    tab.inverse(inv_ref.data());
                }
                for (const Table& t : tables) {
                    ScopedKernels sk(t.k);
                    auto fwd = input;
                    tab.forward(fwd.data());
                    ASSERT_EQ(fwd, fwd_ref) << t.label << " forward n=" << n
                                            << " bits=" << bits << " "
                                            << shape;
                    auto inv = input;
                    tab.inverse(inv.data());
                    ASSERT_EQ(inv, inv_ref) << t.label << " inverse n=" << n
                                            << " bits=" << bits << " "
                                            << shape;
                }
            }
        }
    }
}

/** forwardBatch/inverseBatch over 3 limbs must equal limb-by-limb
 *  forward()/inverse() on every table, on both sides of the FP domain. */
TEST(SimdNtt, BatchMatchesPerLimb)
{
    for (size_t n : {size_t{64}, size_t{2048}}) {
        for (unsigned bits : {45u, 50u, 53u}) {
            const Modulus q(generateNttPrimes(bits, n, 1)[0]);
            const NttTables tab(n, q);
            std::vector<std::vector<u64>> ref(3);
            for (size_t i = 0; i < ref.size(); ++i)
                ref[i] = randomResidues(n, q, 50 + i);

            for (const Table& t : vectorTables()) {
                ScopedKernels sk(t.k);
                for (bool inverse : {false, true}) {
                    auto per_limb = ref;
                    for (auto& limb : per_limb)
                        inverse ? tab.inverse(limb.data())
                                : tab.forward(limb.data());
                    auto batched = ref;
                    std::vector<u64*> ptrs;
                    for (auto& limb : batched)
                        ptrs.push_back(limb.data());
                    if (inverse)
                        tab.inverseBatch(ptrs.data(), ptrs.size());
                    else
                        tab.forwardBatch(ptrs.data(), ptrs.size());
                    EXPECT_EQ(batched, per_limb)
                        << t.label << (inverse ? " inverse" : " forward")
                        << " n=" << n << " bits=" << bits;
                }
            }
        }
    }
}

/**
 * The signed lift must match Modulus::fromSigned on every table at the
 * edges of both ranges: INT64_MIN (whose magnitude only fits unsigned),
 * INT64_MAX, 0, +-(q-1), +-q, and multiples k*q with their neighbours,
 * with n off the lane grid so the scalar tail runs too.
 */
TEST(SimdPointwise, FromSignedBitExactAtEdgeValues)
{
    for (unsigned bits : {30u, 45u, 53u, 61u}) {
        const Modulus q(generateNttPrimes(bits, 1 << 8, 1)[0]);
        const i64 qs = static_cast<i64>(q.value());
        std::vector<i64> v = {INT64_MIN, INT64_MAX, 0, qs - 1, -(qs - 1),
                              qs,        -qs,       1, -1};
        const i64 kmax = INT64_MAX / qs;
        for (i64 k : {i64{2}, i64{3}, i64{1000}, kmax}) {
            if (k > kmax)
                continue;
            const i64 kq = k * qs;
            for (i64 x : {kq - 1, kq, kq == INT64_MAX ? kq : kq + 1}) {
                v.push_back(x);
                v.push_back(-x);
            }
        }
        Prng rng(bits);
        while (v.size() < 61) // 61: not a multiple of 4 or 8
            v.push_back(static_cast<i64>(rng.next()));

        std::vector<u64> ref(v.size());
        simd::scalarKernels()->from_signed(ref.data(), v.data(), v.size(),
                                           q.value());
        for (size_t i = 0; i < v.size(); ++i)
            ASSERT_EQ(ref[i], q.fromSigned(v[i])) << "value " << v[i];
        for (const Table& t : vectorTables()) {
            std::vector<u64> out(v.size());
            t.k->from_signed(out.data(), v.data(), v.size(), q.value());
            EXPECT_EQ(out, ref) << t.label << " bits=" << bits;
            // In place, as callers lift a centered buffer over itself.
            std::vector<i64> inplace = v;
            t.k->from_signed(reinterpret_cast<u64*>(inplace.data()),
                             inplace.data(), inplace.size(), q.value());
            EXPECT_EQ(std::memcmp(inplace.data(), ref.data(),
                                  ref.size() * sizeof(u64)),
                      0)
                << t.label << " in place, bits=" << bits;
        }
    }
}

/**
 * Pointwise kernels compared table-against-table (no dispatch needed),
 * with n chosen off the lane grid so the scalar tail path runs too.
 */
TEST(SimdPointwise, BitExactIncludingTails)
{
    const size_t n = 1003; // not a multiple of 4 or 8: exercises tails
    // 30-50 bits: inside the IFMA52 domain (50 = the largest NTT primes
    // below 2^50); 61: the 64-bit bodies.
    for (unsigned bits : {30u, 45u, 50u, 61u}) {
        const Modulus q(generateNttPrimes(bits, 1 << 8, 1)[0]);
        auto a0 = randomResidues(n, q, 7 * bits);
        auto b0 = randomResidues(n, q, 9 * bits);
        // Edge lanes: equal operands, 0 - (q - 1), (q - 1) + (q - 1).
        a0[0] = b0[0];
        a0[1] = 0;
        b0[1] = q.value() - 1;
        a0[2] = b0[2] = q.value() - 1;
        const auto acc0 = randomResidues(n, q, 11 * bits);
        std::vector<u64> w(n), w_shoup(n);
        for (size_t i = 0; i < n; ++i) {
            w[i] = b0[i];
            w_shoup[i] = q.shoupPrecompute(w[i]);
        }
        const u64 ws = q.value() - 1; // the largest broadcast factor
        const u64 ws_pre = q.shoupPrecompute(ws);

        const simd::Kernels* S = simd::scalarKernels();
        const u64 inv = b0[1];
        const u64 inv_shoup = q.shoupPrecompute(inv);
        auto add_ref = a0;
        S->add_mod_vec(add_ref.data(), b0.data(), n, q.value());
        auto sub_ref = a0;
        S->sub_mod_vec(sub_ref.data(), b0.data(), n, q.value());
        std::vector<u64> down_ref(n);
        S->sub_mul_shoup(down_ref.data(), a0.data(), b0.data(), n, inv,
                         inv_shoup, q.value());
        for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(add_ref[i], q.add(a0[i], b0[i]));
            ASSERT_EQ(sub_ref[i], q.sub(a0[i], b0[i]));
            ASSERT_EQ(down_ref[i],
                      q.mulShoup(q.sub(a0[i], b0[i]), inv, inv_shoup));
        }
        auto mul_ref = a0;
        S->mul_mod_vec(mul_ref.data(), b0.data(), n, q);
        auto fma_ref = acc0;
        S->add_mul_mod_vec(fma_ref.data(), a0.data(), b0.data(), n, q);
        auto shoup_ref = a0;
        S->mul_shoup_vec(shoup_ref.data(), w.data(), w_shoup.data(), n,
                         q.value());
        std::vector<u64> bcast_ref(n);
        S->mul_shoup_scalar(bcast_ref.data(), a0.data(), n, ws, ws_pre,
                            q.value());

        for (const Table& t : vectorTables()) {
            const simd::Kernels* V = t.k;
            auto add = a0;
            V->add_mod_vec(add.data(), b0.data(), n, q.value());
            EXPECT_EQ(add, add_ref) << t.label << " bits=" << bits;
            auto sub = a0;
            V->sub_mod_vec(sub.data(), b0.data(), n, q.value());
            EXPECT_EQ(sub, sub_ref) << t.label << " bits=" << bits;
            auto down = a0; // in place: dst aliases x
            V->sub_mul_shoup(down.data(), down.data(), b0.data(), n, inv,
                             inv_shoup, q.value());
            EXPECT_EQ(down, down_ref) << t.label << " bits=" << bits;
            auto mul = a0;
            V->mul_mod_vec(mul.data(), b0.data(), n, q);
            EXPECT_EQ(mul, mul_ref) << t.label << " bits=" << bits;
            auto fma = acc0;
            V->add_mul_mod_vec(fma.data(), a0.data(), b0.data(), n, q);
            EXPECT_EQ(fma, fma_ref) << t.label << " bits=" << bits;
            auto shoup = a0;
            V->mul_shoup_vec(shoup.data(), w.data(), w_shoup.data(), n,
                             q.value());
            EXPECT_EQ(shoup, shoup_ref) << t.label << " bits=" << bits;
            std::vector<u64> bcast(n);
            V->mul_shoup_scalar(bcast.data(), a0.data(), n, ws, ws_pre,
                                q.value());
            EXPECT_EQ(bcast, bcast_ref) << t.label << " bits=" << bits;
        }
    }
}

/** Fast basis extension must be byte-identical under every backend. */
TEST(SimdBasis, ConvertBitExactAcrossBackends)
{
    const size_t n = 256;
    auto primes_from = generateNttPrimes(45, n, 4);
    auto primes_to = generateNttPrimes(46, n, 2, primes_from);
    std::vector<Modulus> from_m, to_m;
    for (u64 p : primes_from)
        from_m.emplace_back(p);
    for (u64 p : primes_to)
        to_m.emplace_back(p);
    RnsBasis from(std::move(from_m)), to(std::move(to_m));
    BasisConverter conv(from, to);

    std::vector<std::vector<u64>> in(from.size());
    std::vector<const u64*> in_ptrs;
    for (size_t i = 0; i < from.size(); ++i) {
        in[i] = randomResidues(n, from[i], 70 + i);
        in_ptrs.push_back(in[i].data());
    }

    auto run = [&](const simd::Kernels* K) {
        ScopedKernels sk(K);
        std::vector<std::vector<u64>> out(to.size(), std::vector<u64>(n));
        std::vector<u64*> out_ptrs;
        for (auto& limb : out)
            out_ptrs.push_back(limb.data());
        conv.convert(in_ptrs, n, out_ptrs);
        return out;
    };

    const auto ref = run(simd::scalarKernels());
    for (const Table& t : vectorTables())
        EXPECT_EQ(run(t.k), ref) << t.label;
}

/** (a * b) mod m in plain u128 arithmetic: the independent reference
 *  the lazy-accumulating kernels are checked against. */
u64
mulMod(u64 a, u64 b, u64 m)
{
    return static_cast<u64>(static_cast<u128>(a) * b % m);
}

/**
 * `count` distinct primes of `bits` bits avoiding `exclude`. 62 bits
 * (the Modulus cap, one past generateNttPrimes' NTT range) walks down
 * from just under 2^62.
 */
std::vector<u64>
kernelPrimes(unsigned bits, size_t count, std::vector<u64> exclude = {})
{
    if (bits <= 61)
        return generateNttPrimes(bits, 1 << 8, count, exclude);
    std::vector<u64> out;
    while (out.size() < count) {
        out.push_back(generateNttPrimeNear((1ULL << 62) - (1ULL << 40),
                                           1 << 8, exclude));
        exclude.push_back(out.back());
    }
    return out;
}

RnsBasis
basisOf(const std::vector<u64>& primes)
{
    std::vector<Modulus> mods;
    for (u64 p : primes)
        mods.emplace_back(p);
    return RnsBasis(std::move(mods));
}

/** The three NewLimb entry points' outputs for one converter call. */
struct NewLimbOutputs
{
    std::vector<std::vector<u64>> convert, limb, scaled;
    bool operator==(const NewLimbOutputs& o) const
    {
        return convert == o.convert && limb == o.limb && scaled == o.scaled;
    }
};

/** A NewLimb test shape: source and target prime widths. */
struct NewLimbShape
{
    std::vector<unsigned> from_bits;
    unsigned to_bits;
};

std::vector<NewLimbShape>
newLimbShapes()
{
    std::vector<NewLimbShape> out;
    // Uniform widths: inside the IFMA52 domain (30-49 bits and 2^50 - d,
    // the largest NTT primes below 2^50), just past it (53), and up to
    // the 2^62 cap, with k on both sides of the 16-product fold window.
    for (unsigned bits : {30u, 45u, 49u, 50u, 53u, 61u, 62u})
        for (size_t k : {size_t{1}, size_t{16}, size_t{17}})
            out.push_back({std::vector<unsigned>(k, bits), bits});
    // Mixed source widths, all narrow: the IFMA52 body runs.
    std::vector<unsigned> mixed;
    for (size_t i = 0; i < 17; ++i)
        mixed.push_back(std::vector<unsigned>{30, 45, 49, 50}[i % 4]);
    out.push_back({mixed, 50});
    // One wide source, or a wide target: the 64-bit body must run.
    out.push_back({{45, 53, 30}, 45});
    out.push_back({{45, 49, 30}, 53});
    return out;
}

std::string
widths(const std::vector<unsigned>& bits)
{
    std::string out;
    for (unsigned b : bits)
        out += std::to_string(b) + " ";
    return out;
}

/**
 * The whole-limb NewLimb kernel through every entry point (convert,
 * convertLimb, scaleSourceRaw + overshootRaw + accumulateScaledRaw), in
 * both modes, over the shapes above, n off the lane grid, and leading
 * coefficients whose scaled residues are all q_i - 1 (the largest
 * products, which overflow a 128-bit sum that skipped a fold at 62
 * bits). The scalar table must match a plain-u128 evaluation of
 * Equation (1); every vector table must match the scalar one.
 */
TEST(SimdBasis, NewLimbBitExactAcrossEntryPointsModesAndShapes)
{
    const size_t n = 203; // 203 % 8 == 3: vector tails run
    const size_t worst = 9;
    for (const NewLimbShape& shape : newLimbShapes()) {
        const size_t k = shape.from_bits.size();
        std::vector<u64> from_p;
        for (unsigned b : shape.from_bits)
            from_p.push_back(kernelPrimes(b, 1, from_p)[0]);
        const auto to_p = kernelPrimes(shape.to_bits, 3, from_p);
        const RnsBasis from = basisOf(from_p), to = basisOf(to_p);
        const BasisConverter conv(from, to);
        std::vector<std::vector<u64>> in(k);
        std::vector<const u64*> in_ptrs;
        for (size_t i = 0; i < k; ++i) {
            in[i] = randomResidues(n, from[i], 1000 * shape.to_bits + i);
            // x = (q_i - 1) * invPunctured^-1 scales to q_i - 1.
            const u64 x = from[i].mul(from_p[i] - 1,
                                      from[i].inverse(from.invPunctured(i)));
            std::fill(in[i].begin(), in[i].begin() + worst, x);
            in_ptrs.push_back(in[i].data());
        }
        const std::string where = "sources " + widths(shape.from_bits) +
                                  "target " + std::to_string(shape.to_bits);

        for (ConvMode mode : {ConvMode::SignedExact, ConvMode::Approx}) {
            const bool exact = mode == ConvMode::SignedExact;
            auto run = [&](const simd::Kernels* K) {
                ScopedKernels sk(K);
                NewLimbOutputs o;
                o.convert.assign(to.size(), std::vector<u64>(n));
                o.limb = o.scaled = o.convert;
                std::vector<u64*> out_ptrs;
                for (auto& limb : o.convert)
                    out_ptrs.push_back(limb.data());
                conv.convert(in_ptrs, n, out_ptrs, mode);
                std::vector<std::vector<u64>> sc(k, std::vector<u64>(n));
                std::vector<const u64*> sc_ptrs;
                for (size_t i = 0; i < k; ++i) {
                    conv.scaleSourceRaw(in[i].data(), n, i, sc[i].data());
                    sc_ptrs.push_back(sc[i].data());
                }
                std::vector<u64> us(n);
                conv.overshootRaw(sc_ptrs, n, us.data());
                for (size_t j = 0; j < to.size(); ++j) {
                    conv.convertLimb(in_ptrs, n, j, o.limb[j].data(), mode);
                    conv.accumulateScaledRaw(sc_ptrs,
                                             exact ? us.data() : nullptr, n,
                                             j, o.scaled[j].data());
                }
                return o;
            };
            const NewLimbOutputs ref = run(simd::scalarKernels());
            EXPECT_EQ(ref.limb, ref.convert);
            EXPECT_EQ(ref.scaled, ref.convert);

            // Plain-u128 Equation (1): scaled_i = x_i * (Q/q_i)^-1,
            // out = sum_i scaled_i * (Q/q_i) - us * Q, all mod p.
            std::vector<const u64*> sc_ptrs;
            std::vector<std::vector<u64>> sc(k, std::vector<u64>(n));
            for (size_t i = 0; i < k; ++i) {
                for (size_t c = 0; c < n; ++c)
                    sc[i][c] =
                        mulMod(in[i][c], from.invPunctured(i), from_p[i]);
                ASSERT_EQ(sc[i][0], from_p[i] - 1);
                sc_ptrs.push_back(sc[i].data());
            }
            std::vector<u64> us(n);
            {
                ScopedKernels sk(simd::scalarKernels());
                conv.overshootRaw(sc_ptrs, n, us.data());
            }
            for (size_t j = 0; j < to.size(); ++j) {
                const u64 p = to_p[j];
                for (size_t c = 0; c < n; ++c) {
                    u64 acc = 0;
                    for (size_t i = 0; i < k; ++i) {
                        u64 punct = 1;
                        for (size_t t = 0; t < k; ++t)
                            if (t != i)
                                punct = mulMod(punct, from_p[t] % p, p);
                        acc = (acc + mulMod(sc[i][c], punct, p)) % p;
                    }
                    if (exact) {
                        const u64 corr =
                            mulMod(us[c], from.productMod(to[j]), p);
                        acc = (acc + p - corr) % p;
                    }
                    ASSERT_EQ(ref.convert[j][c], acc)
                        << where << " j=" << j << " c=" << c
                        << " exact=" << exact;
                }
            }

            for (const Table& t : vectorTables())
                EXPECT_TRUE(run(t.k) == ref)
                    << t.label << " " << where << " exact=" << exact;
        }
    }
}

/**
 * The overshoot kernel against the long-double reference: random
 * scaled residues over widths and k, plus lanes built to sit within
 * the vector body's error margin of an integer. At k = 1 and a 61-bit
 * q, x = (q - 1) / 2 puts the exact sum 0.5 + x / q at 1 - 1/(2q): the
 * long double keeps it below 1 (us = 0) while the double estimate
 * rounds to 1, so only the long-double fallback gets these lanes
 * right; x = (q + 1) / 2 is the mirror case just above 1.
 */
TEST(SimdBasis, OvershootMatchesLongDoubleReference)
{
    const size_t n = 203;
    for (unsigned bits : {30u, 45u, 61u, 62u}) {
        for (size_t k : {size_t{1}, size_t{3}, size_t{16}, size_t{17}}) {
            const auto primes = kernelPrimes(bits, k);
            std::vector<std::vector<u64>> x(k);
            std::vector<const u64*> xp;
            std::vector<double> inv(k);
            std::vector<long double> inv_ld(k);
            for (size_t i = 0; i < k; ++i) {
                x[i] = randomResidues(n, Modulus(primes[i]), 77 * bits + i);
                xp.push_back(x[i].data());
                inv[i] = 1.0 / static_cast<double>(primes[i]);
                inv_ld[i] = 1.0L / static_cast<long double>(primes[i]);
            }
            if (k == 1) {
                for (size_t c = 0; c < 24; c += 2) {
                    x[0][c] = (primes[0] - 1) / 2;
                    x[0][c + 1] = (primes[0] + 1) / 2;
                }
            }
            std::vector<u64> ref(n);
            simd::scalarKernels()->overshoot(xp.data(), k, inv.data(),
                                             inv_ld.data(), n, ref.data());
            if (k == 1 && bits >= 61) {
                ASSERT_EQ(ref[0], 0u);
                ASSERT_EQ(ref[1], 1u);
                EXPECT_EQ(std::floor(std::fma(static_cast<double>(x[0][0]),
                                              inv[0], 0.5)),
                          1.0)
                    << "the double estimate alone would get lane 0 right";
            }
            for (const Table& t : vectorTables()) {
                std::vector<u64> got(n);
                t.k->overshoot(xp.data(), k, inv.data(), inv_ld.data(), n,
                               got.data());
                EXPECT_EQ(got, ref)
                    << t.label << " bits=" << bits << " k=" << k;
            }
        }
    }
}

/**
 * The key-switch MAC kernel, with and without the merged P-lift, over
 * digit counts on both sides of the 16-term fold window and n off the
 * lane grid: scalar against plain u128, every vector table against
 * scalar byte for byte. The first coefficients hold q - 1 everywhere,
 * so at 62 bits 17 products overflow a 128-bit sum that skipped a fold.
 */
TEST(SimdMac, BitExactIncludingTails)
{
    const size_t n = 1003;
    const size_t worst = 12; // leading all-(q - 1) coefficients
    for (unsigned bits : {30u, 45u, 49u, 50u, 53u, 61u, 62u}) {
        const Modulus q(kernelPrimes(bits, 1)[0]);
        const simd::Fold128 fold = simd::foldFor(q);
        for (size_t terms : {size_t{1}, size_t{3}, size_t{16}, size_t{17}}) {
            std::vector<std::vector<u64>> d, b, a;
            std::vector<const u64*> dp, bp, ap;
            for (size_t j = 0; j < terms; ++j) {
                d.push_back(randomResidues(n, q, 3 * j + 1));
                b.push_back(randomResidues(n, q, 3 * j + 2));
                a.push_back(randomResidues(n, q, 3 * j + 3));
                for (auto* limb : {&d[j], &b[j], &a[j]})
                    std::fill(limb->begin(), limb->begin() + worst,
                              q.value() - 1);
                dp.push_back(d[j].data());
                bp.push_back(b[j].data());
                ap.push_back(a[j].data());
            }
            auto l0 = randomResidues(n, q, 501);
            auto l1 = randomResidues(n, q, 502);
            std::fill(l0.begin(), l0.begin() + worst, q.value() - 1);
            std::fill(l1.begin(), l1.begin() + worst, q.value() - 1);
            const u64 w = q.value() - 1;
            for (bool lift : {false, true}) {
                auto run = [&](const simd::Kernels* K) {
                    std::vector<u64> u(n), v(n);
                    K->mac(dp.data(), bp.data(), ap.data(), terms,
                           lift ? l0.data() : nullptr,
                           lift ? l1.data() : nullptr, lift ? w : 0, n, fold,
                           u.data(), v.data());
                    return std::make_pair(u, v);
                };
                const auto ref = run(simd::scalarKernels());
                for (size_t c = 0; c < n; ++c) {
                    u64 eu = lift ? mulMod(l0[c], w, q.value()) : 0;
                    u64 ev = lift ? mulMod(l1[c], w, q.value()) : 0;
                    for (size_t j = 0; j < terms; ++j) {
                        eu = q.add(eu, mulMod(d[j][c], b[j][c], q.value()));
                        ev = q.add(ev, mulMod(d[j][c], a[j][c], q.value()));
                    }
                    ASSERT_EQ(ref.first[c], eu) << "bits=" << bits
                                                << " terms=" << terms;
                    ASSERT_EQ(ref.second[c], ev) << "bits=" << bits
                                                 << " terms=" << terms;
                }
                // u and v may overwrite digit limbs they read.
                std::vector<Table> tables = {{simd::scalarKernels(), "scalar"}};
                for (const Table& t : vectorTables())
                    tables.push_back(t);
                for (const Table& t : tables) {
                    const simd::Kernels* K = t.k;
                    auto d0 = d[0];
                    auto dl = d[terms - 1];
                    std::vector<const u64*> dq = dp;
                    dq[0] = d0.data();
                    dq[terms - 1] = dl.data();
                    std::vector<u64> v(n);
                    u64* out_u = d0.data();
                    u64* out_v = terms > 1 ? dl.data() : v.data();
                    K->mac(dq.data(), bp.data(), ap.data(), terms,
                           lift ? l0.data() : nullptr,
                           lift ? l1.data() : nullptr, lift ? w : 0, n, fold,
                           out_u, out_v);
                    EXPECT_TRUE(std::equal(out_u, out_u + n,
                                           ref.first.begin()))
                        << t.label << " aliased u, terms=" << terms;
                    EXPECT_TRUE(std::equal(out_v, out_v + n,
                                           ref.second.begin()))
                        << t.label << " aliased v, terms=" << terms;
                }
                for (const Table& t : vectorTables()) {
                    const auto got = run(t.k);
                    EXPECT_EQ(std::memcmp(got.first.data(), ref.first.data(),
                                          n * sizeof(u64)),
                              0)
                        << t.label << " bits=" << bits << " terms=" << terms
                        << " lift=" << lift;
                    EXPECT_EQ(std::memcmp(got.second.data(),
                                          ref.second.data(), n * sizeof(u64)),
                              0)
                        << t.label << " bits=" << bits << " terms=" << terms
                        << " lift=" << lift;
                }
            }
        }
    }
}

/**
 * The fused FP transform must refuse inputs outside its proven domain
 * (q >= 2^50, or rings smaller than one lanes x lanes column group of
 * its transposing entry) so the caller falls back to the integer path
 * instead of silently losing exactness.
 */
TEST(SimdFp, TransformRejectsOutOfDomainInputs)
{
    for (const Table& t : vectorTables()) {
        const simd::Kernels* V = t.k;
        ASSERT_NE(V->fp_transform, nullptr) << t.label;
        const size_t smallest = V->lanes * V->lanes;
        std::vector<u64> buf(smallest, 0);
        // 54-bit modulus: the 2^53 error-free multiply budget is gone.
        EXPECT_FALSE(V->fp_transform(buf.data(), smallest, nullptr, nullptr,
                                     (1ULL << 54) + 1))
            << t.label;
        // Rings below lanes^2 cannot fill the entry's W x W transpose.
        EXPECT_FALSE(V->fp_transform(buf.data(), smallest / 2, nullptr,
                                     nullptr, (1ULL << 45) + 1))
            << t.label;
        EXPECT_FALSE(V->fp_transform(buf.data(), V->lanes, nullptr, nullptr,
                                     (1ULL << 45) + 1))
            << t.label;
    }
}

/**
 * The rns.ntt_fwd fault site must keep firing when the fused SIMD path
 * handles the transform — the guard hooks the batch entry points, not
 * the scalar stage loop, so arming a fault under MADFHE_SIMD=auto (or
 * any vector backend) still lands a bit flip in the produced limb.
 */
TEST(SimdFault, NttInjectionFiresUnderVectorBackends)
{
    const size_t n = 1024;
    const Modulus q(generateNttPrimes(45, n, 1)[0]);
    const NttTables tab(n, q);
    const auto coeff = randomResidues(n, q, 99);

    auto clean = coeff;
    {
        ScopedBackend sb(simd::Backend::Scalar);
        tab.forward(clean.data());
    }

    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    for (simd::Backend b : vectorBackends())
        all.push_back(b);
    for (simd::Backend b : all) {
        ScopedBackend sb(b);
        // arm() zeroes the per-arm fired counter, so == 1 after one
        // forward proves this arming (not a previous one) fired.
        faultinject::arm({"rns.ntt_fwd", 0, faultinject::Kind::BitFlip, 3});
        auto buf = coeff;
        tab.forward(buf.data());
        faultinject::disarm();
        EXPECT_EQ(faultinject::firedCount(), 1u) << simd::backendName(b);
        EXPECT_NE(buf, clean)
            << simd::backendName(b) << ": armed bit flip left no trace";
    }
}

/**
 * Satellite: seed-compressed ciphertext expansion. The c1 component is
 * regenerated from a 32-byte PRNG seed on the receiving side, so both
 * halves of the wire must derive bit-identical polynomials no matter
 * which SIMD backend or thread count they run — this test rebuilds the
 * whole stack per configuration (all sampling is seeded from
 * params.seed) and compares every limb byte-for-byte.
 */
TEST(SimdSeeded, CiphertextExpansionBitExactAcrossBackendsAndThreads)
{
    CkksParams params;
    params.log_n = 10;
    params.log_scale = 30;
    params.first_prime_bits = 40;
    params.num_levels = 3;

    struct Snapshot
    {
        std::vector<std::vector<u64>> c0, c1;
        double scale;
    };
    auto run = [&](simd::Backend b, size_t threads) {
        ScopedBackend sb(b);
        ThreadPool::setGlobalThreads(threads);
        auto ctx = std::make_shared<CkksContext>(params);
        CkksEncoder encoder(ctx);
        KeyGenerator keygen(ctx);
        SecretKey sk = keygen.secretKey();
        Encryptor enc(ctx, keygen.publicKey(sk));
        auto slots = test::randomSlots(ctx->slots(), 21);
        Plaintext pt = encoder.encode(slots, ctx->scale(), ctx->maxLevel());
        SeededCiphertext sct = enc.encryptSymmetricSeeded(pt, sk);
        Ciphertext ct = expandSeeded(*ctx, sct);
        Snapshot s;
        s.scale = ct.scale;
        for (size_t i = 0; i < ct.c0.numLimbs(); ++i) {
            s.c0.emplace_back(ct.c0.limb(i), ct.c0.limb(i) + ct.c0.degree());
            s.c1.emplace_back(ct.c1.limb(i), ct.c1.limb(i) + ct.c1.degree());
        }
        ThreadPool::setGlobalThreads(ThreadPool::defaultThreads());
        return s;
    };

    const Snapshot ref = run(simd::Backend::Scalar, 1);
    std::vector<simd::Backend> all = {simd::Backend::Scalar};
    for (simd::Backend b : vectorBackends())
        all.push_back(b);
    for (simd::Backend b : all) {
        for (size_t threads : {size_t{1}, size_t{4}}) {
            if (b == simd::Backend::Scalar && threads == 1)
                continue;
            const Snapshot got = run(b, threads);
            EXPECT_EQ(got.c1, ref.c1)
                << simd::backendName(b) << " threads=" << threads
                << ": reconstructed c1 not byte-identical";
            EXPECT_EQ(got.c0, ref.c0)
                << simd::backendName(b) << " threads=" << threads;
            EXPECT_EQ(got.scale, ref.scale);
        }
    }
}

} // namespace
} // namespace madfhe
