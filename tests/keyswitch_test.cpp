/**
 * @file
 * Key-switching internals: Decomp/ModUp/KSKInnerProd/ModDown (Algorithms
 * 1-3), PModUp (Algorithm 5), and the merged ModDown, each checked against
 * its algebraic contract.
 */
#include <gtest/gtest.h>

#include <array>
#include <thread>

#include "ckks/stream.h"
#include "rns/simd/simd.h"
#include "support/threadpool.h"
#include "test_util.h"

namespace madfhe {
namespace {

using test::CkksHarness;
using test::maxError;
using test::randomSlots;

class KeySwitchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        h = std::make_unique<CkksHarness>(CkksParams::unitTest());
    }
    std::unique_ptr<CkksHarness> h;
};

TEST_F(KeySwitchTest, DigitCountMatchesBeta)
{
    const auto& ksw = h->eval->keySwitcher();
    for (size_t level = 1; level <= h->ctx->maxLevel(); ++level) {
        RnsPoly x(h->ctx->ring(), h->ctx->ring()->qIndices(level), Rep::Eval);
        auto digits = ksw.decomposeAndRaise(x);
        EXPECT_EQ(digits.size(), h->ctx->numDigits(level))
            << "level " << level;
        for (const auto& d : digits) {
            EXPECT_EQ(d.numLimbs(), level + h->ctx->ring()->numP());
            EXPECT_EQ(d.rep(), Rep::Eval);
        }
    }
}

TEST_F(KeySwitchTest, PModUpThenModDownIsIdentityUpToRounding)
{
    // modDown(pModUp(y)) = y exactly up to the +-1 rounding of the
    // division by P (P * y is exactly divisible, so it is exact here).
    auto v = randomSlots(h->ctx->slots(), 1);
    auto ct = h->encryptSlots(v, 3);
    const auto& ksw = h->eval->keySwitcher();
    RnsPoly lifted = ksw.pModUp(ct.c0);
    RnsPoly back = ksw.modDown(lifted);
    EXPECT_TRUE(back.equals(ct.c0));
}

TEST_F(KeySwitchTest, PModUpPLimbsAreZero)
{
    auto v = randomSlots(h->ctx->slots(), 2);
    auto ct = h->encryptSlots(v, 2);
    RnsPoly lifted = h->eval->keySwitcher().pModUp(ct.c0);
    size_t level = 2;
    for (size_t i = level; i < lifted.numLimbs(); ++i)
        for (size_t c = 0; c < lifted.degree(); ++c)
            ASSERT_EQ(lifted.limb(i)[c], 0u);
}

TEST_F(KeySwitchTest, KeySwitchProducesEncryptionOfXTimesSFrom)
{
    // Build a ksk for a known s_from (= sigma_5(s)) and check
    // u + v*s ~ x * s_from for random x.
    KeyGenerator keygen(h->ctx);
    const u64 t = 5;
    SwitchingKey ksk = keygen.galoisKey(h->sk, t);
    const size_t level = 3;
    auto basis = h->ctx->ring()->qIndices(level);

    // Random "ciphertext part" x, small coefficients to keep the check
    // numeric-friendly.
    Sampler s(99);
    RnsPoly x(h->ctx->ring(), basis, Rep::Coeff);
    x.setFromSigned(s.centeredBinomial(h->ctx->degree()));
    x.toEval();

    auto [u, v] = h->eval->keySwitcher().keySwitch(x, ksk);

    RnsPoly s_q = extractLimbs(h->sk.s, basis);
    RnsPoly s_from = s_q.automorph(t);

    // lhs = u + v*s ; rhs = x * s_from; difference must be tiny.
    RnsPoly lhs = v;
    lhs.mulPointwise(s_q);
    lhs.add(u);
    RnsPoly rhs = x;
    rhs.mulPointwise(s_from);
    lhs.sub(rhs);
    lhs.toCoeff();

    auto err = CkksEncoder(h->ctx).decodeCoefficients(lhs);
    double max_err = 0;
    for (double e : err)
        max_err = std::max(max_err, std::abs(e));
    // Key-switch noise is far below one scale unit.
    EXPECT_LT(max_err, 1e9); // |err| << q_0 ~ 2^45 and << Delta = 2^35
    EXPECT_GT(max_err, 0.0); // but it is not exactly zero (there IS noise)
}

TEST_F(KeySwitchTest, MergedModDownEqualsModDownThenRescale)
{
    // On an exact multiple of P, merged ModDown must equal
    // rescale(modDown(x)) up to the +-1 rounding in each step.
    auto vv = randomSlots(h->ctx->slots(), 3);
    auto ct = h->encryptSlots(vv, 3);
    const auto& ksw = h->eval->keySwitcher();

    RnsPoly raised = ksw.pModUp(ct.c0);
    RnsPoly merged = ksw.modDownMerged(raised);

    RnsPoly down = ksw.modDown(raised);
    // Reference rescale of `down` by its top limb.
    Ciphertext tmp;
    tmp.c0 = down;
    tmp.c1 = down;
    tmp.scale = h->ctx->scale();
    Ciphertext rs = h->eval->rescale(tmp);

    // Compare coefficient-wise: difference at most 1 (rounding).
    RnsPoly diff = merged;
    diff.sub(rs.c0);
    diff.toCoeff();
    for (size_t i = 0; i < diff.numLimbs(); ++i) {
        const Modulus& q = diff.modulus(i);
        for (size_t c = 0; c < diff.degree(); ++c) {
            i64 d = q.toSigned(diff.limb(i)[c]);
            ASSERT_LE(std::abs(d), 1) << "limb " << i << " coeff " << c;
        }
    }
}

TEST_F(KeySwitchTest, InnerProductRejectsTooManyDigits)
{
    KeyGenerator keygen(h->ctx);
    SwitchingKey rlk = keygen.relinKey(h->sk);
    const auto& ksw = h->eval->keySwitcher();
    RnsPoly x(h->ctx->ring(), h->ctx->ring()->qIndices(h->ctx->maxLevel()),
              Rep::Eval);
    auto digits = ksw.decomposeAndRaise(x);
    digits.push_back(digits[0]);
    EXPECT_THROW(ksw.innerProduct(digits, rlk), std::invalid_argument);
}

/** Restore the global pool size when a sweep test exits. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t t)
        : prev(ThreadPool::global().size())
    {
        ThreadPool::setGlobalThreads(t);
    }
    ~ScopedThreads() { ThreadPool::setGlobalThreads(prev); }

  private:
    size_t prev;
};

TEST_F(KeySwitchTest, KeySwitchByteIdenticalAcrossStreamPolicies)
{
    // The tentpole contract: every MADFHE_STREAM policy produces the
    // exact same bytes as the materializing composition, at every level
    // (incl. level 1, where a single digit has no non-own Q limbs) and
    // at every thread count (chunk boundaries shift with the pool size).
    KeyGenerator keygen(h->ctx);
    SwitchingKey ksk = keygen.galoisKey(h->sk, 5);
    const auto& ksw = h->eval->keySwitcher();
    for (size_t level = 1; level <= h->ctx->maxLevel(); ++level) {
        Sampler s(1000 + level);
        RnsPoly x(h->ctx->ring(), h->ctx->ring()->qIndices(level),
                  Rep::Coeff);
        x.setFromSigned(s.centeredBinomial(h->ctx->degree()));
        x.toEval();

        RnsPoly ref_u, ref_v;
        {
            ScopedStreamPolicy off(StreamPolicy::Off);
            auto [u, v] = ksw.keySwitch(x, ksk);
            ref_u = std::move(u);
            ref_v = std::move(v);
        }
        for (StreamPolicy p : kStreamPolicies) {
            for (size_t threads : {size_t{1}, size_t{4}}) {
                ScopedThreads st(threads);
                ScopedStreamPolicy sp(p);
                auto [u, v] = ksw.keySwitch(x, ksk);
                EXPECT_TRUE(u.equals(ref_u))
                    << "u diverges: policy " << streamPolicyName(p)
                    << " level " << level << " threads " << threads;
                EXPECT_TRUE(v.equals(ref_v))
                    << "v diverges: policy " << streamPolicyName(p)
                    << " level " << level << " threads " << threads;
            }
        }
    }
}

TEST_F(KeySwitchTest, KeySwitchMergedByteIdenticalAcrossStreamPolicies)
{
    // Same sweep for the Mult tail (merged ModDown + fused P-lift).
    const auto& ksw = h->eval->keySwitcher();
    for (size_t level = 2; level <= h->ctx->maxLevel(); ++level) {
        Sampler s(2000 + level);
        auto basis = h->ctx->ring()->qIndices(level);
        RnsPoly d2(h->ctx->ring(), basis, Rep::Coeff);
        d2.setFromSigned(s.centeredBinomial(h->ctx->degree()));
        d2.toEval();
        RnsPoly d0(h->ctx->ring(), basis, Rep::Coeff);
        d0.setFromSigned(s.centeredBinomial(h->ctx->degree()));
        d0.toEval();
        RnsPoly d1(h->ctx->ring(), basis, Rep::Coeff);
        d1.setFromSigned(s.centeredBinomial(h->ctx->degree()));
        d1.toEval();

        RnsPoly ref_u, ref_v;
        {
            ScopedStreamPolicy off(StreamPolicy::Off);
            auto [u, v] = ksw.keySwitchMerged(d2, h->rlk, d0, d1);
            ref_u = std::move(u);
            ref_v = std::move(v);
        }
        for (StreamPolicy p : kStreamPolicies) {
            for (size_t threads : {size_t{1}, size_t{4}}) {
                ScopedThreads st(threads);
                ScopedStreamPolicy sp(p);
                auto [u, v] = ksw.keySwitchMerged(d2, h->rlk, d0, d1);
                EXPECT_TRUE(u.equals(ref_u))
                    << "u diverges: policy " << streamPolicyName(p)
                    << " level " << level << " threads " << threads;
                EXPECT_TRUE(v.equals(ref_v))
                    << "v diverges: policy " << streamPolicyName(p)
                    << " level " << level << " threads " << threads;
            }
        }
    }
}

/** Select a SIMD backend; the previous one comes back on scope exit. */
class ScopedKernels
{
  public:
    explicit ScopedKernels(const simd::Kernels* k) : prev(&simd::kernels())
    {
        simd::setKernels(k);
    }
    ~ScopedKernels() { simd::setKernels(prev); }

  private:
    const simd::Kernels* prev;
};

/** Plain (u, v) then merged (u, v): the four polynomials one key-switch
 *  configuration produces for the backend/policy/thread sweeps. */
using SwitchOutputs = std::array<RnsPoly, 4>;

SwitchOutputs
switchBoth(const KeySwitcher& ksw, const RnsPoly& x, const SwitchingKey& ksk,
           const SwitchingKey& rlk, const RnsPoly& d0, const RnsPoly& d1)
{
    auto [u, v] = ksw.keySwitch(x, ksk);
    auto [mu, mv] = ksw.keySwitchMerged(x, rlk, d0, d1);
    return {std::move(u), std::move(v), std::move(mu), std::move(mv)};
}

RnsPoly
samplePoly(const CkksContext& ctx, size_t level, Sampler& s)
{
    RnsPoly p(ctx.ring(), ctx.ring()->qIndices(level), Rep::Coeff);
    p.setFromSigned(s.centeredBinomial(ctx.degree()));
    p.toEval();
    return p;
}

TEST_F(KeySwitchTest, KeySwitchByteIdenticalAcrossBackends)
{
    // The scalar kernel table under the materializing Off composition at
    // one thread is the reference. Every runnable table must reproduce
    // it byte for byte under every stream policy, at 1 and 4 threads,
    // for the plain and the merged key switch: scalar, AVX2, and AVX-512
    // with both its 64-bit and its IFMA52 kernel bodies (the unit
    // parameters' 35- and 45-bit moduli are inside the IFMA52 domain).
    KeyGenerator keygen(h->ctx);
    SwitchingKey ksk = keygen.galoisKey(h->sk, 5);
    const auto& ksw = h->eval->keySwitcher();
    std::vector<std::pair<const simd::Kernels*, const char*>> tables;
    for (auto t : {std::make_pair(simd::scalarKernels(), "scalar"),
                   std::make_pair(simd::avx2Kernels(), "avx2"),
                   std::make_pair(simd::avx512NoIfmaKernels(), "avx512"),
                   std::make_pair(simd::avx512IfmaKernels(), "avx512+ifma")})
        if (t.first != nullptr)
            tables.push_back(t);
    for (size_t level = 2; level <= h->ctx->maxLevel(); ++level) {
        Sampler s(3000 + level);
        const RnsPoly x = samplePoly(*h->ctx, level, s);
        const RnsPoly d0 = samplePoly(*h->ctx, level, s);
        const RnsPoly d1 = samplePoly(*h->ctx, level, s);
        SwitchOutputs ref;
        {
            ScopedKernels sk(simd::scalarKernels());
            ScopedStreamPolicy off(StreamPolicy::Off);
            ScopedThreads st(1);
            ref = switchBoth(ksw, x, ksk, h->rlk, d0, d1);
        }
        for (const auto& [table, label] : tables) {
            for (StreamPolicy p : kStreamPolicies) {
                for (size_t threads : {size_t{1}, size_t{4}}) {
                    ScopedKernels sk(table);
                    ScopedStreamPolicy sp(p);
                    ScopedThreads st(threads);
                    const SwitchOutputs got =
                        switchBoth(ksw, x, ksk, h->rlk, d0, d1);
                    for (size_t k = 0; k < got.size(); ++k)
                        EXPECT_TRUE(got[k].equals(ref[k]))
                            << "output " << k << " diverges: backend "
                            << label << " policy "
                            << streamPolicyName(p) << " level " << level
                            << " threads " << threads;
                }
            }
        }
    }
}

TEST_F(KeySwitchTest, ConcurrentFirstKeySwitchesOnFreshContextAgree)
{
    // On a fresh context the first key switch at each level fills the
    // context's ModUp/ModDown converter caches. Four threads doing that
    // at once for every level from 2 up (the merged switch needs two
    // limbs), each starting at a different level, must neither crash
    // nor disagree with a serial rerun on the warm caches.
    auto ctx = std::make_shared<CkksContext>(CkksParams::unitTest());
    KeyGenerator keygen(ctx);
    const SecretKey sk = keygen.secretKey();
    const SwitchingKey ksk = keygen.galoisKey(sk, 5);
    const SwitchingKey rlk = keygen.relinKey(sk);
    const KeySwitcher ksw(ctx);
    const size_t levels = ctx->maxLevel();
    std::vector<std::array<RnsPoly, 3>> in(levels + 1);
    for (size_t level = 2; level <= levels; ++level) {
        Sampler s(4000 + level);
        for (RnsPoly& p : in[level])
            p = samplePoly(*ctx, level, s);
    }

    constexpr size_t kThreads = 4;
    std::vector<std::vector<SwitchOutputs>> got(
        kThreads, std::vector<SwitchOutputs>(levels + 1));
    {
        ScopedThreads st(kThreads);
        std::vector<std::thread> threads;
        for (size_t t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                for (size_t k = 0; k + 1 < levels; ++k) {
                    const size_t level = 2 + (k + t) % (levels - 1);
                    const auto& [x, d0, d1] = in[level];
                    got[t][level] = switchBoth(ksw, x, ksk, rlk, d0, d1);
                }
            });
        }
        for (std::thread& th : threads)
            th.join();
    }
    for (size_t level = 2; level <= levels; ++level) {
        const auto& [x, d0, d1] = in[level];
        const SwitchOutputs ref = switchBoth(ksw, x, ksk, rlk, d0, d1);
        for (size_t t = 0; t < kThreads; ++t)
            for (size_t k = 0; k < ref.size(); ++k)
                EXPECT_TRUE(got[t][level][k].equals(ref[k]))
                    << "thread " << t << " level " << level << " output "
                    << k;
    }
}

TEST_F(KeySwitchTest, ScopedStreamPolicyRestores)
{
    const StreamPolicy before = streamPolicy();
    {
        ScopedStreamPolicy sp(StreamPolicy::Fuse);
        EXPECT_EQ(streamPolicy(), StreamPolicy::Fuse);
        {
            ScopedStreamPolicy inner(StreamPolicy::Off);
            EXPECT_EQ(streamPolicy(), StreamPolicy::Off);
        }
        EXPECT_EQ(streamPolicy(), StreamPolicy::Fuse);
    }
    EXPECT_EQ(streamPolicy(), before);
}

TEST_F(KeySwitchTest, LowLevelCiphertextUsesFewerDigits)
{
    // At level <= alpha only one digit should be produced, and key
    // switching must still be correct end to end (via Rotate).
    auto v = randomSlots(h->ctx->slots(), 4);
    size_t level = h->ctx->alpha(); // exactly one digit
    auto ct = h->encryptSlots(v, level);
    auto gks = h->makeGaloisKeys({1});
    auto w = h->decryptSlots(h->eval->rotate(ct, 1, gks));
    const size_t slots = h->ctx->slots();
    for (size_t k = 0; k < slots; ++k)
        EXPECT_LT(std::abs(w[k] - v[(k + 1) % slots]), 1e-4);
}

} // namespace
} // namespace madfhe
