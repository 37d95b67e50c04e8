/**
 * @file
 * End-to-end CKKS scheme tests: every Table 2 primitive against its
 * plaintext reference, scale/level bookkeeping, and equivalence of the
 * MAD algorithmic variants (merged ModDown, hoisting) with the naive
 * implementations.
 */
#include <gtest/gtest.h>

#include <ostream>

#include "test_util.h"

namespace madfhe {
namespace {

using test::CkksHarness;
using test::maxError;
using test::randomSlots;

class CkksTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        h = std::make_unique<CkksHarness>(CkksParams::unitTest());
    }
    std::unique_ptr<CkksHarness> h;
};

TEST_F(CkksTest, EncryptDecryptRoundTrip)
{
    auto v = randomSlots(h->ctx->slots(), 1);
    auto ct = h->encryptSlots(v, h->ctx->maxLevel());
    auto w = h->decryptSlots(ct);
    EXPECT_LT(maxError(v, w), 1e-5);
}

TEST_F(CkksTest, SymmetricEncryption)
{
    auto v = randomSlots(h->ctx->slots(), 2);
    Plaintext pt = h->encoder->encode(v, h->ctx->scale(), 3);
    Ciphertext ct = h->encryptor->encryptSymmetric(pt, h->sk);
    EXPECT_LT(maxError(v, h->decryptSlots(ct)), 1e-5);
}

TEST_F(CkksTest, EncryptZero)
{
    Ciphertext ct = h->encryptor->encryptZero(2, h->ctx->scale());
    auto w = h->decryptSlots(ct);
    for (auto z : w)
        EXPECT_LT(std::abs(z), 1e-5);
}

TEST_F(CkksTest, AddSubNegate)
{
    auto a = randomSlots(h->ctx->slots(), 3);
    auto b = randomSlots(h->ctx->slots(), 4);
    auto ca = h->encryptSlots(a, 3);
    auto cb = h->encryptSlots(b, 3);

    auto sum = h->decryptSlots(h->eval->add(ca, cb));
    auto diff = h->decryptSlots(h->eval->sub(ca, cb));
    auto neg = h->decryptSlots(h->eval->negate(ca));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-5);
        EXPECT_LT(std::abs(diff[i] - (a[i] - b[i])), 1e-5);
        EXPECT_LT(std::abs(neg[i] + a[i]), 1e-5);
    }
}

TEST_F(CkksTest, PtAddPtSub)
{
    auto a = randomSlots(h->ctx->slots(), 5);
    auto b = randomSlots(h->ctx->slots(), 6);
    auto ca = h->encryptSlots(a, 2);
    Plaintext pb = h->encoder->encode(b, ca.scale, 2);

    auto sum = h->decryptSlots(h->eval->addPlain(ca, pb));
    auto diff = h->decryptSlots(h->eval->subPlain(ca, pb));
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_LT(std::abs(sum[i] - (a[i] + b[i])), 1e-5);
        EXPECT_LT(std::abs(diff[i] - (a[i] - b[i])), 1e-5);
    }
}

TEST_F(CkksTest, PtMultWithRescale)
{
    auto a = randomSlots(h->ctx->slots(), 7);
    auto b = randomSlots(h->ctx->slots(), 8);
    auto ca = h->encryptSlots(a, 3);
    Plaintext pb = h->encoder->encode(b, h->ctx->scale(), 3);
    Ciphertext prod = h->eval->mulPlainRescale(ca, pb);
    EXPECT_EQ(prod.level(), 2u);
    auto w = h->decryptSlots(prod);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - a[i] * b[i]), 1e-4);
}

TEST_F(CkksTest, MultEncryptedWithMergedModDown)
{
    auto a = randomSlots(h->ctx->slots(), 9);
    auto b = randomSlots(h->ctx->slots(), 10);
    auto ca = h->encryptSlots(a, 3);
    auto cb = h->encryptSlots(b, 3);
    Ciphertext prod = h->eval->mul(ca, cb, h->rlk);
    EXPECT_EQ(prod.level(), 2u);
    auto w = h->decryptSlots(prod);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - a[i] * b[i]), 1e-4);
}

TEST_F(CkksTest, MergedAndUnmergedMultAgree)
{
    CkksHarness plain_h(CkksParams::unitTest(),
                        EvalOptions{.merged_moddown = false});
    auto a = randomSlots(h->ctx->slots(), 11);
    auto b = randomSlots(h->ctx->slots(), 12);

    auto ca = h->encryptSlots(a, 4);
    auto cb = h->encryptSlots(b, 4);
    auto merged = h->decryptSlots(h->eval->mul(ca, cb, h->rlk));

    Evaluator unmerged_eval(h->ctx, EvalOptions{.merged_moddown = false});
    auto unmerged_ct = unmerged_eval.mul(ca, cb, h->rlk);
    auto unmerged = h->decryptSlots(unmerged_ct);

    // Same inputs, same keys: both variants must agree to within noise.
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(merged[i] - unmerged[i]), 1e-5);
}

TEST_F(CkksTest, SquareMatchesMul)
{
    auto a = randomSlots(h->ctx->slots(), 13);
    auto ca = h->encryptSlots(a, 3);
    auto w = h->decryptSlots(h->eval->square(ca, h->rlk));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - a[i] * a[i]), 1e-4);
}

TEST_F(CkksTest, DepthChainUsesAllLevels)
{
    // x^(2^depth) by repeated squaring until one limb remains.
    const size_t slots = h->ctx->slots();
    std::vector<std::complex<double>> a(slots, {0.9, 0.0});
    auto ct = h->encryptSlots(a, h->ctx->maxLevel());
    double expect = 0.9;
    while (ct.level() >= 2) {
        ct = h->eval->square(ct, h->rlk);
        expect = expect * expect;
    }
    auto w = h->decryptSlots(ct);
    for (auto z : w)
        EXPECT_NEAR(z.real(), expect, 5e-3);
}

TEST_F(CkksTest, RescaleTracksScale)
{
    auto a = randomSlots(h->ctx->slots(), 14);
    auto ca = h->encryptSlots(a, 3);
    Plaintext pb = h->encoder->encode(a, h->ctx->scale(), 3);
    Ciphertext prod = h->eval->mulPlain(ca, pb);
    double scale_before = prod.scale;
    Ciphertext rs = h->eval->rescale(prod);
    EXPECT_EQ(rs.level(), 2u);
    double q_top = static_cast<double>(h->ctx->qValue(2));
    EXPECT_NEAR(rs.scale, scale_before / q_top, scale_before * 1e-12);
}

TEST_F(CkksTest, DropToLevelPreservesValues)
{
    auto a = randomSlots(h->ctx->slots(), 15);
    auto ca = h->encryptSlots(a, 4);
    Ciphertext dropped = h->eval->dropToLevel(ca, 2);
    EXPECT_EQ(dropped.level(), 2u);
    EXPECT_DOUBLE_EQ(dropped.scale, ca.scale);
    EXPECT_LT(maxError(a, h->decryptSlots(dropped)), 1e-5);
}

TEST_F(CkksTest, RotateShiftsSlots)
{
    const size_t slots = h->ctx->slots();
    auto a = randomSlots(slots, 16);
    auto ca = h->encryptSlots(a, 3);
    for (int step : {1, 5, -3}) {
        auto gks = h->makeGaloisKeys({step});
        auto w = h->decryptSlots(h->eval->rotate(ca, step, gks));
        for (size_t k = 0; k < slots; ++k) {
            size_t src = (k + slots + static_cast<size_t>(
                              (step % int(slots) + int(slots)))) % slots;
            EXPECT_LT(std::abs(w[k] - a[src]), 1e-4)
                << "step " << step << " slot " << k;
        }
    }
}

TEST_F(CkksTest, RotateByZeroIsIdentity)
{
    auto a = randomSlots(h->ctx->slots(), 17);
    auto ca = h->encryptSlots(a, 2);
    GaloisKeys empty;
    auto w = h->decryptSlots(h->eval->rotate(ca, 0, empty));
    EXPECT_LT(maxError(a, w), 1e-5);
}

TEST_F(CkksTest, ConjugateConjugatesSlots)
{
    auto a = randomSlots(h->ctx->slots(), 18);
    auto ca = h->encryptSlots(a, 3);
    auto gks = h->makeGaloisKeys({}, /*conj=*/true);
    auto w = h->decryptSlots(h->eval->conjugate(ca, gks));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - std::conj(a[i])), 1e-4);
}

TEST_F(CkksTest, HoistedRotationsMatchRegular)
{
    auto a = randomSlots(h->ctx->slots(), 19);
    auto ca = h->encryptSlots(a, 3);
    std::vector<int> steps = {0, 1, 2, 7};
    auto gks = h->makeGaloisKeys(steps);
    auto hoisted = h->eval->rotateHoisted(ca, steps, gks);
    ASSERT_EQ(hoisted.size(), steps.size());
    for (size_t i = 0; i < steps.size(); ++i) {
        auto expect = h->decryptSlots(h->eval->rotate(ca, steps[i], gks));
        auto got = h->decryptSlots(hoisted[i]);
        EXPECT_LT(maxError(expect, got), 1e-5) << "step " << steps[i];
    }
}

TEST_F(CkksTest, RaisedRotationMatchesAfterModDown)
{
    auto a = randomSlots(h->ctx->slots(), 20);
    auto ca = h->encryptSlots(a, 3);
    auto gks = h->makeGaloisKeys({4});
    auto digits = h->eval->keySwitcher().decomposeAndRaise(ca.c1);
    RaisedCiphertext raised = h->eval->rotateRaised(digits, ca, 4, gks);
    Ciphertext ct = h->eval->modDownPair(raised);
    auto expect = h->decryptSlots(h->eval->rotate(ca, 4, gks));
    EXPECT_LT(maxError(expect, h->decryptSlots(ct)), 1e-5);
}

TEST_F(CkksTest, RaisedLinearCombination)
{
    // Accumulating plaintext products in the raised basis and ModDown-ing
    // once equals doing each product separately (ModDown hoisting).
    const size_t slots = h->ctx->slots();
    auto a = randomSlots(slots, 21);
    auto ca = h->encryptSlots(a, 3);
    std::vector<int> steps = {1, 3};
    auto gks = h->makeGaloisKeys(steps);
    auto b1 = randomSlots(slots, 22);
    auto b2 = randomSlots(slots, 23);

    auto digits = h->eval->keySwitcher().decomposeAndRaise(ca.c1);
    RaisedCiphertext r1 = h->eval->rotateRaised(digits, ca, 1, gks);
    RaisedCiphertext r2 = h->eval->rotateRaised(digits, ca, 3, gks);
    Plaintext p1 = h->encoder->encodeRaised(b1, h->ctx->scale(), 3);
    Plaintext p2 = h->encoder->encodeRaised(b2, h->ctx->scale(), 3);
    h->eval->mulPlainRaised(r1, p1);
    h->eval->mulPlainRaised(r2, p2);
    h->eval->addRaised(r1, r2);
    Ciphertext got = h->eval->rescale(h->eval->modDownPair(r1));

    auto w = h->decryptSlots(got);
    for (size_t k = 0; k < slots; ++k) {
        auto expect = b1[k] * a[(k + 1) % slots] + b2[k] * a[(k + 3) % slots];
        EXPECT_LT(std::abs(w[k] - expect), 1e-4) << "slot " << k;
    }
}

TEST_F(CkksTest, MulScalarRescale)
{
    auto a = randomSlots(h->ctx->slots(), 24);
    auto ca = h->encryptSlots(a, 3);
    Ciphertext scaled = h->eval->mulScalarRescale(ca, 0.375);
    EXPECT_EQ(scaled.level(), 2u);
    EXPECT_NEAR(scaled.scale, ca.scale, ca.scale * 1e-9);
    auto w = h->decryptSlots(scaled);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - 0.375 * a[i]), 1e-4);
}

TEST_F(CkksTest, AddScalar)
{
    auto a = randomSlots(h->ctx->slots(), 25);
    auto ca = h->encryptSlots(a, 2);
    auto w = h->decryptSlots(h->eval->addScalar(ca, 1.5, *h->encoder));
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_LT(std::abs(w[i] - (a[i] + 1.5)), 1e-4);
}


TEST_F(CkksTest, MulImaginaryMultipliesSlotsByI)
{
    auto a = randomSlots(h->ctx->slots(), 27);
    auto ca = h->encryptSlots(a, 2);
    Ciphertext rotated = h->eval->mulImaginary(ca);
    EXPECT_EQ(rotated.level(), ca.level());
    EXPECT_DOUBLE_EQ(rotated.scale, ca.scale);
    auto w = h->decryptSlots(rotated);
    const std::complex<double> i_unit{0.0, 1.0};
    for (size_t k = 0; k < a.size(); ++k)
        EXPECT_LT(std::abs(w[k] - i_unit * a[k]), 1e-4);
    // Four applications are the identity.
    Ciphertext back = h->eval->mulImaginary(h->eval->mulImaginary(
        h->eval->mulImaginary(rotated)));
    EXPECT_LT(test::maxError(a, h->decryptSlots(back)), 1e-4);
}

TEST_F(CkksTest, MulMonomialMatchesEncoderSemantics)
{
    // Multiplying by x^p scales slot j by zeta^(p * 5^j); check against
    // an explicit plaintext computation through the encoder.
    auto a = randomSlots(h->ctx->slots(), 28);
    auto ca = h->encryptSlots(a, 2);
    const size_t p = 3;
    Ciphertext mono = h->eval->mulMonomial(ca, p);
    auto w = h->decryptSlots(mono);

    const size_t big_n = 2 * h->ctx->degree();
    const double pi = std::acos(-1.0);
    u64 pow5 = 1;
    for (size_t j = 0; j < a.size(); ++j) {
        double angle = 2.0 * pi * static_cast<double>(p) *
                       static_cast<double>(pow5) /
                       static_cast<double>(big_n);
        std::complex<double> zeta{std::cos(angle), std::sin(angle)};
        EXPECT_LT(std::abs(w[j] - zeta * a[j]), 1e-4) << "slot " << j;
        pow5 = (pow5 * 5) % big_n;
    }
}

TEST_F(CkksTest, MismatchedShapesRejected)
{
    auto a = randomSlots(h->ctx->slots(), 26);
    auto c3 = h->encryptSlots(a, 3);
    auto c2 = h->encryptSlots(a, 2);
    EXPECT_THROW(h->eval->add(c3, c2), std::invalid_argument);

    Ciphertext bad_scale = c3;
    bad_scale.scale *= 2.0;
    EXPECT_THROW(h->eval->add(c3, bad_scale), std::invalid_argument);
}

class CkksParamSweep : public ::testing::TestWithParam<CkksParams>
{
};

TEST_P(CkksParamSweep, MulAndRotateAcrossParams)
{
    CkksHarness h(GetParam());
    const size_t slots = h.ctx->slots();
    auto a = randomSlots(slots, 31);
    auto b = randomSlots(slots, 32);
    auto ca = h.encryptSlots(a, h.ctx->maxLevel());
    auto cb = h.encryptSlots(b, h.ctx->maxLevel());
    auto prod = h.decryptSlots(h.eval->mul(ca, cb, h.rlk));
    for (size_t i = 0; i < slots; ++i)
        EXPECT_LT(std::abs(prod[i] - a[i] * b[i]), 1e-3);

    auto gks = h.makeGaloisKeys({2});
    auto rot = h.decryptSlots(h.eval->rotate(ca, 2, gks));
    for (size_t k = 0; k < slots; ++k)
        EXPECT_LT(std::abs(rot[k] - a[(k + 2) % slots]), 1e-3);
}

static CkksParams
sweepParams(unsigned log_n, size_t levels, size_t dnum)
{
    CkksParams p = CkksParams::unitTest();
    p.log_n = log_n;
    p.num_levels = levels;
    p.dnum = dnum;
    return p;
}

INSTANTIATE_TEST_SUITE_P(Shapes, CkksParamSweep,
    ::testing::Values(sweepParams(10, 2, 1), sweepParams(10, 4, 2),
                      sweepParams(10, 5, 3), sweepParams(11, 6, 2),
                      sweepParams(12, 4, 4)));

} // namespace

/**
 * Prints a CkksParamSweep case as its shape, e.g. n10_L2_d1 (log_n,
 * levels, dnum). gtest_discover_tests names each ctest entry after this
 * value; without it gtest would print the struct's raw bytes, padding
 * included. (A name generator would not reach the ctest name: CMake
 * then keeps the whole "# GetParam() = ..." comment in it.)
 */
void
PrintTo(const CkksParams& p, std::ostream* os)
{
    *os << "n" << p.log_n << "_L" << p.num_levels << "_d" << p.dnum;
}

} // namespace madfhe
