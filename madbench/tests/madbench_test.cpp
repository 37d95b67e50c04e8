/**
 * @file
 * The benchmark's own tests: the statistics match hand-computed values,
 * and every output check rejects a deliberately wrong result.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "checks.h"
#include "ckks/matvec.h"
#include "ckks/serialize.h"
#include "harness.h"
#include "workload.h"

namespace madbench {
namespace {

using namespace madfhe;
using Slots = std::vector<std::complex<double>>;

TEST(Stats, MedianOddEvenEmpty)
{
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
    EXPECT_DOUBLE_EQ(median({}), 0);
}

TEST(Stats, Throughput)
{
    EXPECT_DOUBLE_EQ(throughputPerSec(10, 4.0), 2.5);
    EXPECT_DOUBLE_EQ(throughputPerSec(3, 0.0), 0);
}

TEST(Stats, PrecisionBits)
{
    EXPECT_DOUBLE_EQ(precisionBits(0.25), 2);
    EXPECT_DOUBLE_EQ(precisionBits(std::ldexp(1.0, -10)), 10);
    EXPECT_NEAR(precisionBits(5.77e-4), 10.76, 0.01);
    EXPECT_DOUBLE_EQ(precisionBits(0), 64);
}

TEST(Args, AcceptsTheDocumentedForm)
{
    std::string err;
    const auto o = parseArgs({"--workload", "bootstrap", "--seed", "7",
                              "--seconds", "12", "--trace", "1"},
                             &err);
    ASSERT_TRUE(o) << err;
    EXPECT_EQ(o->workload, "bootstrap");
    EXPECT_EQ(o->seed, 7u);
    EXPECT_DOUBLE_EQ(o->seconds, 12);
    EXPECT_TRUE(o->trace);
}

TEST(Args, RejectsMalformed)
{
    std::string err;
    EXPECT_FALSE(parseArgs({"--workload", "nope"}, &err));
    EXPECT_FALSE(parseArgs({"--workload", "lr_train", "--trace", "2"}, &err));
    EXPECT_FALSE(parseArgs({"--workload", "lr_train", "--seed"}, &err));
    EXPECT_FALSE(parseArgs({"--workload", "lr_train", "--seconds", "0"}, &err));
    EXPECT_FALSE(parseArgs({"--seed", "1"}, &err));
}

TEST(Result, JsonShape)
{
    EXPECT_EQ(resultJson(true, 12, 0, {{"setup_s", 1.5, "s"}}),
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": "
              "\"s\"}}}");
}

TEST(Checks, PerturbedSlotFails)
{
    const Slots want = {{0.1, 0.2}, {-0.3, 0.4}, {0.5, -0.6}};
    EXPECT_TRUE(checkSlots(want, want, 3, 1e-6).ok);
    Slots got = want;
    got[1] += 1e-3;
    const CheckResult r = checkSlots(got, want, 3, 1e-4);
    EXPECT_FALSE(r.ok);
    EXPECT_NEAR(r.max_abs_err, 1e-3, 1e-12);
    EXPECT_FALSE(checkSlots({}, want, 3, 1.0).ok);
    got[2] = {NAN, 0};
    EXPECT_FALSE(checkSlots(got, want, 3, 1.0).ok);
}

TEST(Checks, WrongWeightOrAccuracyFails)
{
    const std::vector<double> ref = {0.5, -0.25, 0.125, 0.0625};
    EXPECT_TRUE(checkLrModel(ref, ref, 0.9, 0.9, 1e-3, 0).ok);
    std::vector<double> wrong = ref;
    wrong[2] += 0.01;
    EXPECT_FALSE(checkLrModel(wrong, ref, 0.9, 0.9, 1e-3, 0).ok);
    EXPECT_FALSE(checkLrModel(ref, ref, 0.8, 0.9, 1e-3, 0.01).ok);
    EXPECT_FALSE(checkLrModel({0.5}, ref, 0.9, 0.9, 1e-3, 0).ok);
}

TEST(Checks, PlainReferences)
{
    const Slots a = {1, 2, 3, 4};
    EXPECT_EQ(plainRotate(a, 1), (Slots{2, 3, 4, 1}));
    EXPECT_EQ(plainRotate(a, -1), (Slots{4, 1, 2, 3}));
    EXPECT_EQ(plainMul(a, a), (Slots{1, 4, 9, 16}));
    EXPECT_EQ(plainAdd(a, a), (Slots{2, 4, 6, 8}));
    const std::map<int, Slots> shift = {{1, Slots(4, 1.0)}};
    EXPECT_EQ(plainMatVec(shift, a), plainRotate(a, 1));
}

/** A small real CKKS stack for the ciphertext-level checks. */
class CkksChecks : public ::testing::Test
{
  protected:
    CkksChecks() : fx(CkksParams::unitTest(), 3) {}
    Fixture fx;
};

TEST_F(CkksChecks, MatVecReferenceAgreesWithLibrary)
{
    const size_t n = fx.ctx->slots();
    const auto diags = mixDiagonals(n, 5);
    const LinearTransform t(fx.ctx, diags, fx.ctx->scale());
    const Slots x = fx.randomSlots(1, 0.5);
    EXPECT_TRUE(checkSlots(plainMatVec(diags, x), t.applyPlain(x), n, 1e-12).ok);
}

TEST_F(CkksChecks, FlippedCiphertextByteFails)
{
    const size_t n = fx.ctx->slots();
    const Slots msg = fx.randomSlots(2, 0.5);
    const Ciphertext ct = fx.encrypt(msg, fx.ctx->maxLevel());
    EXPECT_TRUE(checkSlots(fx.decrypt(ct), msg, n, 1e-4).ok);

    Ciphertext bad = ct;
    bad.c0.limb(0)[5] ^= u64{0xff} << 32; // one byte of one coefficient
    EXPECT_FALSE(checkSlots(fx.decrypt(bad), msg, n, 1e-4).ok);
    EXPECT_NE(digest(bad), digest(ct));

    std::ostringstream a, b;
    saveCiphertext(a, ct);
    saveCiphertext(b, bad);
    EXPECT_TRUE(checkSameBytes(a.str(), a.str()).ok);
    EXPECT_FALSE(checkSameBytes(b.str(), a.str()).ok);
}

TEST_F(CkksChecks, WrongHomomorphicResultFails)
{
    const size_t n = fx.ctx->slots();
    const Slots x = fx.randomSlots(3, 0.5);
    const Slots y = fx.randomSlots(4, 0.5);
    const Ciphertext cx = fx.encrypt(x, fx.ctx->maxLevel());
    const Ciphertext cy = fx.encrypt(y, fx.ctx->maxLevel());
    const Slots sum = fx.decrypt(fx.eval.add(cx, cy));
    EXPECT_TRUE(checkSlots(sum, plainAdd(x, y), n, 1e-4).ok);
    // The sum is not the product: the check must notice.
    EXPECT_FALSE(checkSlots(sum, plainMul(x, y), n, 1e-4).ok);
}

TEST(Replay, ScopeSelectsItsEventsOnly)
{
    CkksParams p = CkksParams::unitTest();
    const size_t limb = p.n() * sizeof(u64);
    memtrace::Trace t;
    t.scope_names = {"A", "B"};
    t.events.push_back({0, 0, memtrace::Kind::ScopeBegin});
    t.events.push_back({4096, static_cast<u32>(limb), memtrace::Kind::Read});
    t.events.push_back({0, 0, memtrace::Kind::ScopeEnd});
    t.events.push_back(
        {1 << 20, static_cast<u32>(limb), memtrace::Kind::Read});
    const double mb = static_cast<double>(limb) / (1024.0 * 1024.0);
    EXPECT_GT(replayedDramMb(p, t, "A"), 0);
    EXPECT_LE(replayedDramMb(p, t, "A"), 2 * mb);
    EXPECT_DOUBLE_EQ(replayedDramMb(p, t, "B"), 0);
    EXPECT_GT(replayedDramMb(p, t), replayedDramMb(p, t, "A"));
}

} // namespace
} // namespace madbench
