/**
 * @file
 * Virtual backend tests: the packed-carrier codec (round-trip, wire
 * validity, rejection of real ciphertexts), exact error-message parity
 * with the real evaluator's level/scale state machine, plaintext value
 * semantics of every Table-2 op, cross-validation of the analytic noise
 * estimate against real measured noise (the virtual estimate must
 * bracket what the real backend actually accumulates), SimFHE cost
 * charging, backend selection, and an end-to-end virtual-server smoke
 * run including Bootstrap.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <functional>
#include <sstream>

#include "ckks/noise.h"
#include "ckks/serialize.h"
#include "graph/passes.h"
#include "serve/server.h"
#include "telemetry/telemetry.h"
#include "test_util.h"
#include "virtual/backend.h"

namespace madfhe {
namespace {

using test::CkksHarness;
using test::randomReals;
using vbackend::VirtualBackend;
using vbackend::VirtualView;

/** Run `f`, expecting a UserError; returns its undecorated message. */
template <typename F>
std::string
userErrorMessage(F&& f)
{
    try {
        f();
    } catch (const UserError& e) {
        return e.message();
    } catch (const std::exception& e) {
        return std::string("<wrong exception type: ") + e.what() + ">";
    }
    return "<no error>";
}

class VirtualTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        telemetry::resetAll();
        telemetry::setLevel(telemetry::Level::Counters);
        h = std::make_unique<CkksHarness>(CkksParams::unitTest());
        vb = std::make_unique<VirtualBackend>(h->ctx);
        rb = std::make_unique<RealBackend>(h->ctx);
    }

    void
    TearDown() override
    {
        telemetry::setLevel(telemetry::Level::Off);
    }

    /** A virtual ciphertext carrying `values` (fresh, max level). */
    Ciphertext
    venc(const std::vector<double>& values) const
    {
        return vb->encryptReal(h->pk, values, /*seed=*/7);
    }

    std::unique_ptr<CkksHarness> h;
    std::unique_ptr<VirtualBackend> vb;
    std::unique_ptr<RealBackend> rb;
};

// --- carrier codec --------------------------------------------------------

TEST_F(VirtualTest, PackRoundTripPreservesEveryField)
{
    VirtualView v;
    v.slots.resize(h->ctx->slots());
    for (size_t k = 0; k < v.slots.size(); ++k)
        v.slots[k] = {0.25 * static_cast<double>(k) - 3.0,
                      -1.0 / (1.0 + static_cast<double>(k))};
    v.level = 2;
    v.scale = h->ctx->scale() * 1.0000001; // not a round number
    v.noise_log2 = -31.737;

    const Ciphertext ct = packVirtual(*h->ctx, v);
    EXPECT_TRUE(vbackend::isVirtualCiphertext(ct));
    // Single-limb carrier whatever the logical level (the level rides
    // in metadata): the serving queues copy O(N) bytes, not O(N * L).
    EXPECT_EQ(ct.c0.numLimbs(), 1u);
    EXPECT_EQ(ct.c1.numLimbs(), 1u);

    const VirtualView back = vbackend::unpackVirtual(*h->ctx, ct);
    EXPECT_EQ(back.level, v.level);
    EXPECT_DOUBLE_EQ(back.scale, v.scale);
    EXPECT_DOUBLE_EQ(back.noise_log2, v.noise_log2);
    ASSERT_EQ(back.slots.size(), v.slots.size());
    for (size_t k = 0; k < v.slots.size(); ++k) {
        // Bit-exact: the codec splits the raw double bits.
        EXPECT_EQ(back.slots[k].real(), v.slots[k].real());
        EXPECT_EQ(back.slots[k].imag(), v.slots[k].imag());
    }
}

TEST_F(VirtualTest, RejectsRealCiphertextsWithClearMessage)
{
    const Ciphertext real_ct =
        h->encryptSlots(test::randomSlots(h->ctx->slots(), 1), 3);
    EXPECT_FALSE(vbackend::isVirtualCiphertext(real_ct));
    const std::string msg =
        userErrorMessage([&] { (void)vb->add(real_ct, real_ct); });
    EXPECT_NE(msg.find("virtual backend received a non-virtual ciphertext"),
              std::string::npos)
        << msg;
}

TEST_F(VirtualTest, CarrierSurvivesSerializeV2)
{
    const std::vector<double> v = randomReals(h->ctx->slots(), 3);
    Ciphertext ct = venc(v);
    ct = vb->mul(ct, ct, h->rlk); // non-trivial level/scale/noise state

    std::ostringstream os;
    saveCiphertext(os, ct);
    std::istringstream is(os.str());
    const Ciphertext back = loadCiphertext(is, h->ctx->ring());

    // The round trip preserves value identity (digest) and state.
    EXPECT_EQ(vb->resultDigest(back), vb->resultDigest(ct));
    const VirtualView a = vbackend::unpackVirtual(*h->ctx, ct);
    const VirtualView b = vbackend::unpackVirtual(*h->ctx, back);
    EXPECT_EQ(b.level, a.level);
    EXPECT_DOUBLE_EQ(b.noise_log2, a.noise_log2);
}

TEST_F(VirtualTest, DigestTracksValueIdentity)
{
    const std::vector<double> v = randomReals(h->ctx->slots(), 4);
    const Ciphertext a = venc(v);
    const Ciphertext b = venc(v);
    std::vector<double> w = v;
    w[5] += 1e-9;
    const Ciphertext c = venc(w);

    EXPECT_EQ(vb->resultDigest(a), vb->resultDigest(b));
    EXPECT_NE(vb->resultDigest(a), vb->resultDigest(c));
    EXPECT_EQ(vb->resultDigest(a).rfind("v:", 0), 0u)
        << "virtual digests carry the v: namespace";
    // The two backends can never collide on a digest.
    const Ciphertext real_ct = rb->encryptReal(h->pk, v, 11);
    EXPECT_NE(rb->resultDigest(real_ct).substr(0, 2), "v:");
}

// --- state-machine error parity -------------------------------------------

TEST_F(VirtualTest, ErrorMessagesMatchRealEvaluatorExactly)
{
    const std::vector<double> vals = randomReals(h->ctx->slots(), 5);
    const size_t top = h->ctx->maxLevel();

    // One real and one virtual operand pair with identical state.
    const Ciphertext rv = rb->encryptReal(h->pk, vals, 11);
    const Ciphertext vv = venc(vals);

    std::map<int, std::vector<std::complex<double>>> diags;
    diags[0].assign(h->ctx->slots(), {0.5, 0.0});
    diags[1].assign(h->ctx->slots(), {0.25, 0.0});
    const LinearTransform lt(h->ctx, std::move(diags), h->ctx->scale());
    const GaloisKeys lt_keys = h->makeGaloisKeys(lt.requiredRotations());

    using graph::GraphBuilder;
    using graph::NodeRef;
    struct Case
    {
        const char* what;
        std::function<void(const EvalBackend&, const Ciphertext&)> run;
        /** The same transition on the graph IR, over one input shaped
         *  like the operand; empty where the IR has no counterpart
         *  (keys bind at execution, and scale alignment is no graph op). */
        std::function<NodeRef(GraphBuilder&, NodeRef)> graph;
    };
    const std::vector<Case> cases = {
        {"ciphertext levels differ",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.add(ct, be.dropToLevel(ct, 2));
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.add(in, b.dropToLevel(in, 2));
         }},
        {"ciphertext scales differ; rescale/align first",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.add(be.dropToLevel(ct, top - 1), be.rescale(ct));
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.add(b.dropToLevel(in, top - 1), b.rescale(in));
         }},
        {"mul needs a level to rescale into",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             const Ciphertext low = be.dropToLevel(ct, 1);
             (void)be.mul(low, low, h->rlk);
         },
         [&](GraphBuilder& b, NodeRef in) {
             const NodeRef low = b.dropToLevel(in, 1);
             return b.mul(low, low);
         }},
        {"cannot rescale the last limb away",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.rescale(be.dropToLevel(ct, 1));
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.rescale(b.dropToLevel(in, 1));
         }},
        {"bad target level",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.dropToLevel(ct, top + 1);
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.dropToLevel(in, top + 1);
         }},
        {"no level left to rescale into",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.mulScalarRescale(be.dropToLevel(ct, 1), 0.5);
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.mulScalar(b.dropToLevel(in, 1), 0.5);
         }},
        {"cannot rescale the last limb away",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.matVec(lt, be.dropToLevel(ct, 1), lt_keys);
         },
         [&](GraphBuilder& b, NodeRef in) {
             return b.matVec(b.dropToLevel(in, 1), &lt);
         }},
        {"missing Galois key for requested rotation",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             (void)be.rotate(ct, 3, GaloisKeys{});
         },
         {}},
        {"cannot scale-align at the last level",
         [&](const EvalBackend& be, const Ciphertext& ct) {
             // Two level-1 operands with mismatched scales: aligning
             // needs a level to rescale into and must refuse.
             (void)be.addAligned(be.dropToLevel(ct, 1),
                                 be.rescale(be.dropToLevel(ct, 2)));
         },
         {}},
    };

    for (const Case& c : cases) {
        const std::string real_msg =
            userErrorMessage([&] { c.run(*rb, rv); });
        const std::string virt_msg =
            userErrorMessage([&] { c.run(*vb, vv); });
        EXPECT_EQ(real_msg, c.what) << "real backend: " << c.what;
        EXPECT_EQ(virt_msg, c.what) << "virtual backend: " << c.what;
        if (!c.graph)
            continue;
        const std::string graph_msg = userErrorMessage([&] {
            GraphBuilder b;
            b.output(c.graph(b, b.input(top, h->ctx->scale())));
            graph::Graph g = b.build();
            graph::PassOptions po;
            po.align_levels = false;
            graph::runPasses(g, *h->ctx, po);
        });
        EXPECT_EQ(graph_msg, c.what) << "graph: " << c.what;
    }
}

// --- value semantics ------------------------------------------------------

TEST_F(VirtualTest, TableTwoOpsComputeOnSlots)
{
    const size_t n = h->ctx->slots();
    const std::vector<double> va = randomReals(n, 6);
    const std::vector<double> vb_vals = randomReals(n, 7);
    const Ciphertext a = venc(va);
    const Ciphertext b = venc(vb_vals);

    // encrypt/decrypt round trip is exact (plaintext carrier).
    const std::vector<double> dec = vb->decryptReal(h->sk, a);
    ASSERT_EQ(dec.size(), n);
    for (size_t k = 0; k < n; ++k)
        EXPECT_EQ(dec[k], va[k]);

    // add
    {
        const std::vector<double> got = vb->decryptReal(h->sk, vb->add(a, b));
        for (size_t k = 0; k < n; ++k)
            EXPECT_DOUBLE_EQ(got[k], va[k] + vb_vals[k]);
    }
    // mul: product values, one level consumed, scale = s*s/q.
    {
        const Ciphertext p = vb->mul(a, b, h->rlk);
        const VirtualView pv = vbackend::unpackVirtual(*h->ctx, p);
        EXPECT_EQ(pv.level, h->ctx->maxLevel() - 1);
        const double q =
            static_cast<double>(h->ctx->qValue(h->ctx->maxLevel() - 1));
        EXPECT_DOUBLE_EQ(pv.scale,
                         h->ctx->scale() * h->ctx->scale() / q);
        const std::vector<double> got = vb->decryptReal(h->sk, p);
        for (size_t k = 0; k < n; ++k)
            EXPECT_DOUBLE_EQ(got[k], va[k] * vb_vals[k]);
    }
    // rotate: left rotation by `steps` (matches the real evaluator).
    {
        const GaloisKeys gks = h->makeGaloisKeys({3});
        const std::vector<double> got =
            vb->decryptReal(h->sk, vb->rotate(a, 3, gks));
        for (size_t k = 0; k < n; ++k)
            EXPECT_EQ(got[k], va[(k + 3) % n]);
    }
    // rotateHoisted: step 0 passes through, others rotate.
    {
        const GaloisKeys gks = h->makeGaloisKeys({1, 2});
        const std::vector<Ciphertext> rots =
            vb->rotateHoisted(a, {0, 1, 2}, gks);
        ASSERT_EQ(rots.size(), 3u);
        EXPECT_EQ(vb->resultDigest(rots[0]), vb->resultDigest(a));
        const std::vector<double> r1 = vb->decryptReal(h->sk, rots[1]);
        for (size_t k = 0; k < n; ++k)
            EXPECT_EQ(r1[k], va[(k + 1) % n]);
    }
    // matvec: y[k] = d0[k]*x[k] + d1[k]*x[k+1], one level consumed.
    {
        std::map<int, std::vector<std::complex<double>>> diags;
        diags[0].assign(n, {0.5, 0.0});
        diags[1].assign(n, {0.25, 0.0});
        const LinearTransform t(h->ctx, std::move(diags), h->ctx->scale());
        const GaloisKeys gks = h->makeGaloisKeys(t.requiredRotations());
        const Ciphertext y = vb->matVec(t, a, gks);
        EXPECT_EQ(vbackend::unpackVirtual(*h->ctx, y).level,
                  h->ctx->maxLevel() - 1);
        const std::vector<double> got = vb->decryptReal(h->sk, y);
        for (size_t k = 0; k < n; ++k)
            EXPECT_NEAR(got[k], 0.5 * va[k] + 0.25 * va[(k + 1) % n],
                        1e-12);
    }
    // bootstrap: values survive, level refreshes to max, noise grows.
    {
        Ciphertext low = vb->mul(a, b, h->rlk);
        low = vb->mul(low, low, h->rlk);
        const double noise_before = -*vb->noiseBudgetBits(low);
        const Ciphertext fresh = vb->bootstrap(low);
        const VirtualView fv = vbackend::unpackVirtual(*h->ctx, fresh);
        EXPECT_EQ(fv.level, h->ctx->maxLevel());
        EXPECT_DOUBLE_EQ(fv.scale, h->ctx->scale());
        EXPECT_GT(fv.noise_log2, noise_before);
        const std::vector<double> got = vb->decryptReal(h->sk, fresh);
        const std::vector<double> want = vb->decryptReal(h->sk, low);
        for (size_t k = 0; k < n; ++k)
            EXPECT_EQ(got[k], want[k]);
    }
}

/**
 * An aligning add stands in for the Evaluator's mulScalarRescale on the
 * larger-scale operand, so it must charge that operation's noise: the
 * same budget as an explicit mulScalarRescale (relabelled to the other
 * scale, as Evaluator::align does), a drop of the other operand and a
 * plain add.
 */
TEST_F(VirtualTest, AligningAddChargesTheNoiseOfAnExplicitScalarRescale)
{
    auto level = [&](const Ciphertext& ct) {
        return vbackend::unpackVirtual(*h->ctx, ct).level;
    };
    const Ciphertext a = venc(randomReals(h->ctx->slots(), 11));
    const Ciphertext big = vb->dropToLevel(a, 3);
    const Ciphertext small = vb->rescale(vb->dropToLevel(a, 4));
    ASSERT_EQ(level(small), 3u);
    ASSERT_GT(big.scale, small.scale);

    const Ciphertext aligned = vb->addAligned(big, small);

    Ciphertext scaled = vb->mulScalarRescale(big, small.scale / big.scale);
    scaled.scale = small.scale;
    const Ciphertext explicit_sum =
        vb->add(scaled, vb->dropToLevel(small, level(scaled)));

    EXPECT_EQ(level(aligned), 2u);
    EXPECT_EQ(level(explicit_sum), 2u);
    ASSERT_TRUE(vb->noiseBudgetBits(aligned).has_value());
    EXPECT_EQ(*vb->noiseBudgetBits(aligned),
              *vb->noiseBudgetBits(explicit_sum));
}

// --- noise cross-validation (virtual estimate vs real measurement) --------

TEST_F(VirtualTest, VirtualNoiseBracketsRealMeasuredNoise)
{
    const size_t n = h->ctx->slots();
    const std::vector<double> vals = randomReals(n, 9);
    std::vector<std::complex<double>> slots(n);
    for (size_t k = 0; k < n; ++k)
        slots[k] = {vals[k], 0.0};

    // The virtual estimate is an upper bound with a safety factor;
    // require measured <= estimate (the contract) and estimate within
    // ~2^26 of measured (not uselessly loose; same band style as
    // noise_test, widened for the deeper circuits here).
    auto checkBracket = [&](const Ciphertext& real_ct,
                            const Ciphertext& virt_ct,
                            const std::vector<std::complex<double>>& expect,
                            const char* what) {
        const double measured =
            measureSlotError(*h->encoder, *h->decryptor, real_ct, expect);
        const double estimate_log2 = -*vb->noiseBudgetBits(virt_ct);
        EXPECT_LE(std::log2(std::max(measured, 1e-300)), estimate_log2)
            << what << ": measured noise above the virtual estimate";
        EXPECT_GE(std::log2(measured) + 26.0, estimate_log2)
            << what << ": virtual estimate uselessly loose";
    };

    // Multiplication chain from the top level down to level 1.
    Ciphertext real_ct = h->encryptSlots(slots, h->ctx->maxLevel());
    Ciphertext virt_ct = venc(vals);
    std::vector<std::complex<double>> expect = slots;
    checkBracket(real_ct, virt_ct, expect, "fresh");
    for (size_t lvl = h->ctx->maxLevel(); lvl >= 2; --lvl) {
        real_ct = h->eval->square(real_ct, h->rlk);
        virt_ct = vb->mul(virt_ct, virt_ct, h->rlk);
        for (auto& z : expect)
            z *= z;
        checkBracket(real_ct, virt_ct, expect,
                     ("square@level" + std::to_string(lvl)).c_str());
    }

    // Rotation (key-switch noise floor).
    {
        const GaloisKeys gks = h->makeGaloisKeys({3});
        const Ciphertext rr =
            h->eval->rotate(h->encryptSlots(slots, h->ctx->maxLevel()), 3,
                            gks);
        const Ciphertext vr = vb->rotate(venc(vals), 3, gks);
        std::vector<std::complex<double>> rot(n);
        for (size_t k = 0; k < n; ++k)
            rot[k] = slots[(k + 3) % n];
        checkBracket(rr, vr, rot, "rotate");
    }

    // MatVec (keyswitch + plaintext products + diagonal sum).
    {
        std::map<int, std::vector<std::complex<double>>> diags;
        diags[0].assign(n, {0.5, 0.0});
        diags[1].assign(n, {0.25, 0.0});
        const LinearTransform t(h->ctx, std::move(diags), h->ctx->scale());
        const GaloisKeys gks = h->makeGaloisKeys(t.requiredRotations());
        const Ciphertext rm =
            rb->matVec(t, h->encryptSlots(slots, h->ctx->maxLevel()), gks);
        const Ciphertext vm = vb->matVec(t, venc(vals), gks);
        const std::vector<std::complex<double>> mv = t.applyPlain(slots);
        checkBracket(rm, vm, mv, "matvec");
    }
}

// --- cost charging --------------------------------------------------------

TEST_F(VirtualTest, ChargesSimfhePredictedCostPerOp)
{
    const std::vector<double> vals = randomReals(h->ctx->slots(), 10);
    const u64 ops_before = vb->chargedOps();
    const Ciphertext a = venc(vals);
    const Ciphertext p = vb->mul(a, a, h->rlk);
    (void)vb->rescale(p);
    EXPECT_EQ(vb->chargedOps(), ops_before + 3);

    const simfhe::Cost total = vb->chargedCost();
    const double ns =
        simfhe::OpCostQuery::modelNs(simfhe::HardwareDesign::gpu(), total);
    EXPECT_GT(ns, 0.0) << "charged cost must model to positive runtime";
    EXPECT_EQ(telemetry::counter("virtual.ops").value(), vb->chargedOps());
    EXPECT_GE(telemetry::counter("virtual.op.Mult").value(), 1u);

    // Bootstrap charges even on parameter sets too shallow for the
    // analytic Alg-2 accounting (coarse per-level fallback).
    const u64 before_boot = vb->chargedOps();
    (void)vb->bootstrap(a);
    EXPECT_EQ(vb->chargedOps(), before_boot + 1);
    EXPECT_GT(simfhe::OpCostQuery::modelNs(simfhe::HardwareDesign::gpu(),
                                           vb->chargedCost()),
              ns);
}

// --- backend selection ----------------------------------------------------

TEST_F(VirtualTest, FactoryAndEnvSelection)
{
    EXPECT_EQ(vbackend::makeEvalBackend(BackendKind::Real, h->ctx)->kind(),
              BackendKind::Real);
    EXPECT_EQ(vbackend::makeEvalBackend(BackendKind::Virtual, h->ctx)->kind(),
              BackendKind::Virtual);

    ::unsetenv("MADFHE_BACKEND");
    EXPECT_EQ(backendKindFromEnv(), BackendKind::Real);
    ::setenv("MADFHE_BACKEND", "real", 1);
    EXPECT_EQ(backendKindFromEnv(), BackendKind::Real);
    ::setenv("MADFHE_BACKEND", "virtual", 1);
    EXPECT_EQ(backendKindFromEnv(), BackendKind::Virtual);
    ::setenv("MADFHE_BACKEND", "quantum", 1);
    EXPECT_THROW(backendKindFromEnv(), UserError);
    ::unsetenv("MADFHE_BACKEND");
}

// --- end-to-end virtual server --------------------------------------------

TEST_F(VirtualTest, VirtualServerServesFullOpSurface)
{
    serve::ServerOptions opts;
    opts.backend = BackendKind::Virtual;
    serve::Server server(h->ctx, opts);
    ASSERT_EQ(server.backend().kind(), BackendKind::Virtual);

    std::map<int, std::vector<std::complex<double>>> diags;
    diags[0].assign(h->ctx->slots(), {0.5, 0.0});
    diags[1].assign(h->ctx->slots(), {0.25, 0.0});
    server.registerTransform(
        "layer", LinearTransform(h->ctx, std::move(diags), h->ctx->scale()));

    KeyGenerator keygen(h->ctx);
    const SecretKey sk = keygen.secretKey();
    serve::TenantKeys keys;
    keys.pk = keygen.publicKey(sk);
    keys.rlk = keygen.relinKey(sk);
    keys.gks = keygen.galoisKeys(sk, {1, 2});
    keys.sk = sk;
    const u64 tenant = server.addTenant(std::move(keys));

    u64 rid = 1;
    auto run = [&](serve::Request req) {
        req.tenant = tenant;
        req.id = rid++;
        serve::Response resp = server.submit(std::move(req)).get();
        EXPECT_TRUE(resp.ok) << resp.error;
        return resp;
    };

    const std::vector<double> vals = randomReals(h->ctx->slots(), 12);
    serve::Request enc;
    enc.op = serve::Op::Encrypt;
    enc.values = vals;
    const Ciphertext ct = run(std::move(enc)).cts.at(0);
    EXPECT_TRUE(vbackend::isVirtualCiphertext(ct));

    serve::Request mul;
    mul.op = serve::Op::EvalMul;
    mul.cts = {ct, ct};
    const Ciphertext prod = run(std::move(mul)).cts.at(0);

    serve::Request rot;
    rot.op = serve::Op::Rotate;
    rot.steps = {1, 2};
    rot.cts = {ct};
    EXPECT_EQ(run(std::move(rot)).cts.size(), 2u);

    serve::Request mv;
    mv.op = serve::Op::MatVec;
    mv.name = "layer";
    mv.cts = {ct};
    run(std::move(mv));

    serve::Request boot;
    boot.op = serve::Op::Bootstrap;
    boot.cts = {prod};
    const Ciphertext fresh = run(std::move(boot)).cts.at(0);
    EXPECT_EQ(vbackend::unpackVirtual(*h->ctx, fresh).level,
              h->ctx->maxLevel());

    serve::Request dec;
    dec.op = serve::Op::DecryptShare;
    dec.cts = {fresh};
    const serve::Response got = run(std::move(dec));
    ASSERT_EQ(got.values.size(), h->ctx->slots());
    for (size_t k = 0; k < got.values.size(); ++k)
        EXPECT_DOUBLE_EQ(got.values[k], vals[k] * vals[k]);
}

TEST_F(VirtualTest, RealServerRejectsBootstrap)
{
    serve::ServerOptions opts;
    opts.backend = BackendKind::Real;
    serve::Server server(h->ctx, opts);

    KeyGenerator keygen(h->ctx);
    const SecretKey sk = keygen.secretKey();
    serve::TenantKeys keys;
    keys.pk = keygen.publicKey(sk);
    keys.rlk = keygen.relinKey(sk);
    const u64 tenant = server.addTenant(std::move(keys));

    serve::Request boot;
    boot.tenant = tenant;
    boot.id = 1;
    boot.op = serve::Op::Bootstrap;
    boot.cts = {h->encryptSlots(test::randomSlots(h->ctx->slots(), 1), 2)};
    const serve::Response resp = server.submit(std::move(boot)).get();
    EXPECT_FALSE(resp.ok);
    EXPECT_NE(resp.error.find("does not serve bootstrap requests"),
              std::string::npos)
        << resp.error;
}

} // namespace
} // namespace madfhe
