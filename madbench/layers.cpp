/**
 * @file
 * Per-layer probes that run on any workload's fixture: each one times
 * the benchmark's own call into a public function of the layer (rns,
 * ckks key switch, evaluator, matvec, encrypt) on the fixture's
 * parameters and keys, or replays that call's memory trace.
 */
#include <algorithm>
#include <stdexcept>

#include "ckks/matvec.h"
#include "ckks/stream.h"
#include "memtrace/crossval.h"
#include "simfhe/model.h"
#include "support/random.h"
#include "workload.h"

namespace madbench {

using namespace madfhe;

Fixture::Fixture(CkksParams params, u64 seed_)
    : ctx([&] {
          params.seed = seed_;
          return std::make_shared<const CkksContext>(params);
      }()),
      encoder(ctx), keygen(ctx), sk(keygen.secretKey()),
      pk(keygen.publicKey(sk)), rlk(keygen.relinKey(sk)),
      encryptor(ctx, pk, seed_ ^ 0x5eedULL), decryptor(ctx, sk), eval(ctx),
      seed(seed_)
{
}

std::vector<std::complex<double>>
Fixture::randomSlots(u64 stream, double magnitude) const
{
    Prng rng(seed * 1000003ULL + stream);
    std::vector<std::complex<double>> v(ctx->slots());
    for (auto& z : v)
        z = {magnitude * (2 * rng.uniformReal() - 1),
             magnitude * (2 * rng.uniformReal() - 1)};
    return v;
}

Ciphertext
Fixture::encrypt(const std::vector<std::complex<double>>& slots, size_t level)
{
    return encryptor.encrypt(encoder.encode(slots, ctx->scale(), level));
}

std::vector<std::complex<double>>
Fixture::decrypt(const Ciphertext& ct)
{
    return encoder.decode(decryptor.decrypt(ct));
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, u64 seed)
{
    if (name == "lr_train")
        return makeLrTrain(seed);
    if (name == "bootstrap")
        return makeBootstrap(seed);
    if (name == "serve_mixed")
        return makeServeMixed(seed);
    throw std::invalid_argument("unknown workload " + name);
}

std::map<int, std::vector<std::complex<double>>>
mixDiagonals(size_t slots, u64 seed)
{
    Prng rng(seed * 7919ULL + 17);
    std::map<int, std::vector<std::complex<double>>> diags;
    for (int k = 0; k < 8; ++k) {
        auto& d = diags[k];
        d.resize(slots);
        for (auto& z : d)
            z = {rng.uniformReal() - 0.5, 0.0};
    }
    return diags;
}

std::vector<Metric>
fixtureLayerMetrics(Fixture& fx)
{
    constexpr size_t kReps = 7;
    const CkksContext& ctx = *fx.ctx;
    const CkksParams& params = ctx.params();
    const size_t top = ctx.maxLevel();
    std::vector<Metric> out;

    const Ciphertext ct = fx.encrypt(fx.randomSlots(901, 0.5), top);
    const std::vector<int> hoisted_steps = {1, 2, 3};
    LinearTransform mix(fx.ctx, mixDiagonals(ctx.slots(), fx.seed),
                        ctx.scale());
    std::vector<int> steps = mix.requiredRotations();
    steps.insert(steps.end(), hoisted_steps.begin(), hoisted_steps.end());
    std::sort(steps.begin(), steps.end());
    steps.erase(std::unique(steps.begin(), steps.end()), steps.end());
    const GaloisKeys gks = fx.keygen.galoisKeys(fx.sk, steps);

    // --- rns -------------------------------------------------------------
    {
        RnsPoly p = ct.c0;
        p.toCoeff();
        std::vector<double> ms;
        for (size_t i = 0; i <= kReps; ++i) {
            const auto t0 = Clock::now();
            p.toEval();
            if (i > 0)
                ms.push_back(msSince(t0));
            p.toCoeff();
        }
        out.push_back({"rns.ntt_us", 1000 * median(ms), "us"});

        const BasisConverter& conv = ctx.modUpConverter(0, top);
        std::vector<const u64*> in;
        for (size_t i = 0; i < conv.source().size(); ++i)
            in.push_back(p.limb(i));
        std::vector<std::vector<u64>> dst(conv.target().size(),
                                          std::vector<u64>(ctx.degree()));
        std::vector<u64*> outp;
        for (auto& limb : dst)
            outp.push_back(limb.data());
        out.push_back({"rns.bconv_us",
                       1000 * medianMs(kReps,
                                       [&] {
                                           conv.convert(in, ctx.degree(),
                                                        outp);
                                       }),
                       "us"});
    }

    // --- ckks key switch ----------------------------------------------------
    const KeySwitcher& ksw = fx.eval.keySwitcher();
    out.push_back({"ckks.keyswitch_ms",
                   medianMs(kReps, [&] { (void)ksw.keySwitch(ct.c1, fx.rlk); }),
                   "ms"});
    std::vector<RnsPoly> digits;
    out.push_back({"ckks.ks_modup_ms",
                   medianMs(kReps,
                            [&] { digits = ksw.decomposeAndRaise(ct.c1); }),
                   "ms"});
    RaisedCiphertext raised;
    out.push_back({"ckks.ks_inner_product_ms",
                   medianMs(kReps,
                            [&] { raised = ksw.innerProduct(digits, fx.rlk); }),
                   "ms"});
    out.push_back({"ckks.ks_moddown_ms",
                   medianMs(kReps, [&] { (void)ksw.modDown(raised.c0); }),
                   "ms"});
    {
        const double kb =
            1024 * replayedDramMb(params, traceOf([&] {
                                      (void)ksw.keySwitch(ct.c1, fx.rlk);
                                  }));
        const simfhe::SchemeConfig scheme = memtrace::matchedScheme(params);
        const simfhe::CostModel model(
            scheme, simfhe::CacheConfig{32 * scheme.limbBytes()},
            memtrace::cachingOptsFor(streamPolicy()));
        const double model_kb = model.keySwitch(top).bytes() / 1024;
        out.push_back({"ckks.keyswitch_dram_kb", kb, "KB"});
        out.push_back(
            {"ckks.keyswitch_dram_vs_model", kb / model_kb, "ratio"});
    }

    // --- ckks evaluator -----------------------------------------------------
    out.push_back({"ckks.mult_ms",
                   medianMs(kReps, [&] { (void)fx.eval.mul(ct, ct, fx.rlk); }),
                   "ms"});
    out.push_back({"ckks.rotate_ms",
                   medianMs(kReps, [&] { (void)fx.eval.rotate(ct, 1, gks); }),
                   "ms"});
    {
        const Ciphertext prod = fx.eval.mulNoRescale(ct, ct, fx.rlk);
        out.push_back({"ckks.rescale_us",
                       1000 * medianMs(kReps,
                                       [&] { (void)fx.eval.rescale(prod); }),
                       "us"});
    }
    out.push_back({"ckks.rotate_hoisted_ms_per_step",
                   medianMs(kReps,
                            [&] {
                                (void)fx.eval.rotateHoisted(ct, hoisted_steps,
                                                            gks);
                            }) /
                       static_cast<double>(hoisted_steps.size()),
                   "ms"});

    // --- ckks matvec --------------------------------------------------------
    out.push_back(
        {"ckks.matvec_ms",
         medianMs(3, [&] { (void)mix.apply(fx.eval, fx.encoder, ct, gks); }),
         "ms"});
    out.push_back({"ckks.matvec_dram_mb",
                   replayedDramMb(params, traceOf([&] {
                                      (void)mix.apply(fx.eval, fx.encoder, ct,
                                                      gks);
                                  })),
                   "MB"});

    // --- ckks encrypt -------------------------------------------------------
    const Plaintext pt =
        fx.encoder.encode(fx.randomSlots(902, 0.5), ctx.scale(), top);
    out.push_back({"ckks.encrypt_ms",
                   medianMs(kReps, [&] { (void)fx.encryptor.encrypt(pt); }),
                   "ms"});
    out.push_back({"ckks.decrypt_ms",
                   medianMs(kReps, [&] { (void)fx.decryptor.decrypt(ct); }),
                   "ms"});
    return out;
}

} // namespace madbench
