/**
 * @file
 * lr_train: HELR-style encrypted logistic-regression training through
 * the graph IR. One unit is EncryptedLrTrainer::trainGraph, 2 iterations
 * over 4 features x 4096 samples at N = 2^13 with a 15-limb chain and
 * dnum 3: the key-switch-bound Mult/Rotate/Rescale chain at falling
 * levels, with the graph passes and the executor on the path.
 */
#include "apps/lr.h"
#include "ckks/backend.h"
#include "graph/exec.h"
#include "graph/passes.h"
#include "workload.h"

namespace madbench {

using namespace madfhe;

namespace {

class LrTrain final : public Workload
{
  public:
    explicit LrTrain(u64 seed) : seed(seed) {}

    void
    setup() override
    {
        CkksParams p;
        p.log_n = 13;
        p.log_scale = 33;
        p.first_prime_bits = 45;
        p.num_levels = 14;
        p.dnum = 3;
        fx = std::make_unique<Fixture>(p, seed);
        apps::LrConfig cfg;
        cfg.features = 4;
        cfg.iterations = 2;
        trainer = std::make_unique<apps::EncryptedLrTrainer>(fx->ctx, cfg);
        backend = std::make_unique<RealBackend>(fx->ctx);
        fx->gks = fx->keygen.galoisKeys(fx->sk, trainer->requiredRotations());

        data = apps::LrDataset::twoGaussians(fx->ctx->slots(), cfg.features,
                                             seed);
        features = trainer->encryptFeatures(fx->encoder, fx->encryptor, data);
        labels = trainer->encryptLabels(fx->encoder, fx->encryptor, data);
        w0 = trainer->initialWeights(fx->encoder, fx->encryptor);

        const std::vector<Ciphertext> w = unit();
        want = digest(w);
        const apps::LrModel got =
            trainer->decryptModel(fx->encoder, fx->decryptor, w);
        const apps::LrModel ref = trainer->trainPlain(data);
        // Weights agree to ~1e-5 on working code; accuracies may differ
        // by a borderline sample or two.
        checked = checkLrModel(got.weights, ref.weights, got.accuracy(data),
                               ref.accuracy(data), 1e-3,
                               2.0 / static_cast<double>(data.sampleCount()));
    }

    const CheckResult& check() const override { return checked; }

    TimedPhase
    runTimed(double seconds, bool interleave_spans) override
    {
        return timeSerialUnits(
            seconds, want, [&] { return digest(unit()); }, interleave_spans);
    }

    double
    dramMbPerUnit() override
    {
        return replayedDramMb(fx->ctx->params(), traceOf([&] { unit(); }));
    }

    std::vector<Metric>
    homeLayerMetrics() override
    {
        graph::Graph g;
        const double compile_ms = medianMs(5, [&] {
            g = trainer->buildTrainGraph();
            graph::runPasses(g, *fx->ctx);
        });
        std::vector<Ciphertext> inputs = w0;
        inputs.insert(inputs.end(), features.begin(), features.end());
        inputs.push_back(labels);
        const graph::GraphExecutor exec(*backend, &fx->rlk, &fx->gks);
        // One execution: it is a whole training unit, already warm.
        const auto t0 = Clock::now();
        const bool same = digest(exec.run(g, inputs)) == want;
        const double exec_ms = msSince(t0);
        return {{"graph.compile_ms", compile_ms, "ms"},
                {"graph.exec_ms", same ? exec_ms : -1, "ms"},
                {"graph.nodes", static_cast<double>(g.size()), "count"}};
    }

    Fixture& fixture() override { return *fx; }

  private:
    std::vector<Ciphertext>
    unit() const
    {
        return trainer->trainGraph(*backend, w0, features, labels, fx->rlk,
                                   fx->gks);
    }

    u64 seed;
    std::unique_ptr<Fixture> fx;
    std::unique_ptr<apps::EncryptedLrTrainer> trainer;
    std::unique_ptr<RealBackend> backend;
    apps::LrDataset data;
    std::vector<Ciphertext> w0, features;
    Ciphertext labels;
    CheckResult checked;
    u64 want = 0;
};

} // namespace

std::unique_ptr<Workload>
makeLrTrain(u64 seed)
{
    return std::make_unique<LrTrain>(seed);
}

} // namespace madbench
