/**
 * @file
 * VirtualBackend: the plaintext twin of the real evaluator path.
 *
 * A virtual ciphertext carries its slot values in the clear (see
 * virtual/vct.h) plus the full (level, scale, noise-estimate) state
 * machine. Every Table-2 primitive updates that state through the same
 * `ckks/shape` transitions the real `Evaluator` uses — same level/scale
 * arithmetic, same UserError messages — and charges the SimFHE-predicted
 * cost of the operation it stands in for via `simfhe::OpCostQuery`.
 * Noise evolves through the same `NoiseEstimator` the real path is
 * validated against, so virtual noise budgets bracket real measured
 * noise (tests/virtual_test.cpp pins this cross-validation).
 *
 * This makes thousand-tenant load experiments (tools/loadgen) run at
 * plaintext speed while the whole serving control plane — sessions,
 * key-cache budgets, batching, overload governor, deadlines, retries —
 * behaves identically to a real deployment.
 *
 * Optional simulated latency: MADFHE_VIRTUAL_LATENCY=<ppm> sleeps each
 * op for latency_ppm/1e6 of its modeled GPU runtime, so queueing
 * behavior under the governor resembles the modeled hardware instead of
 * collapsing to memcpy speed. Default 0 (off).
 */
#ifndef MADFHE_VIRTUAL_BACKEND_H
#define MADFHE_VIRTUAL_BACKEND_H

#include <mutex>

#include "ckks/backend.h"
#include "ckks/noise.h"
#include "simfhe/query.h"
#include "virtual/vct.h"

namespace madfhe {
namespace vbackend {

struct VirtualOptions
{
    /** Parts-per-million of the modeled GPU runtime to sleep per op
     *  (0 = no simulated latency). */
    u64 latency_ppm = 0;

    /** Reads MADFHE_VIRTUAL_LATENCY (ppm, default 0). */
    static VirtualOptions fromEnv();
};

class VirtualBackend final : public EvalBackend
{
  public:
    explicit VirtualBackend(std::shared_ptr<const CkksContext> ctx,
                            VirtualOptions options = VirtualOptions::fromEnv());

    BackendKind kind() const override { return BackendKind::Virtual; }

    Ciphertext encryptReal(const PublicKey& pk,
                           const std::vector<double>& values,
                           u64 seed) const override;
    std::vector<double> decryptReal(const SecretKey& sk,
                                    const Ciphertext& ct) const override;
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const override;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const override;
    Ciphertext addAligned(const Ciphertext& a,
                          const Ciphertext& b) const override;
    Ciphertext mul(const Ciphertext& a, const Ciphertext& b,
                   const SwitchingKey& rlk) const override;
    Ciphertext mulScalarRescale(const Ciphertext& a,
                                double scalar) const override;
    Ciphertext addScalar(const Ciphertext& a, double scalar) const override;
    Ciphertext rescale(const Ciphertext& a) const override;
    Ciphertext dropToLevel(const Ciphertext& a, size_t level) const override;
    Ciphertext rotate(const Ciphertext& a, int steps,
                      const GaloisKeys& gks) const override;
    std::vector<Ciphertext> rotateHoisted(const Ciphertext& a,
                                          const std::vector<int>& steps,
                                          const GaloisKeys& gks) const override;
    Ciphertext matVec(const LinearTransform& t, const Ciphertext& ct,
                      const GaloisKeys& gks) const override;

    /** The virtual backend serves Bootstrap (level refresh to max, noise
     *  reset to roughly-fresh, full modeled bootstrap cost charged). */
    bool supportsBootstrap() const override { return true; }
    Ciphertext bootstrap(const Ciphertext& a) const override;

    std::string resultDigest(const Ciphertext& ct) const override;
    std::optional<double> noiseBudgetBits(const Ciphertext& ct) const override;

    /** The cost oracle ops are charged against. */
    const simfhe::OpCostQuery& query() const { return query_; }
    /** Accumulated SimFHE-predicted cost of every op served so far. */
    simfhe::Cost chargedCost() const;
    /** Number of primitive ops charged so far. */
    u64 chargedOps() const;

  private:
    /** Unpack an operand or raise the canonical UserError. */
    VirtualView view(const Ciphertext& ct) const;
    /** Strict add (or subtract) of two views, charged as one Add. */
    Ciphertext addViews(VirtualView x, const VirtualView& y,
                        bool subtract) const;
    /** Account one primitive: accumulate predicted cost, bump telemetry,
     *  optionally sleep the simulated latency. */
    void charge(simfhe::PrimOp op, const simfhe::Cost& cost) const;
    /** Evaluator::align on views: applies shape::planAlign's drops,
     *  charging and noise for the scalar adjustment. */
    std::pair<VirtualView, VirtualView> alignViews(const VirtualView& a,
                                                   const VirtualView& b) const;
    /** Modeled bootstrap cost, with a coarse fallback on parameter sets
     *  too shallow for the analytic Alg-2 accounting. Cached. */
    simfhe::Cost bootstrapCost() const;

    VirtualOptions opts;
    NoiseEstimator est_;
    simfhe::OpCostQuery query_;
    simfhe::HardwareDesign latency_hw_;

    mutable std::mutex cost_mu_;
    mutable simfhe::Cost charged_{};
    mutable u64 charged_ops_ = 0;
    mutable std::optional<simfhe::Cost> boot_cost_; ///< under cost_mu_
};

/** Construct the selected backend over `ctx`. */
std::unique_ptr<EvalBackend>
makeEvalBackend(BackendKind kind, std::shared_ptr<const CkksContext> ctx);

} // namespace vbackend
} // namespace madfhe

#endif // MADFHE_VIRTUAL_BACKEND_H
