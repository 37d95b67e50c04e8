#include "virtual/backend.h"

#include <chrono>
#include <cmath>
#include <thread>

#include "ckks/shape.h"
#include "support/env.h"
#include "telemetry/simfhe_bridge.h"
#include "telemetry/telemetry.h"

namespace madfhe {
namespace vbackend {

VirtualOptions
VirtualOptions::fromEnv()
{
    VirtualOptions o;
    o.latency_ppm = env::u64Or("MADFHE_VIRTUAL_LATENCY", 0);
    return o;
}

VirtualBackend::VirtualBackend(std::shared_ptr<const CkksContext> ctx_,
                               VirtualOptions options)
    : EvalBackend(std::move(ctx_)), opts(options), est_(ctx),
      query_(telemetry::bridgeScheme(ctx->params())),
      latency_hw_(simfhe::HardwareDesign::gpu())
{
    requirePackable(*ctx);
}

VirtualView
VirtualBackend::view(const Ciphertext& ct) const
{
    return unpackVirtual(*ctx, ct);
}

void
VirtualBackend::charge(simfhe::PrimOp op, const simfhe::Cost& cost) const
{
    {
        std::lock_guard<std::mutex> lock(cost_mu_);
        charged_ += cost;
        ++charged_ops_;
    }
    if (telemetry::enabled(telemetry::Level::Counters)) {
        telemetry::counter("virtual.ops").add(1);
        telemetry::counter(std::string("virtual.op.") + simfhe::primOpName(op))
            .add(1);
    }
    if (opts.latency_ppm > 0) {
        const double ns = simfhe::OpCostQuery::modelNs(latency_hw_, cost) *
                          static_cast<double>(opts.latency_ppm) / 1e6;
        if (ns >= 1.0)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(static_cast<u64>(ns)));
    }
}

simfhe::Cost
VirtualBackend::chargedCost() const
{
    std::lock_guard<std::mutex> lock(cost_mu_);
    return charged_;
}

u64
VirtualBackend::chargedOps() const
{
    std::lock_guard<std::mutex> lock(cost_mu_);
    return charged_ops_;
}

Ciphertext
VirtualBackend::encryptReal(const PublicKey& pk,
                            const std::vector<double>& values, u64 seed) const
{
    (void)pk;
    (void)seed; // values are carried verbatim; no randomness to derive
    MAD_REQUIRE(values.size() <= ctx->slots(), "too many values for slots");
    VirtualView v;
    v.slots.reserve(values.size());
    for (double x : values)
        v.slots.push_back({x, 0.0});
    v.level = ctx->maxLevel();
    v.scale = ctx->scale();
    v.noise_log2 = est_.fresh().log2_error;
    charge(simfhe::PrimOp::PtAdd, query_.cost(simfhe::PrimOp::PtAdd, v.level));
    return packVirtual(*ctx, v);
}

std::vector<double>
VirtualBackend::decryptReal(const SecretKey& sk, const Ciphertext& ct) const
{
    (void)sk;
    const VirtualView v = view(ct);
    charge(simfhe::PrimOp::PtAdd, query_.cost(simfhe::PrimOp::PtAdd, v.level));
    std::vector<double> out;
    out.reserve(v.slots.size());
    for (const std::complex<double>& s : v.slots)
        out.push_back(s.real());
    return out;
}

Ciphertext
VirtualBackend::addViews(VirtualView x, const VirtualView& y,
                         bool subtract) const
{
    shape::add(x, y);
    for (size_t k = 0; k < x.slots.size(); ++k)
        x.slots[k] = subtract ? x.slots[k] - y.slots[k]
                              : x.slots[k] + y.slots[k];
    // Error magnitudes add under subtraction exactly as under addition.
    x.noise_log2 =
        est_.add(NoiseBound{x.noise_log2}, NoiseBound{y.noise_log2})
            .log2_error;
    charge(simfhe::PrimOp::Add, query_.cost(simfhe::PrimOp::Add, x.level));
    return packVirtual(*ctx, x);
}

Ciphertext
VirtualBackend::add(const Ciphertext& a, const Ciphertext& b) const
{
    return addViews(view(a), view(b), false);
}

Ciphertext
VirtualBackend::sub(const Ciphertext& a, const Ciphertext& b) const
{
    return addViews(view(a), view(b), true);
}

Ciphertext
VirtualBackend::mulScalarRescale(const Ciphertext& a, double scalar) const
{
    VirtualView x = view(a);
    const shape::Shape out = shape::mulScalar(x, *ctx);
    const double mag = x.magnitude();
    for (std::complex<double>& s : x.slots)
        s *= scalar;
    x.noise_log2 =
        est_.rescale(est_.mulPlain(NoiseBound{x.noise_log2},
                                   std::abs(scalar), mag))
            .log2_error;
    charge(simfhe::PrimOp::PtMult,
           query_.cost(simfhe::PrimOp::PtMult, x.level));
    static_cast<shape::Shape&>(x) = out;
    return packVirtual(*ctx, x);
}

Ciphertext
VirtualBackend::addScalar(const Ciphertext& a, double scalar) const
{
    VirtualView x = view(a);
    for (std::complex<double>& s : x.slots)
        s += scalar;
    // Plaintext addition contributes one encoding's worth of error.
    x.noise_log2 =
        est_.add(NoiseBound{x.noise_log2}, est_.encoding()).log2_error;
    charge(simfhe::PrimOp::PtAdd, query_.cost(simfhe::PrimOp::PtAdd, x.level));
    return packVirtual(*ctx, x);
}

std::pair<VirtualView, VirtualView>
VirtualBackend::alignViews(const VirtualView& a, const VirtualView& b) const
{
    const shape::AlignPlan plan = shape::planAlign(a, b);
    VirtualView x = a, y = b;
    if (plan.adjust >= 0) {
        VirtualView& big = plan.adjust == 0 ? x : y;
        const VirtualView& other = plan.adjust == 0 ? y : x;
        // mulScalarRescale: slot values are unchanged (the scalar and
        // the scale change cancel); one PtMult+Rescale worth of noise
        // lands on the adjusted operand, as mulScalarRescale() models it.
        big.noise_log2 =
            est_.rescale(est_.mulPlain(NoiseBound{big.noise_log2},
                                       std::abs(plan.ratio), big.magnitude()))
                .log2_error;
        big.scale = other.scale;
        charge(simfhe::PrimOp::PtMult,
               query_.cost(simfhe::PrimOp::PtMult, plan.level));
    }
    // The scalar adjustment consumes one more level on both operands.
    x.level = y.level = plan.adjust >= 0 ? plan.level - 1 : plan.level;
    return {std::move(x), std::move(y)};
}

Ciphertext
VirtualBackend::addAligned(const Ciphertext& a, const Ciphertext& b) const
{
    auto [x, y] = alignViews(view(a), view(b));
    return addViews(std::move(x), y, false);
}

Ciphertext
VirtualBackend::mul(const Ciphertext& a, const Ciphertext& b,
                    const SwitchingKey& rlk) const
{
    (void)rlk; // presence is the control plane's (key cache) concern
    VirtualView x = view(a);
    const VirtualView y = view(b);
    const shape::Shape out = shape::mul(x, y, *ctx);
    const double mag_a = x.magnitude();
    const double mag_b = y.magnitude();
    for (size_t k = 0; k < x.slots.size(); ++k)
        x.slots[k] *= y.slots[k];
    x.noise_log2 = est_.mul(NoiseBound{x.noise_log2},
                            NoiseBound{y.noise_log2}, mag_a, mag_b, x.level)
                       .log2_error;
    charge(simfhe::PrimOp::Mult, query_.cost(simfhe::PrimOp::Mult, x.level));
    static_cast<shape::Shape&>(x) = out;
    return packVirtual(*ctx, x);
}

Ciphertext
VirtualBackend::rescale(const Ciphertext& a) const
{
    VirtualView x = view(a);
    const shape::Shape out = shape::rescale(x, *ctx);
    x.noise_log2 = est_.rescale(NoiseBound{x.noise_log2}).log2_error;
    charge(simfhe::PrimOp::Rescale,
           query_.cost(simfhe::PrimOp::Rescale, x.level));
    static_cast<shape::Shape&>(x) = out;
    return packVirtual(*ctx, x);
}

Ciphertext
VirtualBackend::dropToLevel(const Ciphertext& a, size_t level) const
{
    VirtualView x = view(a);
    static_cast<shape::Shape&>(x) = shape::dropToLevel(x, level);
    return packVirtual(*ctx, x);
}

namespace {

/** Slot permutation of a left-rotation by `steps` (matches the real
 *  evaluator / LinearTransform convention: out[k] = in[(k+steps) % n]). */
std::vector<std::complex<double>>
rotateSlots(const std::vector<std::complex<double>>& in, int steps)
{
    const long long n = static_cast<long long>(in.size());
    std::vector<std::complex<double>> out(in.size());
    for (long long k = 0; k < n; ++k) {
        long long src = (k + steps) % n;
        if (src < 0)
            src += n;
        out[static_cast<size_t>(k)] = in[static_cast<size_t>(src)];
    }
    return out;
}

} // namespace

Ciphertext
VirtualBackend::rotate(const Ciphertext& a, int steps,
                       const GaloisKeys& gks) const
{
    const u64 t = ctx->ring()->galoisElt(steps);
    if (t == 1)
        return a;
    shape::galoisKey(gks, t);
    VirtualView x = view(a);
    x.slots = rotateSlots(x.slots, steps);
    x.noise_log2 =
        est_.rotate(NoiseBound{x.noise_log2}, x.level).log2_error;
    charge(simfhe::PrimOp::Rotate,
           query_.cost(simfhe::PrimOp::Rotate, x.level));
    return packVirtual(*ctx, x);
}

std::vector<Ciphertext>
VirtualBackend::rotateHoisted(const Ciphertext& a,
                              const std::vector<int>& steps,
                              const GaloisKeys& gks) const
{
    const VirtualView in = view(a);
    std::vector<Ciphertext> out;
    out.reserve(steps.size());
    size_t keyswitched = 0;
    for (int s : steps) {
        const u64 t = ctx->ring()->galoisElt(s);
        if (t == 1) {
            out.push_back(a);
            continue;
        }
        shape::galoisKey(gks, t);
        VirtualView x = in;
        x.slots = rotateSlots(in.slots, s);
        x.noise_log2 =
            est_.rotate(NoiseBound{in.noise_log2}, in.level).log2_error;
        out.push_back(packVirtual(*ctx, x));
        ++keyswitched;
    }
    // One Decomp+ModUp amortized over the batch, per-step automorph +
    // inner product + ModDown (Figure 5(c) accounting).
    charge(simfhe::PrimOp::Rotate,
           query_.rotateHoisted(in.level, keyswitched));
    return out;
}

Ciphertext
VirtualBackend::matVec(const LinearTransform& t, const Ciphertext& ct,
                       const GaloisKeys& gks) const
{
    VirtualView x = view(ct);
    // Real apply() rotates before its final rescale, so a missing Galois
    // key must win over a level-1 input for error parity.
    for (int s : t.requiredRotations()) {
        const u64 elt = ctx->ring()->galoisElt(s);
        if (elt != 1)
            shape::galoisKey(gks, elt);
    }
    const shape::Shape out = shape::matVec(x, t.ptScale(), *ctx);

    const double mag = x.magnitude();
    const size_t diagonals = std::max<size_t>(t.numDiagonals(), 1);
    x.slots = t.applyPlain(x.slots);
    NoiseBound nb = est_.keySwitch(NoiseBound{x.noise_log2}, x.level);
    nb = est_.mulPlain(nb, t.maxDiagonalMagnitude(), mag);
    // D rescaled diagonal products are summed into the output.
    nb.log2_error += std::log2(static_cast<double>(diagonals));
    x.noise_log2 = nb.log2_error;
    charge(simfhe::PrimOp::PtMatVecMult,
           query_.cost(simfhe::PrimOp::PtMatVecMult, x.level, diagonals));
    static_cast<shape::Shape&>(x) = out;
    return packVirtual(*ctx, x);
}

Ciphertext
VirtualBackend::bootstrap(const Ciphertext& a) const
{
    VirtualView x = view(a);
    // Level refresh: values survive, the chain resets to max, and the
    // output noise is the input noise plus a roughly-fresh bootstrap
    // residual (EvalMod approximation error dominates; ~8 bits above a
    // fresh encryption is the conventional budget).
    x.level = ctx->maxLevel();
    x.scale = ctx->scale();
    x.noise_log2 =
        est_.add(NoiseBound{x.noise_log2},
                 NoiseBound{est_.fresh().log2_error + 8.0})
            .log2_error;
    charge(simfhe::PrimOp::Bootstrap, bootstrapCost());
    return packVirtual(*ctx, x);
}

simfhe::Cost
VirtualBackend::bootstrapCost() const
{
    {
        std::lock_guard<std::mutex> lock(cost_mu_);
        if (boot_cost_)
            return *boot_cost_;
    }
    simfhe::Cost cost;
    try {
        cost = query_.cost(simfhe::PrimOp::Bootstrap, ctx->maxLevel());
    } catch (const MadError&) {
        // The analytic Alg-2 accounting needs the paper-scale deep
        // chain; functional presets (e.g. the 3-level load-test set)
        // cannot place EvalMod in it. Approximate with the dominant
        // terms at this depth: ModRaise plus one Mult + KeySwitch +
        // Rescale pass per chain level (CtS / EvalMod / StC all reduce
        // to rescaled keyswitched products).
        cost = query_.cost(simfhe::PrimOp::ModRaise, ctx->maxLevel());
        for (size_t l = ctx->maxLevel(); l >= 1; --l) {
            cost += query_.cost(simfhe::PrimOp::Mult, l);
            cost += query_.cost(simfhe::PrimOp::KeySwitch, l);
            if (l >= 2)
                cost += query_.cost(simfhe::PrimOp::Rescale, l);
        }
    }
    std::lock_guard<std::mutex> lock(cost_mu_);
    boot_cost_ = cost;
    return cost;
}

std::string
VirtualBackend::resultDigest(const Ciphertext& ct) const
{
    return virtualDigest(*ctx, ct);
}

std::optional<double>
VirtualBackend::noiseBudgetBits(const Ciphertext& ct) const
{
    return -view(ct).noise_log2;
}

std::unique_ptr<EvalBackend>
makeEvalBackend(BackendKind kind, std::shared_ptr<const CkksContext> ctx)
{
    switch (kind) {
    case BackendKind::Real:
        return std::make_unique<RealBackend>(std::move(ctx));
    case BackendKind::Virtual:
        return std::make_unique<VirtualBackend>(std::move(ctx));
    }
    throw InvariantError("unhandled BackendKind", __FILE__, __LINE__);
}

} // namespace vbackend
} // namespace madfhe
