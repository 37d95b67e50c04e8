/**
 * @file
 * A workload: one set of inputs the benchmark runs, made from the seed.
 * Each owns a Fixture (one CKKS stack at the workload's parameters)
 * that the per-layer probes in layers.h also run on.
 */
#ifndef MADBENCH_WORKLOAD_H
#define MADBENCH_WORKLOAD_H

#include <memory>

#include "checks.h"
#include "ckks/encoder.h"
#include "ckks/encryptor.h"
#include "ckks/evaluator.h"
#include "harness.h"

namespace madbench {

/** Context, keys and the encrypt/decrypt/evaluate objects of one
 *  parameter set. The seed drives key generation and encryption. */
struct Fixture
{
    Fixture(madfhe::CkksParams params, u64 seed);

    std::shared_ptr<const madfhe::CkksContext> ctx;
    madfhe::CkksEncoder encoder;
    madfhe::KeyGenerator keygen;
    madfhe::SecretKey sk;
    madfhe::PublicKey pk;
    madfhe::SwitchingKey rlk;
    madfhe::GaloisKeys gks; ///< filled by the workload
    madfhe::Encryptor encryptor;
    madfhe::Decryptor decryptor;
    madfhe::Evaluator eval;
    u64 seed;

    /** Seeded slot values with real and imaginary parts in
     *  [-magnitude, magnitude]; `stream` separates independent draws. */
    std::vector<std::complex<double>> randomSlots(u64 stream,
                                                  double magnitude) const;
    /** Encrypt `slots` at `level` limbs with the fixture's public key. */
    madfhe::Ciphertext encrypt(const std::vector<std::complex<double>>& slots,
                               size_t level);
    std::vector<std::complex<double>> decrypt(const madfhe::Ciphertext& ct);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Everything before the timed phase: context, keys, transforms,
     * input encryption and one warm-up unit whose outputs are checked
     * against the independent reference in full.
     */
    virtual void setup() = 0;
    /** The warm-up check (its error gives precision_bits). */
    virtual const CheckResult& check() const = 0;
    /** Run whole units for `seconds`; each unit's output digest is
     *  compared with the checked warm-up unit's. */
    virtual TimedPhase runTimed(double seconds, bool interleave_spans) = 0;
    /** Replayed DRAM MB of one unit. */
    virtual double dramMbPerUnit() = 0;
    /** The metrics of the layer this workload is the home of (graph,
     *  boot or serve); see README "Per-layer metrics". */
    virtual std::vector<Metric> homeLayerMetrics() = 0;
    virtual Fixture& fixture() = 0;
};

std::unique_ptr<Workload> makeLrTrain(u64 seed);
std::unique_ptr<Workload> makeBootstrap(u64 seed);
std::unique_ptr<Workload> makeServeMixed(u64 seed);
std::unique_ptr<Workload> makeWorkload(const std::string& name, u64 seed);

/** The 8-diagonal transform MatVec requests and the matvec probe apply
 *  (real entries in [-0.5, 0.5), drawn from `seed`). */
std::map<int, std::vector<std::complex<double>>> mixDiagonals(size_t slots,
                                                              u64 seed);

/** Per-layer metrics measured on any fixture: rns, ckks key switch,
 *  evaluator, matvec and encrypt/decrypt (layers.cpp). */
std::vector<Metric> fixtureLayerMetrics(Fixture& fx);

} // namespace madbench

#endif // MADBENCH_WORKLOAD_H
