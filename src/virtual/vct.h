/**
 * @file
 * Virtual-ciphertext codec: how the virtual backend smuggles plaintext
 * slot values and analytic noise state through the standard `Ciphertext`
 * type, so the entire serving stack (wire frames, serialize-v2
 * validation, KV store, batch keys, level-based admission) runs
 * unchanged.
 *
 * Layout (a "packed" virtual ciphertext at logical level l):
 *  - c0/c1 are single-limb (q0-only) RnsPolys over the real ring
 *    context in Rep::Coeff. One limb regardless of level keeps the
 *    carrier O(N) — copying requests/responses through the serving
 *    queues is the virtual backend's dominant cost, and a full l-limb
 *    carrier would scale it with the modulus chain for no information
 *    gain (the extra limbs would be all-zero padding).
 *  - Slot k's real part (a double) is split into two 32-bit halves
 *    stored in bits [0,32) of c0.limb(0)[2k] and c0.limb(0)[2k+1]; the
 *    imaginary part likewise in c1.limb(0). N = 2*slots coefficients
 *    exactly hold the payload.
 *  - Metadata rides in bits [32,44) of the first coefficients of
 *    c0.limb(0): two magic words, a format version, the noise estimate
 *    (log2 slot error) as chunked double bits, and the logical level
 *    (ct.level() of the carrier is always 1; the state machine runs on
 *    the metadata level).
 *
 * Every stored coefficient is < 2^44, so the payload passes the
 * serialize-v2 "coefficient < modulus" validation as long as q0 has at
 * least 45 bits and every other prime more than 32 — true of all
 * shipped parameter presets. `requirePackable` checks this once.
 */
#ifndef MADFHE_VIRTUAL_VCT_H
#define MADFHE_VIRTUAL_VCT_H

#include <complex>
#include <string>
#include <vector>

#include "ckks/shape.h"

namespace madfhe {
namespace vbackend {

/** The unpacked state a virtual ciphertext carries: its (level, scale)
 *  shape, its slot values and its noise estimate. */
struct VirtualView : shape::Shape
{
    std::vector<std::complex<double>> slots; ///< one per context slot
    /** log2 upper bound on |decoded - true| per slot (NoiseBound). */
    double noise_log2 = -1e9;

    /** Largest |slot| — the magnitude bound noise tracking feeds on. */
    double magnitude() const;
};

/** Throws UserError when the parameter set cannot hold the packed
 *  payload (q0 < 45 bits or a scale prime <= 2^33). */
void requirePackable(const CkksContext& ctx);

/** True when `ct` carries the virtual magic words. */
bool isVirtualCiphertext(const Ciphertext& ct);

/** Pack a view into a wire-valid Ciphertext (slots padded/truncated to
 *  the context slot count; level must be in [1, maxLevel]). */
Ciphertext packVirtual(const CkksContext& ctx, const VirtualView& v);

/** Unpack; throws UserError when `ct` is not a virtual ciphertext. */
VirtualView unpackVirtual(const CkksContext& ctx, const Ciphertext& ct);

/** Canonical value digest of a packed virtual ciphertext: FNV-1a over
 *  (level, scale bits, noise bits, slot value bits). Two virtual
 *  ciphertexts digest equal iff they are value-identical. */
std::string virtualDigest(const CkksContext& ctx, const Ciphertext& ct);

} // namespace vbackend
} // namespace madfhe

#endif // MADFHE_VIRTUAL_VCT_H
