/**
 * @file
 * Runtime-dispatched SIMD kernels for the modular hot loops: Harvey lazy
 * NTT/iNTT butterfly stages, Shoup/Barrett pointwise modular multiplies,
 * the NewLimb fast basis extension and the key-switch inner product.
 *
 * The backend is resolved once per process from `MADFHE_SIMD`
 * (`off|avx2|avx512|auto`, default `auto`) intersected with CPUID
 * feature bits; the scalar table is the always-correct fallback and the
 * reference semantics. On CPUs with avx512ifma, the AVX-512 backend runs
 * IFMA52 bodies of `newlimb`, `mac` and the broadcast Shoup kernels for
 * moduli below 2^50. Every vector kernel is *bit-exact* against the
 * scalar implementation — not merely value-equal modulo q but identical
 * canonical residues in [0, q) — so memtrace replay, the 1-vs-N-thread
 * determinism suite and seed-compressed ciphertext expansion remain
 * valid under any backend.
 *
 * Lazy-reduction invariant: the butterfly kernels keep coefficients in
 * [0, 4q) across stages (Harvey), which is overflow-free exactly when
 * q < 2^62 (4q < 2^64). That bound is enforced by `Modulus` and at
 * prime generation (rns/primegen.cpp); the kernels assume it.
 */
#ifndef MADFHE_RNS_SIMD_SIMD_H
#define MADFHE_RNS_SIMD_SIMD_H

#include "rns/modarith.h"

namespace madfhe {
namespace simd {

enum class Backend : u8
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

/** Moduli below this bound qualify for the fused FP transform (values
 *  convert to double exactly, with room for its growth ledger) and for
 *  the IFMA52 bodies (2q < 2^51, so every lazy Shoup result fits the
 *  52-bit multiplier inputs). */
constexpr u64 kNarrowModulusBound = 1ULL << 50;

/**
 * Constants that fold a lazy sum of products into [0, q).
 *
 * The 64-bit bodies keep a 128-bit sum hi * 2^64 + lo and fold it as
 * hi * (2^64 mod q) by Shoup plus lo reduced with the quotient estimate
 * floor(lo * pre1 / 2^64), pre1 = floor(2^64 / q).
 *
 * The IFMA52 bodies (q < kNarrowModulusBound) keep two 64-bit sums of
 * 52-bit product halves, lo + hi * 2^52, and fold them with the
 * 52-bit Shoup constants below: hi * (2^52 mod q) and lo mod q.
 */
struct Fold128
{
    u64 q;
    u64 r64;       ///< 2^64 mod q
    u64 r64_shoup; ///< shoupPrecompute(r64)
    u64 pre1;      ///< floor(2^64 / q) = shoupPrecompute(1)
    u64 r52;       ///< 2^52 mod q
    u64 r52_shoup; ///< floor(r52 * 2^52 / q), the 52-bit Shoup constant
    u64 pre52;     ///< floor(2^52 / q)
};

/** Fold128 constants of modulus q. It divides 128-bit values three
 *  times: build it once per modulus, not per kernel call. */
Fold128 foldFor(const Modulus& q);

/** A NewLimb target modulus p: its fold constants plus Q mod p (the
 *  source-basis product) and that value's Shoup preconditioner, for the
 *  ConvMode::SignedExact correction. */
struct NewLimbTarget
{
    Fold128 fold;
    u64 q_mod;
    u64 q_mod_shoup;
    /** (p - Q mod p) mod p: the IFMA body adds us * neg_q_mod as one
     *  more product instead of subtracting us * (Q mod p). */
    u64 neg_q_mod;
    /** Every source modulus is below kNarrowModulusBound, so source
     *  residues fit the 52-bit multiplier inputs. */
    bool narrow_sources;
};

/**
 * The dispatch table. All kernels operate on u64 residue arrays and
 * produce canonical outputs bit-identical to the scalar table.
 */
struct Kernels
{
    /** Backend display name ("scalar", "avx2", "avx512"). */
    const char* name;
    /** Telemetry span label ("simd.scalar", ...); a string literal. */
    const char* span_label;
    /** Native lane width in u64 (1, 4, 8). */
    size_t lanes;

    /**
     * One Harvey lazy butterfly stage of half-size m over p[0, n):
     * for every block i (step 2m) and j in [0, m),
     *   x = p[i+j] (conditionally reduced under 2q),
     *   y = mulShoupLazy(p[i+j+m], tw[j], tw_shoup[j]),
     *   p[i+j] = x + y, p[i+j+m] = x + 2q - y.
     * Values stay in [0, 4q); requires q < 2^62. `tw`/`tw_shoup` point
     * at the stage slice (NttTables::omega_tw.data() + m).
     */
    void (*ntt_stage)(u64* p, size_t n, size_t m, const u64* tw,
                      const u64* tw_shoup, u64 q, u64 two_q);

    /** Final lazy-NTT cleanup: map p[i] from [0, 4q) into [0, q). */
    void (*reduce_4q)(u64* p, size_t n, u64 q, u64 two_q);

    /**
     * Twist/untwist with a twiddle table:
     * a[i] = mulShoup(a[i], w[i], w_shoup[i]) for i in [0, n).
     */
    void (*mul_shoup_vec)(u64* a, const u64* w, const u64* w_shoup,
                          size_t n, u64 q);

    /**
     * Broadcast Shoup multiply: dst[i] = mulShoup(src[i], w, w_shoup)
     * for src[i] < q (the IFMA52 body, q < 2^50, reads 52 bits of each
     * input). dst may alias src (in-place).
     */
    void (*mul_shoup_scalar)(u64* dst, const u64* src, size_t n, u64 w,
                             u64 w_shoup, u64 q);

    /** Pointwise Barrett multiply: a[i] = a[i] * b[i] mod q. */
    void (*mul_mod_vec)(u64* a, const u64* b, size_t n, const Modulus& q);

    /** Fused multiply-add: dst[i] = (dst[i] + a[i] * b[i] mod q) mod q. */
    void (*add_mul_mod_vec)(u64* dst, const u64* a, const u64* b, size_t n,
                            const Modulus& q);

    /**
     * NewLimb (Equation 1) into one whole target limb:
     *   out[c] = (sum_i src[i][c] * punct[i] - us[c] * (Q mod p)) mod p
     * for c in [0, n), with the us term dropped when `us` is null
     * (ConvMode::Approx). `src` holds k pointers to canonical scaled
     * source residues. Products are summed lazily in 128 bits and
     * folded every 16 terms; us[c] * (Q mod p) is a Shoup multiply. The
     * IFMA52 body runs instead when p is below kNarrowModulusBound and
     * t.narrow_sources holds.
     */
    void (*newlimb)(const u64* const* src, size_t k, const u64* us,
                    size_t n, const u64* punct, const NewLimbTarget& t,
                    u64* out);

    /**
     * Key-switch inner product for one limb position:
     *   u[c] = (sum_j d[j][c] * b[j][c] + lift_u[c] * lift_w) mod q
     *   v[c] = (sum_j d[j][c] * a[j][c] + lift_v[c] * lift_w) mod q
     * over `terms` digits, with the lift terms dropped when lift_u and
     * lift_v are null. Each d[j] is loaded once for both outputs, and the
     * sums are accumulated lazily in 128 bits with the NewLimb fold.
     * All inputs are canonical residues mod q; the IFMA52 body runs
     * instead when q is below kNarrowModulusBound. u and v may alias
     * any d[j]: every coefficient's inputs are read before its outputs
     * are written.
     */
    void (*mac)(const u64* const* d, const u64* const* b,
                const u64* const* a, size_t terms, const u64* lift_u,
                const u64* lift_v, u64 lift_w, size_t n, const Fold128& f,
                u64* u, u64* v);

    /**
     * Optional fused whole-NTT kernel: a decimation-in-time transform
     * that reads p in bit-reversed order, runs every butterfly stage
     * with the stage twiddles tw (stage m's slice at tw + m, as in
     * ntt_stage), writes natural order, then multiplies pointwise by
     * `post` when it is non-null, leaving canonical residues in p. The
     * caller supplies the tables as doubles (exact images of u64
     * tables, precomputed by NttTables when q < 2^50): the forward
     * transform passes its negacyclic twiddles, which fold the psi^i
     * twist into the stages, and no post table; the inverse passes the
     * cyclic inverse twiddles and the fused untwist-and-scale table.
     * Returns false when (q, n) is outside the kernel's domain (q at or
     * above 2^50, or n below lanes^2) — the caller must then run the
     * unfused path (twist / bitrev / stages / reduce). Null on backends
     * without one.
     *
     * The vector backends implement this with the error-free FMA
     * modmul (Dekker product + quotient rounding): every intermediate
     * is an exactly-representable integer, so outputs are bit-identical
     * to the scalar path while a modular multiply costs ~6 FP ops
     * instead of ten 32x32 partial products.
     */
    bool (*fp_transform)(u64* p, size_t n, const double* tw,
                         const double* post, u64 q);

    /**
     * Overshoot count of ConvMode::SignedExact:
     *   us[c] = floor(0.5L + sum_i x[i][c] * inv_q_ld[i])
     * summed in long double in ascending i — the scalar table computes
     * exactly that. A vector body may estimate the sum in double
     * (`inv_q` holds 1/q_i rounded to double) and must recompute with
     * the long-double formula every lane whose estimate lies within its
     * error margin of an integer, so us is identical on every backend.
     */
    void (*overshoot)(const u64* const* x, size_t k, const double* inv_q,
                      const long double* inv_q_ld, size_t n, u64* us);

    /**
     * ModDown subtract-and-scale:
     *   dst[c] = mulShoup((x[c] - y[c]) mod q, w, w_shoup)
     * for canonical x, y. dst may alias x.
     */
    void (*sub_mul_shoup)(u64* dst, const u64* x, const u64* y, size_t n,
                          u64 w, u64 w_shoup, u64 q);

    /** a[i] = (a[i] + b[i]) mod q for canonical a, b. */
    void (*add_mod_vec)(u64* a, const u64* b, size_t n, u64 q);

    /** a[i] = (a[i] - b[i]) mod q for canonical a, b. */
    void (*sub_mod_vec)(u64* a, const u64* b, size_t n, u64 q);

    /**
     * Signed lift: dst[i] = src[i] mod q in [0, q) for any 64-bit
     * signed src[i], INT64_MIN included (Modulus::fromSigned per
     * coefficient). dst and src may alias.
     */
    void (*from_signed)(u64* dst, const i64* src, size_t n, u64 q);
};

/** True when this process can execute `b` (CPUID + compile support). */
bool supported(Backend b);

/**
 * The active backend. First call resolves MADFHE_SIMD against CPUID:
 * `auto` (default) picks the widest supported backend, `off` forces
 * scalar, and an explicitly requested but unsupported backend degrades
 * to the widest available one with a one-time stderr warning. An
 * unrecognized value throws UserError.
 */
Backend backend();

/** Dispatch table of the active backend. */
const Kernels& kernels();

/** Programmatic override (tests, perf_gate); requires supported(b). */
void setBackend(Backend b);

/** Internal: install one per-ISA table directly (tests comparing the
 *  IFMA52 and 64-bit AVX-512 bodies); `t` must be runnable. */
void setKernels(const Kernels* t);

/** Display name of `b` ("scalar", "avx2", "avx512"). */
const char* backendName(Backend b);

/** Display name of the active backend. */
const char* activeName();

/** Telemetry span label of the active backend ("simd.avx2", ...). */
const char* activeSpanLabel();

/**
 * Internal: per-ISA tables; null when not compiled or not runnable.
 * avx512Kernels() is the table Backend::Avx512 runs: the IFMA52 table
 * when the CPU reports avx512ifma, else the 64-bit one. The other two
 * name one body set each.
 */
const Kernels* scalarKernels();
const Kernels* avx2Kernels();
const Kernels* avx512Kernels();
const Kernels* avx512NoIfmaKernels();
const Kernels* avx512IfmaKernels();

} // namespace simd
} // namespace madfhe

#endif // MADFHE_RNS_SIMD_SIMD_H
