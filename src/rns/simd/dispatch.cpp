#include "rns/simd/simd.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

namespace madfhe {
namespace simd {

namespace {

const Kernels*
tableFor(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return scalarKernels();
    case Backend::Avx2:
        return avx2Kernels();
    case Backend::Avx512:
        return avx512Kernels();
    }
    return nullptr;
}

/** Widest supported backend at or below `want`. */
Backend
bestAtMost(Backend want)
{
    if (want == Backend::Avx512 && supported(Backend::Avx512))
        return Backend::Avx512;
    if (want >= Backend::Avx2 && supported(Backend::Avx2))
        return Backend::Avx2;
    return Backend::Scalar;
}

Backend
resolveFromEnv()
{
    const char* env = std::getenv("MADFHE_SIMD");
    if (!env || std::strcmp(env, "auto") == 0)
        return bestAtMost(Backend::Avx512);
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0)
        return Backend::Scalar;
    Backend want;
    if (std::strcmp(env, "avx2") == 0)
        want = Backend::Avx2;
    else if (std::strcmp(env, "avx512") == 0)
        want = Backend::Avx512;
    else
        throw UserError("MADFHE_SIMD must be off|avx2|avx512|auto",
                        __FILE__, __LINE__);
    if (!supported(want)) {
        Backend got = bestAtMost(want);
        std::fprintf(stderr,
                     "madfhe: MADFHE_SIMD=%s not supported on this CPU/"
                     "build, falling back to %s\n",
                     env, backendName(got));
        return got;
    }
    return want;
}

/** Active table; resolved lazily, swappable by setBackend (tests). */
std::atomic<const Kernels*> g_active{nullptr};

const Kernels*
resolveOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const Kernels* t = tableFor(resolveFromEnv());
        MAD_CHECK(t != nullptr, "SIMD dispatch resolved to a null table");
        g_active.store(t, std::memory_order_release);
    });
    return g_active.load(std::memory_order_acquire);
}

} // namespace

Fold128
foldFor(const Modulus& q)
{
    const u64 r64 = q.reduce128(static_cast<u128>(1) << 64);
    const u64 r52 = q.reduce128(static_cast<u128>(1) << 52);
    return {q.value(),
            r64,
            q.shoupPrecompute(r64),
            q.shoupPrecompute(1),
            r52,
            static_cast<u64>((static_cast<u128>(r52) << 52) / q.value()),
            (1ULL << 52) / q.value()};
}

const Kernels*
avx512Kernels()
{
    const Kernels* ifma = avx512IfmaKernels();
    return ifma ? ifma : avx512NoIfmaKernels();
}

bool
supported(Backend b)
{
    return tableFor(b) != nullptr;
}

const Kernels&
kernels()
{
    const Kernels* t = g_active.load(std::memory_order_acquire);
    return t ? *t : *resolveOnce();
}

Backend
backend()
{
    const Kernels& k = kernels();
    if (&k == avx512IfmaKernels() || &k == avx512NoIfmaKernels())
        return Backend::Avx512;
    if (&k == avx2Kernels())
        return Backend::Avx2;
    return Backend::Scalar;
}

void
setBackend(Backend b)
{
    setKernels(tableFor(b));
}

void
setKernels(const Kernels* t)
{
    MAD_REQUIRE(t != nullptr,
            "requested SIMD backend is not supported on this CPU/build");
    resolveOnce(); // keep the once-flag consumed before overriding
    g_active.store(t, std::memory_order_release);
}

const char*
backendName(Backend b)
{
    switch (b) {
    case Backend::Scalar:
        return "scalar";
    case Backend::Avx2:
        return "avx2";
    case Backend::Avx512:
        return "avx512";
    }
    return "?";
}

const char*
activeName()
{
    return kernels().name;
}

const char*
activeSpanLabel()
{
    return kernels().span_label;
}

} // namespace simd
} // namespace madfhe
