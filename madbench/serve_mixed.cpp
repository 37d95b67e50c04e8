/**
 * @file
 * serve_mixed: serve::Server on the real backend at the kernel-bench
 * parameters (N = 2^13, 6 + 2 limbs, dnum 3). Six tenants register
 * seed-compressed keys behind a key cache that holds fewer bytes than
 * their working set; two clients in one process drive a closed loop of
 * wire frames (submitFrame), each request for a Zipf-drawn tenant. A
 * round is EvalMul, hoisted Rotate, MatVec on the registered transform,
 * EvalAdd, Put and Get. The only workload where key-cache re-expansion,
 * the batcher, the wire codec and the governor do work.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "ckks/matvec.h"
#include "ckks/serialize.h"
#include "serve/server.h"
#include "support/random.h"
#include "telemetry/telemetry.h"
#include "workload.h"

namespace madbench {

using namespace madfhe;

namespace {

constexpr size_t kTenants = 6;
constexpr size_t kClients = 2;
constexpr double kZipfS = 1.1;
/** Share of the tenants' expanded a-half bytes the key cache may hold. */
constexpr double kCacheShare = 0.4;
const std::vector<int> kHoistedSteps = {1, 2, 3};

enum OpSlot : size_t
{
    kMul,
    kRotate,
    kMatVec,
    kAdd,
    kPut,
    kGet,
    kOpsPerRound
};

struct Tenant
{
    u64 id = 0;
    SecretKey sk;
    SwitchingKey rlk; ///< expanded, client side (the bare-evaluator path)
    GaloisKeys gks;
    serve::TenantKeys compressed; ///< what the server registers
    std::vector<std::complex<double>> x_msg, y_msg;
    Ciphertext x, y;
    std::string x_bytes; ///< serialized x: what Get must return
    u64 want[kOpsPerRound] = {};
};

/** Zipf(s) over tenant ranks: inverse CDF of a seeded uniform draw. */
class Zipf
{
  public:
    Zipf(size_t n, double s, u64 seed) : rng(seed)
    {
        double total = 0;
        for (size_t r = 0; r < n; ++r) {
            total += 1.0 / std::pow(static_cast<double>(r + 1), s);
            cdf.push_back(total);
        }
        for (double& c : cdf)
            c /= total;
    }

    size_t
    next()
    {
        const double u = rng.uniformReal();
        return std::min<size_t>(
            static_cast<size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin()),
            cdf.size() - 1);
    }

  private:
    Prng rng;
    std::vector<double> cdf;
};

std::string
serialized(const Ciphertext& ct)
{
    std::ostringstream os;
    saveCiphertext(os, ct);
    return os.str();
}

class ServeMixed final : public Workload
{
  public:
    explicit ServeMixed(u64 seed) : seed(seed) {}

    void
    setup() override
    {
        CkksParams p;
        p.log_n = 13;
        p.log_scale = 40;
        p.first_prime_bits = 45;
        p.num_levels = 5;
        p.dnum = 3;
        fx = std::make_unique<Fixture>(p, seed);
        const CkksContext& ctx = *fx->ctx;
        diags = mixDiagonals(ctx.slots(), seed);
        mix = std::make_unique<LinearTransform>(fx->ctx, diags, ctx.scale());
        std::vector<int> steps = mix->requiredRotations();
        steps.insert(steps.end(), kHoistedSteps.begin(), kHoistedSteps.end());
        std::sort(steps.begin(), steps.end());
        steps.erase(std::unique(steps.begin(), steps.end()), steps.end());

        tenants.resize(kTenants);
        size_t key_bytes = 0;
        for (size_t i = 0; i < kTenants; ++i) {
            Tenant& t = tenants[i];
            t.sk = fx->keygen.secretKey();
            const PublicKey pk = fx->keygen.publicKey(t.sk);
            t.rlk = fx->keygen.relinKey(t.sk);
            t.gks = fx->keygen.galoisKeys(t.sk, steps);
            t.compressed.pk = pk;
            t.compressed.rlk = t.rlk;
            t.compressed.rlk.compress();
            t.compressed.gks = t.gks;
            for (auto& kv : t.compressed.gks)
                kv.second.compress();
            key_bytes += t.rlk.aBytes() * (1 + t.gks.size());

            Encryptor enc(fx->ctx, pk, seed * 131 + i);
            t.x_msg = fx->randomSlots(100 + 2 * i, 0.5);
            t.y_msg = fx->randomSlots(101 + 2 * i, 0.5);
            t.x = enc.encrypt(fx->encoder.encode(t.x_msg, ctx.scale(),
                                                 ctx.maxLevel()));
            t.y = enc.encrypt(fx->encoder.encode(t.y_msg, ctx.scale(),
                                                 ctx.maxLevel()));
            t.x_bytes = serialized(t.x);
        }
        cache_budget = static_cast<size_t>(kCacheShare *
                                           static_cast<double>(key_bytes));
        server = startServer();

        // Warm-up: every (tenant, op) once, serially, checked against the
        // plaintext op; the response digests become what the timed phase
        // must reproduce.
        for (size_t i = 0; i < kTenants; ++i)
            for (size_t op = 0; op < kOpsPerRound; ++op) {
                const serve::Response resp = roundTrip(*server, i, op);
                checked.merge(checkResponse(i, op, resp));
                tenants[i].want[op] = digest(resp.cts);
            }
    }

    const CheckResult& check() const override { return checked; }

    TimedPhase
    runTimed(double seconds, bool interleave_spans) override
    {
        return runClients(*server, seconds, interleave_spans);
    }

    /** A fresh server (cold key cache) serving a fixed sequence, one
     *  request at a time, so batch shapes and misses repeat exactly. */
    double
    dramMbPerUnit() override
    {
        const std::unique_ptr<serve::Server> cold = startServer();
        const memtrace::Trace trace = traceOf([&] {
            for (size_t i = 0; i < kTenants; ++i)
                for (size_t op = 0; op < kOpsPerRound; ++op)
                    roundTrip(*cold, i, op);
        });
        return replayedDramMb(fx->ctx->params(), trace) /
               static_cast<double>(kTenants * kOpsPerRound);
    }

    std::vector<Metric>
    homeLayerMetrics() override
    {
        std::vector<Metric> out;
        const Tenant& t0 = tenants[0];
        {
            const serve::Request req = makeRequest(0, kMul, 1);
            const auto ring = fx->ctx->ring();
            out.push_back({"serve.frame_codec_us",
                           1000 * medianMs(15,
                                           [&] {
                                               (void)serve::decodeRequest(
                                                   serve::encodeRequest(req),
                                                   ring);
                                           }),
                           "us"});
        }
        {
            std::vector<SwitchingKey> keys(6, t0.compressed.rlk);
            std::vector<double> ms;
            for (SwitchingKey& k : keys) {
                const auto s = Clock::now();
                k.expandA(*fx->ctx);
                ms.push_back(msSince(s));
            }
            out.push_back({"serve.key_expand_ms", median(ms), "ms"});
        }
        {
            // A short closed-loop phase with counters on: cache and
            // batcher behaviour under the workload's own traffic.
            const serve::KeyCache::Stats s0 = server->keyCacheStats();
            telemetry::Histogram& batch_hist =
                telemetry::histogram("serve.batch.size");
            const telemetry::HistogramSnapshot b0 = batch_hist.snapshot();
            telemetry::setLevel(telemetry::Level::Counters);
            const TimedPhase ph = runClients(*server, 2.0, false);
            telemetry::setLevel(telemetry::Level::Off);
            const serve::KeyCache::Stats s1 = server->keyCacheStats();
            const telemetry::HistogramSnapshot b1 = batch_hist.snapshot();
            const double hits = static_cast<double>(s1.hits - s0.hits);
            const double misses = static_cast<double>(s1.misses - s0.misses);
            const double requests = static_cast<double>(ph.attempted);
            out.push_back({"serve.keycache_hit_ratio",
                           hits / std::max(1.0, hits + misses), "ratio"});
            out.push_back({"serve.expansions_per_request",
                           misses / std::max(1.0, requests), "count"});
            out.push_back({"serve.batch_size_mean",
                           static_cast<double>(b1.sum - b0.sum) /
                               std::max<double>(1, b1.count - b0.count),
                           "count"});
        }
        {
            // Served latency minus a bare Evaluator running the same op
            // on the same operands, one request at a time.
            const Evaluator& ev = fx->eval;
            const std::pair<OpSlot, std::function<void()>> bare[] = {
                {kMul, [&] { (void)ev.mul(t0.x, t0.y, t0.rlk); }},
                {kRotate,
                 [&] { (void)ev.rotateHoisted(t0.x, kHoistedSteps, t0.gks); }},
                {kMatVec,
                 [&] { (void)mix->apply(ev, fx->encoder, t0.x, t0.gks); }},
                {kAdd, [&] { (void)ev.add(t0.x, t0.y); }},
            };
            double wait = 0;
            for (const auto& [op, fn] : bare) {
                const double served =
                    medianMs(5, [&] { roundTrip(*server, 0, op); });
                wait += served - medianMs(5, fn);
            }
            out.push_back({"serve.wait_ms", wait / std::size(bare), "ms"});
        }
        return out;
    }

    Fixture& fixture() override { return *fx; }

  private:
    std::unique_ptr<serve::Server>
    startServer()
    {
        serve::ServerOptions opts;
        opts.backend = BackendKind::Real;
        opts.keycache_bytes = cache_budget;
        opts.max_batch = 8;
        opts.default_deadline_ms = 0;
        auto s = std::make_unique<serve::Server>(fx->ctx, opts);
        s->registerTransform("mix", *mix);
        for (Tenant& t : tenants) {
            // Ids follow registration order, the same on every server
            // this workload starts; the request builder relies on it.
            const u64 id = s->addTenant(t.compressed);
            if (t.id != 0 && t.id != id)
                throw std::runtime_error("tenant id changed between servers");
            t.id = id;
        }
        return s;
    }

    serve::Request
    makeRequest(size_t tenant, size_t op, u64 id) const
    {
        const Tenant& t = tenants[tenant];
        serve::Request req;
        req.tenant = t.id;
        req.id = id;
        switch (op) {
        case kMul:
            req.op = serve::Op::EvalMul;
            req.cts = {t.x, t.y};
            break;
        case kRotate:
            req.op = serve::Op::Rotate;
            req.steps = kHoistedSteps;
            req.cts = {t.x};
            break;
        case kMatVec:
            req.op = serve::Op::MatVec;
            req.name = "mix";
            req.cts = {t.x};
            break;
        case kAdd:
            req.op = serve::Op::EvalAdd;
            req.cts = {t.x, t.y};
            break;
        case kPut:
            req.op = serve::Op::Put;
            req.name = "slot";
            req.cts = {t.x};
            break;
        default:
            req.op = serve::Op::Get;
            req.name = "slot";
            break;
        }
        return req;
    }

    /** One request as a remote client sees it: encode the frame, submit,
     *  wait, and decode the response from its own wire frame. */
    serve::Response
    roundTrip(serve::Server& s, size_t tenant, size_t op)
    {
        const u64 id = next_id.fetch_add(1);
        serve::Response resp =
            s.submitFrame(serve::encodeRequest(makeRequest(tenant, op, id)))
                .get();
        return serve::decodeResponse(serve::encodeResponse(resp),
                                     fx->ctx->ring());
    }

    CheckResult
    checkResponse(size_t tenant, size_t op, const serve::Response& resp)
    {
        const Tenant& t = tenants[tenant];
        CheckResult r;
        if (!resp.ok) {
            std::fprintf(stderr, "madbench: serve error: %s\n",
                         resp.error.c_str());
            r.ok = false;
            return r;
        }
        Decryptor dec(fx->ctx, t.sk);
        auto decrypt = [&](const Ciphertext& ct) {
            return fx->encoder.decode(dec.decrypt(ct));
        };
        const size_t n = fx->ctx->slots();
        const size_t expect_cts =
            op == kRotate ? kHoistedSteps.size() : op == kPut ? 0 : 1;
        if (resp.cts.size() != expect_cts)
            return {false, INFINITY};
        constexpr double kTol = 1e-3;
        switch (op) {
        case kMul:
            return checkSlots(decrypt(resp.cts[0]), plainMul(t.x_msg, t.y_msg),
                              n, kTol);
        case kRotate:
            for (size_t k = 0; k < kHoistedSteps.size(); ++k)
                r.merge(checkSlots(decrypt(resp.cts[k]),
                                   plainRotate(t.x_msg, kHoistedSteps[k]), n,
                                   kTol));
            return r;
        case kMatVec:
            return checkSlots(decrypt(resp.cts[0]),
                              plainMatVec(diags, t.x_msg), n, kTol);
        case kAdd:
            return checkSlots(decrypt(resp.cts[0]), plainAdd(t.x_msg, t.y_msg),
                              n, kTol);
        case kPut:
            return r;
        default:
            return checkSameBytes(serialized(resp.cts[0]), t.x_bytes);
        }
    }

    /**
     * kClients closed-loop clients, each running whole rounds until
     * `seconds` have passed. With `interleave_spans` this thread flips
     * telemetry spans on and off every 200 ms; a request counts toward
     * the overhead ratio when it started and ended in the same state.
     */
    TimedPhase
    runClients(serve::Server& s, double seconds, bool interleave_spans)
    {
        struct ClientLog
        {
            std::vector<double> ms, on, off;
            u64 attempted = 0, failed = 0;
            bool outputs_ok = true;
        };
        std::vector<ClientLog> logs(kClients);
        std::atomic<size_t> running{kClients};
        const auto t0 = Clock::now();
        {
            std::vector<std::jthread> clients;
            for (size_t c = 0; c < kClients; ++c)
                clients.emplace_back([&, c] {
                    ClientLog& log = logs[c];
                    Zipf zipf(kTenants, kZipfS, seed * 7 + c + 1);
                    while (secondsSince(t0) < seconds) {
                        for (size_t op = 0; op < kOpsPerRound; ++op) {
                            const size_t tenant = zipf.next();
                            const bool spans_at_start = telemetry::enabled(
                                telemetry::Level::Spans);
                            const auto u0 = Clock::now();
                            ++log.attempted;
                            try {
                                const serve::Response resp =
                                    roundTrip(s, tenant, op);
                                const double ms = msSince(u0);
                                if (!resp.ok) {
                                    ++log.failed;
                                    continue;
                                }
                                log.ms.push_back(ms);
                                if (spans_at_start ==
                                    telemetry::enabled(telemetry::Level::Spans))
                                    (spans_at_start ? log.on : log.off)
                                        .push_back(ms);
                                if (digest(resp.cts) !=
                                    tenants[tenant].want[op])
                                    log.outputs_ok = false;
                            } catch (const std::exception& e) {
                                std::fprintf(stderr, "madbench: client: %s\n",
                                             e.what());
                                ++log.failed;
                            }
                        }
                    }
                    --running;
                });
            bool spans = false;
            while (interleave_spans && running.load() > 0) {
                std::this_thread::sleep_for(std::chrono::milliseconds(200));
                spans = !spans;
                telemetry::setLevel(spans ? telemetry::Level::Spans
                                          : telemetry::Level::Off);
            }
        } // jthreads join here
        if (interleave_spans)
            telemetry::setLevel(telemetry::Level::Off);

        TimedPhase ph;
        ph.elapsed_s = secondsSince(t0);
        std::vector<double> on, off;
        for (const ClientLog& log : logs) {
            ph.latencies_ms.insert(ph.latencies_ms.end(), log.ms.begin(),
                                   log.ms.end());
            on.insert(on.end(), log.on.begin(), log.on.end());
            off.insert(off.end(), log.off.begin(), log.off.end());
            ph.attempted += log.attempted;
            ph.failed += log.failed;
            ph.outputs_ok = ph.outputs_ok && log.outputs_ok;
        }
        if (interleave_spans && !on.empty() && !off.empty())
            ph.trace_overhead = median(on) / median(off);
        return ph;
    }

    u64 seed;
    std::unique_ptr<Fixture> fx;
    std::map<int, std::vector<std::complex<double>>> diags;
    std::unique_ptr<LinearTransform> mix;
    std::vector<Tenant> tenants;
    size_t cache_budget = 0;
    std::unique_ptr<serve::Server> server;
    std::atomic<u64> next_id{1};
    CheckResult checked;
};

} // namespace

std::unique_ptr<Workload>
makeServeMixed(u64 seed)
{
    return std::make_unique<ServeMixed>(seed);
}

} // namespace madbench
