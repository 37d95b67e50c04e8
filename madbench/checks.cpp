#include "checks.h"

#include <algorithm>
#include <cmath>

namespace madbench {

void
CheckResult::merge(const CheckResult& o)
{
    ok = ok && o.ok;
    max_abs_err = std::max(max_abs_err, o.max_abs_err);
}

CheckResult
checkSlots(const std::vector<std::complex<double>>& got,
           const std::vector<std::complex<double>>& want, size_t count,
           double tol)
{
    CheckResult r;
    if (got.size() < count || want.size() < count) {
        r.ok = false;
        r.max_abs_err = INFINITY;
        return r;
    }
    for (size_t i = 0; i < count; ++i) {
        const double e = std::abs(got[i] - want[i]);
        // NaN compares false everywhere; treat it as the worst error.
        r.max_abs_err = std::isnan(e) ? INFINITY : std::max(r.max_abs_err, e);
    }
    r.ok = r.max_abs_err <= tol;
    return r;
}

CheckResult
checkLrModel(const std::vector<double>& enc_weights,
             const std::vector<double>& ref_weights, double enc_accuracy,
             double ref_accuracy, double tol, double acc_tol)
{
    CheckResult r;
    if (enc_weights.size() != ref_weights.size() || enc_weights.empty()) {
        r.ok = false;
        r.max_abs_err = INFINITY;
        return r;
    }
    for (size_t j = 0; j < enc_weights.size(); ++j) {
        const double e = std::abs(enc_weights[j] - ref_weights[j]);
        r.max_abs_err = std::isnan(e) ? INFINITY : std::max(r.max_abs_err, e);
    }
    r.ok = r.max_abs_err <= tol &&
           std::abs(enc_accuracy - ref_accuracy) <= acc_tol;
    return r;
}

CheckResult
checkSameBytes(const std::string& got, const std::string& want)
{
    CheckResult r;
    r.ok = got == want;
    return r;
}

std::vector<std::complex<double>>
plainMul(const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b)
{
    std::vector<std::complex<double>> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] * b[i];
    return out;
}

std::vector<std::complex<double>>
plainAdd(const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b)
{
    std::vector<std::complex<double>> out(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] + b[i];
    return out;
}

std::vector<std::complex<double>>
plainRotate(const std::vector<std::complex<double>>& a, int steps)
{
    const long n = static_cast<long>(a.size());
    std::vector<std::complex<double>> out(a.size());
    for (long i = 0; i < n; ++i)
        out[i] = a[static_cast<size_t>(((i + steps) % n + n) % n)];
    return out;
}

std::vector<std::complex<double>>
plainMatVec(const std::map<int, std::vector<std::complex<double>>>& diagonals,
            const std::vector<std::complex<double>>& a)
{
    std::vector<std::complex<double>> out(a.size());
    for (const auto& [k, d] : diagonals) {
        const auto rotated = plainRotate(a, k);
        for (size_t i = 0; i < a.size(); ++i)
            out[i] += d[i] * rotated[i];
    }
    return out;
}

} // namespace madbench
