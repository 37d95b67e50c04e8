/**
 * @file
 * Output checks: every workload compares what the library returned with
 * a computation made here, apart from the library. Each check returns
 * the largest absolute error it saw (for precision_bits) and whether
 * the result is acceptable; the benchmark's tests feed each one a
 * deliberately wrong result to show that it can fail.
 */
#ifndef MADBENCH_CHECKS_H
#define MADBENCH_CHECKS_H

#include <complex>
#include <map>
#include <string>
#include <vector>

namespace madbench {

struct CheckResult
{
    bool ok = true;
    double max_abs_err = 0;

    /** Fold another check into this one (all must pass; worst error). */
    void merge(const CheckResult& o);
};

/** Largest |got[i] - want[i]| over the first `count` slots; fails when
 *  it exceeds `tol` or a vector is shorter than `count`. */
CheckResult checkSlots(const std::vector<std::complex<double>>& got,
                       const std::vector<std::complex<double>>& want,
                       size_t count, double tol);

/**
 * LR training: decrypted weights must agree with the plaintext
 * trainer's within `tol`, and the two models' training accuracies must
 * differ by at most `acc_tol`.
 */
CheckResult checkLrModel(const std::vector<double>& enc_weights,
                         const std::vector<double>& ref_weights,
                         double enc_accuracy, double ref_accuracy,
                         double tol, double acc_tol);

/** Put/Get: the fetched bytes must equal the stored bytes exactly. */
CheckResult checkSameBytes(const std::string& got, const std::string& want);

// --- plaintext references, computed without the library ----------------

/** Slot-wise product. */
std::vector<std::complex<double>>
plainMul(const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b);
/** Slot-wise sum. */
std::vector<std::complex<double>>
plainAdd(const std::vector<std::complex<double>>& a,
         const std::vector<std::complex<double>>& b);
/** Left rotation: out[i] = a[(i + steps) mod n]. */
std::vector<std::complex<double>>
plainRotate(const std::vector<std::complex<double>>& a, int steps);
/** Diagonal-form matrix-vector product: out[i] = sum_k d_k[i] a[i + k]. */
std::vector<std::complex<double>> plainMatVec(
    const std::map<int, std::vector<std::complex<double>>>& diagonals,
    const std::vector<std::complex<double>>& a);

} // namespace madbench

#endif // MADBENCH_CHECKS_H
