// Small dense linear algebra for model fitting: just enough for Yule-Walker systems and
// multivariate-Gaussian conditioning (tens of dimensions), implemented directly rather
// than pulling in a BLAS.

#ifndef SRC_MODELS_LINALG_H_
#define SRC_MODELS_LINALG_H_

#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "src/util/result.h"

namespace presto {

// Row-major dense matrix.
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, double fill = 0.0);

  double& At(int r, int c);
  double At(int r, int c) const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }

  static Matrix Identity(int n);
  Matrix Transpose() const;
  Matrix Multiply(const Matrix& other) const;
  std::vector<double> MultiplyVec(const std::vector<double>& v) const;

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

// Cholesky factorization A = L L^T of a symmetric positive-definite matrix. Fails with
// kFailedPrecondition if A is not (numerically) positive definite.
Result<Matrix> CholeskyFactor(const Matrix& a);

// Solves A x = b given the Cholesky factor L of A.
std::vector<double> CholeskySolve(const Matrix& l, const std::vector<double>& b);

// Solves the symmetric positive-definite system A x = b (factor + solve). Adds
// `ridge` * I for numerical safety when requested.
Result<std::vector<double>> SolveSpd(Matrix a, const std::vector<double>& b,
                                     double ridge = 0.0);

// Levinson-Durbin recursion: given autocovariances r[0..p], returns AR coefficients
// phi[1..p] (as a p-vector) and the innovation variance. Fails if r[0] <= 0.
struct YuleWalkerFit {
  std::vector<double> phi;
  double innovation_variance = 0.0;
};
Result<YuleWalkerFit> LevinsonDurbin(const std::vector<double>& autocov);

// Sample autocovariances of `x` at lags 0..max_lag (biased estimator, standard for YW).
std::vector<double> Autocovariance(const std::vector<double>& x, int max_lag);

// Ordinary least squares for y ~ a + b*x over the n points point(0) .. point(n-1),
// each an {x, y} pair, summed in that order. Returns {a, b}; fails with fewer than 2
// distinct x values.
template <class Point>
Result<std::pair<double, double>> FitLineOf(size_t n, Point&& point) {
  if (n < 2) {
    return FailedPreconditionError("need at least 2 points for a line");
  }
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const auto [x, y] = point(i);
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = static_cast<double>(n) * sxx - sx * sx;
  if (std::abs(denom) < 1e-12) {
    return FailedPreconditionError("degenerate x values");
  }
  const double slope = (static_cast<double>(n) * sxy - sx * sy) / denom;
  const double intercept = (sy - slope * sx) / static_cast<double>(n);
  return std::make_pair(intercept, slope);
}

}  // namespace presto

#endif  // SRC_MODELS_LINALG_H_
