#include "src/models/linalg.h"

#include <cmath>

#include "src/util/assert.h"

namespace presto {

Matrix::Matrix(int rows, int cols, double fill)
    : rows_(rows), cols_(cols), data_(static_cast<size_t>(rows) * cols, fill) {
  PRESTO_CHECK(rows >= 0 && cols >= 0);
}

double& Matrix::At(int r, int c) {
  PRESTO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<size_t>(r) * cols_ + c];
}

double Matrix::At(int r, int c) const {
  PRESTO_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  return data_[static_cast<size_t>(r) * cols_ + c];
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) {
    m.At(i, i) = 1.0;
  }
  return m;
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) {
      t.At(c, r) = At(r, c);
    }
  }
  return t;
}

Matrix Matrix::Multiply(const Matrix& other) const {
  PRESTO_CHECK(cols_ == other.rows_);
  Matrix out(rows_, other.cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int k = 0; k < cols_; ++k) {
      const double a = At(r, k);
      if (a == 0.0) {
        continue;
      }
      for (int c = 0; c < other.cols_; ++c) {
        out.At(r, c) += a * other.At(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::MultiplyVec(const std::vector<double>& v) const {
  PRESTO_CHECK(static_cast<int>(v.size()) == cols_);
  std::vector<double> out(static_cast<size_t>(rows_), 0.0);
  for (int r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (int c = 0; c < cols_; ++c) {
      sum += At(r, c) * v[static_cast<size_t>(c)];
    }
    out[static_cast<size_t>(r)] = sum;
  }
  return out;
}

Result<Matrix> CholeskyFactor(const Matrix& a) {
  PRESTO_CHECK(a.rows() == a.cols());
  const int n = a.rows();
  Matrix l(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      double sum = a.At(i, j);
      for (int k = 0; k < j; ++k) {
        sum -= l.At(i, k) * l.At(j, k);
      }
      if (i == j) {
        if (sum <= 0.0) {
          return FailedPreconditionError("matrix not positive definite");
        }
        l.At(i, i) = std::sqrt(sum);
      } else {
        l.At(i, j) = sum / l.At(j, j);
      }
    }
  }
  return l;
}

std::vector<double> CholeskySolve(const Matrix& l, const std::vector<double>& b) {
  const int n = l.rows();
  PRESTO_CHECK(static_cast<int>(b.size()) == n);
  // Forward substitution: L y = b.
  std::vector<double> y(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    double sum = b[static_cast<size_t>(i)];
    for (int k = 0; k < i; ++k) {
      sum -= l.At(i, k) * y[static_cast<size_t>(k)];
    }
    y[static_cast<size_t>(i)] = sum / l.At(i, i);
  }
  // Back substitution: L^T x = y.
  std::vector<double> x(static_cast<size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    double sum = y[static_cast<size_t>(i)];
    for (int k = i + 1; k < n; ++k) {
      sum -= l.At(k, i) * x[static_cast<size_t>(k)];
    }
    x[static_cast<size_t>(i)] = sum / l.At(i, i);
  }
  return x;
}

Result<std::vector<double>> SolveSpd(Matrix a, const std::vector<double>& b,
                                     double ridge) {
  if (ridge > 0.0) {
    for (int i = 0; i < a.rows(); ++i) {
      a.At(i, i) += ridge;
    }
  }
  auto l = CholeskyFactor(a);
  if (!l.ok()) {
    return l.status();
  }
  return CholeskySolve(*l, b);
}

Result<YuleWalkerFit> LevinsonDurbin(const std::vector<double>& autocov) {
  PRESTO_CHECK(!autocov.empty());
  const int p = static_cast<int>(autocov.size()) - 1;
  if (autocov[0] <= 0.0) {
    return FailedPreconditionError("zero-variance series");
  }
  YuleWalkerFit fit;
  fit.phi.assign(static_cast<size_t>(p), 0.0);
  double error = autocov[0];
  std::vector<double> prev(static_cast<size_t>(p), 0.0);
  for (int k = 1; k <= p; ++k) {
    double acc = autocov[static_cast<size_t>(k)];
    for (int j = 1; j < k; ++j) {
      acc -= prev[static_cast<size_t>(j - 1)] * autocov[static_cast<size_t>(k - j)];
    }
    const double reflection = acc / error;
    fit.phi[static_cast<size_t>(k - 1)] = reflection;
    for (int j = 1; j < k; ++j) {
      fit.phi[static_cast<size_t>(j - 1)] =
          prev[static_cast<size_t>(j - 1)] -
          reflection * prev[static_cast<size_t>(k - j - 1)];
    }
    error *= (1.0 - reflection * reflection);
    if (error <= 0.0) {
      error = 1e-12;  // numerically perfect fit; keep variance positive
    }
    prev = fit.phi;
  }
  fit.innovation_variance = error;
  return fit;
}

std::vector<double> Autocovariance(const std::vector<double>& x, int max_lag) {
  const int n = static_cast<int>(x.size());
  PRESTO_CHECK(max_lag >= 0);
  std::vector<double> out(static_cast<size_t>(max_lag) + 1, 0.0);
  if (n == 0) {
    return out;
  }
  double mean = 0.0;
  for (double v : x) {
    mean += v;
  }
  mean /= n;
  for (int lag = 0; lag <= max_lag && lag < n; ++lag) {
    double sum = 0.0;
    for (int i = 0; i + lag < n; ++i) {
      sum += (x[static_cast<size_t>(i)] - mean) *
             (x[static_cast<size_t>(i + lag)] - mean);
    }
    out[static_cast<size_t>(lag)] = sum / n;  // biased, guarantees a PSD sequence
  }
  return out;
}

}  // namespace presto
