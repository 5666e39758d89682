#include "support/cg.hpp"

#include <cmath>

#include "core/error.hpp"
#include "core/matrix.hpp"
#include "support/dense_matrix.hpp"

namespace spinsim {

CgResult conjugate_gradient(const CsrMatrix& a, const std::vector<double>& b,
                            const CgOptions& options, const std::vector<double>* x0) {
  const std::size_t n = a.rows();
  require(a.cols() == n, "conjugate_gradient: matrix must be square");
  require(b.size() == n, "conjugate_gradient: rhs dimension mismatch");

  CgResult result;
  result.x.assign(n, 0.0);
  if (x0 != nullptr) {
    require(x0->size() == n, "conjugate_gradient: x0 dimension mismatch");
    result.x = *x0;
  }

  const double b_norm = norm2(b);
  if (b_norm == 0.0) {
    result.x.assign(n, 0.0);
    result.converged = true;
    return result;
  }

  // Jacobi preconditioner M = diag(A); fall back to identity if a zero
  // diagonal shows up (shouldn't for a grounded resistive network).
  std::vector<double> inv_diag(n, 1.0);
  if (options.jacobi_preconditioner) {
    const std::vector<double> d = a.diagonal();
    for (std::size_t i = 0; i < n; ++i) {
      inv_diag[i] = (d[i] > 0.0) ? 1.0 / d[i] : 1.0;
    }
  }

  std::vector<double> r(n);     // residual b - A x
  std::vector<double> z(n);     // preconditioned residual
  std::vector<double> p(n);     // search direction
  std::vector<double> ap(n);    // A * p

  a.multiply_into(result.x, ap);
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = b[i] - ap[i];
    z[i] = inv_diag[i] * r[i];
  }
  p = z;
  double rz = dot(r, z);

  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    const double res = norm2(r) / b_norm;
    if (res <= options.tolerance) {
      result.residual = res;
      result.iterations = iter;
      result.converged = true;
      return result;
    }

    a.multiply_into(p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) {
      throw NumericalError("conjugate_gradient: matrix is not positive definite");
    }
    const double alpha = rz / p_ap;
    axpy(alpha, p, result.x);
    axpy(-alpha, ap, r);
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = inv_diag[i] * r[i];
    }
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = z[i] + beta * p[i];
    }
  }

  result.residual = norm2(r) / b_norm;
  result.iterations = options.max_iterations;
  result.converged = false;
  return result;
}

}  // namespace spinsim
