/// \file matrix.hpp
/// Vector helpers and the batched operator product behind crossbar
/// evaluation: each crossbar caches its model's operator, and a query
/// costs one dense matvec against it.

#pragma once

#include <cstddef>
#include <vector>

namespace spinsim {

// --- free vector helpers (std::vector<double> is the vector type) ---

/// Dot product; sizes must match.
double dot(const std::vector<double>& a, const std::vector<double>& b);

/// Index of the largest element (first on ties). Requires non-empty input.
std::size_t argmax(const std::vector<double>& v);

// --- batched operator application (the recognition hot path) ---

/// Applies a cols x rows row-major operator to a micro-batch of inputs:
///
///     c[q * cols + j] = sum_r op[j * rows + r] * x[q * rows + r]
///
/// `x` holds `batch` input vectors of length `rows` back to back; `c`
/// holds `batch` output vectors of length `cols`.
///
/// Runs over register tiles of up to 4 queries x 4 operator rows, each with
/// compile-time extents: the full 4 x 4 tile and every remainder shape down
/// to 1 x 1, picked by batch % 4 and cols % 4, so a tile's accumulators stay
/// in registers. Each operator row and input vector is streamed once per
/// tile, but the reduction over r is kept strictly sequential per (q, j)
/// accumulator — the result is bit-identical to the naive per-query loop
/// `acc = 0.0; for r: acc += op[j][r] * x[q][r]`, which is what
/// lets batched recognition reproduce the sequential recognize() path
/// exactly (no floating-point reassociation). A batch of 1 is the plain
/// matvec.
void gemm_operator_batch(const double* op, const double* x, std::size_t rows, std::size_t cols,
                         std::size_t batch, double* c);

}  // namespace spinsim
