/// \file error.hpp
/// Error handling primitives for spinsim.
///
/// Policy (per C++ Core Guidelines E.*): throw exceptions for API misuse and
/// unrecoverable environment failures; use SPINSIM_ASSERT for internal
/// invariants that indicate a bug in spinsim itself.

#pragma once

#include <stdexcept>
#include <string>

namespace spinsim {

/// Thrown when a caller passes arguments that violate a documented
/// precondition (bad dimensions, out-of-range parameters, ...).
class InvalidArgument : public std::invalid_argument {
 public:
  explicit InvalidArgument(const std::string& what) : std::invalid_argument(what) {}
};

/// Thrown when a numerical routine fails to converge or encounters a
/// singular / indefinite system it cannot handle.
class NumericalError : public std::runtime_error {
 public:
  explicit NumericalError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a simulation is driven into a state the model does not
/// support (e.g. programming a memristor outside its conductance range).
class ModelError : public std::runtime_error {
 public:
  explicit ModelError(const std::string& what) : std::runtime_error(what) {}
};

// -- Service-edge failure taxonomy (see README "Overload & failure
// handling"). These three are *expected* production outcomes, not bugs:
// clients are meant to catch them and decide whether to retry.

/// Retriable: the service refused new work because a capacity limit
/// (queue depth, no healthy shard) is currently exceeded. Back off and
/// resubmit; nothing about the request itself was wrong.
class Overloaded : public std::runtime_error {
 public:
  explicit Overloaded(const std::string& what) : std::runtime_error(what) {}
};

/// The query's deadline expired while it waited for dispatch, so the
/// collector shed it instead of spending shard time on an answer the
/// client no longer wants. Counted as `shed_deadline`, never `failed`.
class DeadlineExceeded : public std::runtime_error {
 public:
  explicit DeadlineExceeded(const std::string& what) : std::runtime_error(what) {}
};

/// The service was destroyed or re-initialised (store_templates) while
/// this query was in flight. Every pending future is failed with this —
/// shutdown never abandons a future.
class ServiceStopped : public std::runtime_error {
 public:
  explicit ServiceStopped(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
/// Aborts with a diagnostic; used by SPINSIM_ASSERT. Never returns.
[[noreturn]] void assert_fail(const char* expr, const char* file, int line, const char* msg);
}  // namespace detail

/// Validates a documented precondition of a public API and throws
/// InvalidArgument with the given message if it does not hold.
///
/// The message is a `const char*` (in practice a string literal), so a
/// check that passes costs one branch: no std::string is built unless
/// the check fails. A caller that needs a formatted message tests the
/// condition itself and throws InvalidArgument on failure.
inline void require(bool condition, const char* message) {
  if (!condition) {
    throw InvalidArgument(message);
  }
}

}  // namespace spinsim

/// Internal invariant check. Active in all build types: the simulator is a
/// measurement instrument, so silent state corruption is worse than an abort.
#define SPINSIM_ASSERT(expr, msg)                                       \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::spinsim::detail::assert_fail(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                   \
  } while (false)
