// Error types shared across the duti library.
#pragma once

#include <stdexcept>
#include <string>

namespace duti {

/// Base class for all errors thrown by the duti library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a function receives an argument outside its domain
/// (e.g. a negative probability, an epsilon outside (0, 2]).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a requested computation would exceed hard resource limits
/// (e.g. asking for an exact enumeration over a domain too large to hold).
class CapacityError : public Error {
 public:
  explicit CapacityError(const std::string& what) : Error(what) {}
};

/// Internal helper: throw InvalidArgument unless `cond` holds. The
/// `const char*` overload is the hot-path form: literal call sites must not
/// materialize a std::string (one heap allocation) when the check passes —
/// the batched protocol plane's zero-allocation-per-trial gate
/// (ProtocolBatch.TrialsAllocateNothing) counts every one.
inline void require(bool cond, const char* what) {
  if (!cond) throw InvalidArgument(what);
}
inline void require(bool cond, const std::string& what) {
  if (!cond) throw InvalidArgument(what);
}

}  // namespace duti
