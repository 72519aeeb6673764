#ifndef ETSC_CORE_ENV_H_
#define ETSC_CORE_ENV_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace etsc::env {

/// The number rule of every ETSC_* knob (and of etsc_cli's numeric flags): a
/// strtod number, surrounding whitespace allowed, value in [lo, hi]. Trailing
/// junk, overflow, NaN, and infinity unless hi is infinite are nullopt.
std::optional<double> ParseNumber(std::string_view text, double lo, double hi);

/// Validated numeric environment knob, one contract for every ETSC_* number
/// (the ETSC_THREADS pattern from the threading layer): unset or empty keeps
/// the fallback silently; a value ParseNumber rejects logs a warning under
/// `subsystem` and keeps the fallback. Never throws, never aborts — a
/// hostile environment can only ever cost a warning line.
double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi);

/// The integer rule of every ETSC_* knob: decimal digits only, surrounding
/// whitespace allowed, no sign, no fraction, no exponent, value in [lo, hi].
/// Anything else (overflow included) is nullopt.
std::optional<int64_t> ParseInteger(std::string_view text, int64_t lo,
                                    int64_t hi);

/// Integer knob under the same contract: a value ParseInteger rejects warns
/// and keeps the fallback.
int64_t IntegerOr(const char* subsystem, const char* name, int64_t fallback,
                  int64_t lo, int64_t hi);

/// String knob: unset or empty yields the fallback, anything else verbatim.
std::string StringOr(const char* name, const char* fallback);

}  // namespace etsc::env

#endif  // ETSC_CORE_ENV_H_
