#ifndef ETSC_CORE_ENV_H_
#define ETSC_CORE_ENV_H_

#include <cstdint>
#include <string>

namespace etsc::env {

/// Validated numeric environment knob, one contract for every ETSC_* number
/// (the ETSC_THREADS pattern from the threading layer): unset or empty keeps
/// the fallback silently; anything that does not parse as a number in
/// [lo, hi] (trailing junk included; NaN, and infinity unless hi is
/// infinite) logs a warning under `subsystem` and
/// keeps the fallback. Never throws, never aborts — a hostile environment can
/// only ever cost a warning line.
double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi);

/// Integer knob under the same contract: decimal digits only, surrounding
/// whitespace allowed, no sign, no fraction, no exponent; anything else (or a
/// value outside [lo, hi]) warns and keeps the fallback.
int64_t IntegerOr(const char* subsystem, const char* name, int64_t fallback,
                  int64_t lo, int64_t hi);

/// String knob: unset or empty yields the fallback, anything else verbatim.
std::string StringOr(const char* name, const char* fallback);

}  // namespace etsc::env

#endif  // ETSC_CORE_ENV_H_
