#include "core/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "core/log.h"

namespace etsc::env {

namespace {

/// True when `rest` holds only trailing whitespace after a strtod parse.
bool OnlyTrailingSpace(const char* rest) {
  if (rest == nullptr) return false;
  while (*rest != '\0') {
    if (!std::isspace(static_cast<unsigned char>(*rest))) return false;
    ++rest;
  }
  return true;
}

}  // namespace

double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(raw, &end);
  if (end == raw || !OnlyTrailingSpace(end) || errno == ERANGE ||
      !(parsed >= lo) || !(parsed <= hi)) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want a number in [%g, %g])", name, raw,
         lo, hi);
    return fallback;
  }
  return parsed;
}

int64_t IntegerOr(const char* subsystem, const char* name, int64_t fallback,
                  int64_t lo, int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const char* digits = raw;
  while (std::isspace(static_cast<unsigned char>(*digits))) ++digits;
  char* end = nullptr;
  errno = 0;
  // strtoll alone would accept a sign and stop at a fraction's '.'.
  const long long parsed = std::isdigit(static_cast<unsigned char>(*digits))
                               ? std::strtoll(digits, &end, 10)
                               : 0;
  if (end == nullptr || !OnlyTrailingSpace(end) || errno == ERANGE ||
      parsed < lo || parsed > hi) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want an integer in [%lld, %lld])", name,
         raw, static_cast<long long>(lo), static_cast<long long>(hi));
    return fallback;
  }
  return parsed;
}

std::string StringOr(const char* name, const char* fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : raw;
}

}  // namespace etsc::env
