#include "core/env.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
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

std::optional<double> ParseNumber(std::string_view text, double lo,
                                  double hi) {
  const std::string copy(text);  // strtod needs a terminated string
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(copy.c_str(), &end);
  if (end == copy.c_str() || !OnlyTrailingSpace(end) || errno == ERANGE ||
      !(parsed >= lo) || !(parsed <= hi)) {
    return std::nullopt;
  }
  return parsed;
}

double NumberOr(const char* subsystem, const char* name, double fallback,
                double lo, double hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<double> parsed = ParseNumber(raw, lo, hi);
  if (!parsed) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want a number in [%g, %g])", name, raw,
         lo, hi);
    return fallback;
  }
  return *parsed;
}

std::optional<int64_t> ParseInteger(std::string_view text, int64_t lo,
                                    int64_t hi) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  while (!text.empty() && space(text.front())) text.remove_prefix(1);
  while (!text.empty() && space(text.back())) text.remove_suffix(1);
  // from_chars alone would accept a leading '-' and stop at a fraction's '.'.
  if (text.empty() || !std::all_of(text.begin(), text.end(), [](char c) {
        return std::isdigit(static_cast<unsigned char>(c)) != 0;
      })) {
    return std::nullopt;
  }
  int64_t parsed = 0;
  if (std::from_chars(text.data(), text.data() + text.size(), parsed).ec !=
          std::errc() ||
      parsed < lo || parsed > hi) {
    return std::nullopt;
  }
  return parsed;
}

int64_t IntegerOr(const char* subsystem, const char* name, int64_t fallback,
                  int64_t lo, int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  const std::optional<int64_t> parsed = ParseInteger(raw, lo, hi);
  if (!parsed) {
    Logf(LogLevel::kWarn, subsystem,
         "ignoring invalid %s='%s' (want an integer in [%lld, %lld])", name,
         raw, static_cast<long long>(lo), static_cast<long long>(hi));
    return fallback;
  }
  return *parsed;
}

std::string StringOr(const char* name, const char* fallback) {
  const char* raw = std::getenv(name);
  return (raw == nullptr || *raw == '\0') ? fallback : raw;
}

}  // namespace etsc::env
