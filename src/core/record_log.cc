#include "core/record_log.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <utility>

namespace etsc::record_log {

namespace {

/// The seal: a final field no escaped value can contain (every comma inside
/// a free-form field is escaped, and the seal starts with one).
constexpr std::string_view kSeal = ",#end";

}  // namespace

std::string Seal(std::string row) {
  row += kSeal;
  return row;
}

std::optional<std::string_view> Unseal(std::string_view line) {
  if (line.size() < kSeal.size() ||
      line.substr(line.size() - kSeal.size()) != kSeal) {
    return std::nullopt;
  }
  return line.substr(0, line.size() - kSeal.size());
}

std::vector<std::string_view> SplitFields(std::string_view row) {
  std::vector<std::string_view> fields;
  size_t start = 0;
  for (size_t comma = row.find(','); comma != std::string_view::npos;
       comma = row.find(',', start)) {
    fields.push_back(row.substr(start, comma - start));
    start = comma + 1;
  }
  fields.push_back(row.substr(start));
  return fields;
}

bool ParseU64(std::string_view field, uint64_t* out) {
  if (field.empty() || !std::isdigit(static_cast<unsigned char>(field[0]))) {
    return false;
  }
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

std::string EscapeField(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case ',':
        out += "\\c";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string UnescapeField(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\' || i + 1 == escaped.size()) {
      out += escaped[i];
      continue;
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 'c':
        out += ',';
        break;
      default:
        out += '\\';
        out += escaped[i];
    }
  }
  return out;
}

int HeaderVersion(std::string_view line, std::string_view tag) {
  if (line.substr(0, tag.size()) != tag) return 0;
  const std::string_view rest = line.substr(tag.size());
  if (rest.empty() || !std::isdigit(static_cast<unsigned char>(rest[0]))) {
    return 0;
  }
  int version = 0;
  // Digits too many for an int still name a version: one from the future.
  if (std::from_chars(rest.data(), rest.data() + rest.size(), version).ec ==
      std::errc::result_out_of_range) {
    return kVersionOutOfRange;
  }
  return version;
}

Result<std::string> RotateToStale(const std::string& path) {
  const std::string stale = path + ".stale";
  std::remove(stale.c_str());
  if (std::rename(path.c_str(), stale.c_str()) != 0) {
    return Status::IOError("cannot rotate " + path + " to " + stale +
                           "; move it aside by hand");
  }
  return stale;
}

Reader::Reader(std::string path)
    : path_(std::move(path)), in_(path_, std::ios::binary) {
  if (!in_) return;
  exists_ = true;
  in_.seekg(0, std::ios::end);
  size_ = std::max<std::streamoff>(0, in_.tellg());
  in_.seekg(0, std::ios::beg);
  remaining_ = size_;
  if (ReadLine(&header_)) line_number_ = 1;
}

bool Reader::ReadLine(std::string* line) {
  if (remaining_ <= 0 || !std::getline(in_, *line)) return false;
  std::streamoff consumed =
      static_cast<std::streamoff>(line->size()) + (in_.eof() ? 0 : 1);
  if (consumed > remaining_) {
    // Unterminated when the reader opened; only its bytes up to then count.
    line->resize(static_cast<size_t>(remaining_));
    consumed = remaining_;
  }
  remaining_ -= consumed;
  return true;
}

Result<HeaderMatch> Reader::CheckHeader(std::string_view expected,
                                        std::string_view tag) const {
  if (empty()) return HeaderMatch::kEmpty;
  if (header_ == expected) return HeaderMatch::kMatch;
  const int theirs = HeaderVersion(header_, tag);
  const int mine = HeaderVersion(expected, tag);
  if (theirs > mine) {
    return Status::FailedPrecondition(
        path_ + " was written by a newer build (header '" + header_ +
        "'; this build reads up to v" + std::to_string(mine) +
        "): upgrade the binary, or move the file aside to start afresh");
  }
  return HeaderMatch::kForeign;
}

bool Reader::Next(std::string_view* row) {
  while (ReadLine(&line_)) {
    ++line_number_;
    if (line_.empty()) continue;
    if (const auto sealed = Unseal(line_)) {
      *row = *sealed;
      return true;
    }
    ++torn_rows_;
  }
  return false;
}

Status Appender::Open(const std::string& path, std::string_view header) {
  path_ = path;
  bool empty = true;
  bool needs_newline = false;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe && probe.tellg() > 0) {
      empty = false;
      probe.seekg(-1, std::ios::end);
      needs_newline = probe.get() != '\n';
    }
  }
  out_.open(path, std::ios::binary | std::ios::app);
  if (!out_) return Status::IOError("cannot open " + path + " for appending");
  if (needs_newline) out_ << '\n';
  if (empty) out_ << header << '\n';
  out_.flush();
  if (!out_) return Status::IOError("cannot write to " + path);
  return Status::OK();
}

Status Appender::Append(std::string_view row) {
  if (!Unseal(row) || row.find('\n') != std::string_view::npos) {
    return Status::InvalidArgument("refusing to append a malformed row to " +
                                   path_);
  }
  out_ << row << '\n';
  out_.flush();
  if (!out_) return Status::IOError("append to " + path_ + " failed");
  return Status::OK();
}

Status AppendOnce(const std::string& path, std::string_view header,
                  std::string_view row) {
  Appender appender;
  ETSC_RETURN_NOT_OK(appender.Open(path, header));
  return appender.Append(row);
}

}  // namespace etsc::record_log
