#ifndef ETSC_CORE_RECORD_LOG_H_
#define ETSC_CORE_RECORD_LOG_H_

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

/// One append-only record log: the crash-safety discipline shared by the
/// campaign journal (bench/bench_common.h), the worker fabric's control rows
/// inside it (core/fabric.h) and the serving WAL (core/serving.h). Each format
/// owns only its row schema; everything below is common (DESIGN.md sec 10).
///
///  - Line 1 is a header "<tag><N>..." naming the format version N, e.g.
///    "# v4 scale=..." (tag "# v") or "# etscwal v1" (tag "# etscwal v").
///  - Every later line is one row of comma-separated fields sealed by a final
///    "#end" field. A line without the seal was torn by a crash mid-append:
///    readers count and skip it, never half-parse it. A sealed row that breaks
///    its format's schema is the format's call (the WAL refuses the file, the
///    journal skips the row).
///  - An append starts on a fresh line: when a crash left the file without a
///    trailing newline, one is written first, so the torn fragment stays its
///    own unsealed line.
///  - Rows are flushed per append, so a row survives the death of the writing
///    process. Nothing calls fsync: a kernel crash or power loss can still
///    lose the tail.
///  - Free-form text goes through EscapeField, so it can neither split a row
///    nor forge the seal.
///  - A log of another identity is rotated to "<path>.stale", never appended
///    to; a log claiming a newer version is refused, never rotated.
namespace etsc::record_log {

/// Seals `row` (comma-separated fields, no newline) into a log line.
std::string Seal(std::string row);

/// The row inside a sealed line; nullopt when `line` lacks the seal (torn).
std::optional<std::string_view> Unseal(std::string_view line);

/// Splits a row on raw commas; "a," yields {"a", ""}. Safe on every row:
/// free-form fields are escaped, so raw commas are always separators.
std::vector<std::string_view> SplitFields(std::string_view row);

/// Strict unsigned decimal: digits only, no sign, no spaces, no overflow.
bool ParseU64(std::string_view field, uint64_t* out);

/// Escapes backslash, newline, carriage return and comma as two-character
/// backslash sequences (comma becomes "\c"), so the result is one field.
std::string EscapeField(std::string_view raw);

/// Inverse of EscapeField; unknown escape sequences pass through verbatim
/// (forward compatibility with logs written by newer builds).
std::string UnescapeField(std::string_view escaped);

/// What HeaderVersion reports for a version too large to represent: newer
/// than anything this build can read.
inline constexpr int kVersionOutOfRange = std::numeric_limits<int>::max();

/// N from a header line "<tag><N>..." (tag "# v" for the campaign journal);
/// 0 when the line does not start with `tag` followed by a digit.
int HeaderVersion(std::string_view line, std::string_view tag = "# v");

/// Moves `path` to "<path>.stale" (replacing an older one) and returns the
/// new name. IOError when the rename fails: the file is left in place, never
/// truncated, because its history is what the rotation exists to keep.
Result<std::string> RotateToStale(const std::string& path);

/// How a log's header compares with the one this build writes.
enum class HeaderMatch {
  kEmpty,    // missing or zero-byte file: a fresh log
  kMatch,    // the first line equals the expected header
  kForeign,  // another identity or format: rotate aside or refuse
};

/// Streams one log's rows without loading the file. Only the bytes present
/// when the reader opened are read, so rows appended meanwhile (by this
/// process or another) are never returned; a final line that was still
/// unterminated then counts as torn.
class Reader {
 public:
  explicit Reader(std::string path);

  /// False when the file could not be opened (a missing log reads as empty).
  bool exists() const { return exists_; }
  bool empty() const { return size_ == 0; }
  /// The first line, without its newline ("" for an empty log).
  const std::string& header() const { return header_; }

  /// Compares header() with `expected`, whose own "<tag><N>" version is the
  /// newest this build reads. A header claiming a newer (or unrepresentable)
  /// version is FailedPrecondition with an upgrade hint: that log may hold
  /// rows this build would misparse, and rotating it away would discard them.
  Result<HeaderMatch> CheckHeader(std::string_view expected,
                                  std::string_view tag = "# v") const;

  /// Advances to the next sealed row and points `*row` at it (seal removed;
  /// valid until the next call). Blank lines are skipped; unsealed lines are
  /// skipped and counted in torn_rows(). False at the end of the log.
  bool Next(std::string_view* row);

  size_t torn_rows() const { return torn_rows_; }
  /// 1-based line number of the row Next last returned (the header is 1).
  size_t line_number() const { return line_number_; }

 private:
  bool ReadLine(std::string* line);

  std::string path_;
  std::ifstream in_;
  bool exists_ = false;
  std::streamoff size_ = 0;
  std::streamoff remaining_ = 0;
  std::string header_;
  std::string line_;
  size_t line_number_ = 0;
  size_t torn_rows_ = 0;
};

/// Appends sealed rows to one log and keeps the file open between appends.
class Appender {
 public:
  /// Opens `path` for appending. A missing or empty file first gets `header`
  /// as its line 1; a file without a trailing newline gets one.
  Status Open(const std::string& path, std::string_view header);
  bool is_open() const { return out_.is_open(); }

  /// Writes one sealed row and a newline, then flushes. InvalidArgument for a
  /// row that is unsealed or spans lines; IOError when the write fails.
  Status Append(std::string_view row);

 private:
  std::string path_;
  std::ofstream out_;
};

/// Open + Append + close, for writers that share the file with other
/// processes and must re-check the tail before every append.
Status AppendOnce(const std::string& path, std::string_view header,
                  std::string_view row);

}  // namespace etsc::record_log

#endif  // ETSC_CORE_RECORD_LOG_H_
