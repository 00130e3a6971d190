// Plain-text table printer used by the benchmark harness to emit the paper's
// rows/series in a stable, diff-friendly format.
//
// Each column carries a basis: modelled (sim-clock results, deterministic
// for a seed) or host (wall or CPU time, RSS, anything the machine running
// the bench decides). With UDR_GOLDEN_TABLES=<path> in the environment,
// every printed table also appends its modelled columns to that file; the
// golden-file check (tools/update_golden.py) diffs that output against
// tests/golden/, so a host column never makes it flaky.

#ifndef UDR_COMMON_TABLE_H_
#define UDR_COMMON_TABLE_H_

#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

namespace udr {

/// Accumulates rows of string cells and prints them column-aligned.
class Table {
 public:
  /// Where a column's numbers come from.
  enum class Basis { kModelled, kHost };

  /// Creates a table with the given title and column headers.
  Table(std::string title, std::vector<std::string> headers);

  /// Appends a row; the number of cells should match the header count.
  void AddRow(std::vector<std::string> cells);

  /// Tags `column` (every column starts kModelled).
  void SetBasis(size_t column, Basis basis);

  /// Renders the table to the stream (default stdout), and its modelled
  /// columns to the UDR_GOLDEN_TABLES file when that is set.
  void Print(std::ostream& os = std::cout) const;

  /// Number of data rows added so far.
  size_t row_count() const { return rows_.size(); }

  // -- Cell formatting helpers ------------------------------------------------

  /// Formats an integer with thousands separators: 1234567 -> "1,234,567".
  static std::string Num(int64_t v);
  /// Formats a double with the given precision.
  static std::string Dbl(double v, int precision = 2);
  /// Formats a ratio as a percentage with 3 decimals ("99.999%").
  static std::string Pct(double ratio, int precision = 3);
  /// Formats microseconds adaptively ("12.5ms").
  static std::string Dur(int64_t micros);
  /// Formats a byte count adaptively ("1.5 GB").
  static std::string Bytes(int64_t bytes);

 private:
  void Render(std::ostream& os, bool modelled_only) const;

  std::string title_;
  std::vector<std::string> headers_;
  std::vector<Basis> basis_;  ///< 1:1 with headers_.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace udr

#endif  // UDR_COMMON_TABLE_H_
