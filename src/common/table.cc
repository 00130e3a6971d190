#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "common/time.h"

namespace udr {

Table::Table(std::string title, std::vector<std::string> headers)
    : title_(std::move(title)),
      headers_(std::move(headers)),
      basis_(headers_.size(), Basis::kModelled) {}

void Table::SetBasis(size_t column, Basis basis) {
  if (column < basis_.size()) basis_[column] = basis;
}

void Table::AddRow(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::Print(std::ostream& os) const {
  Render(os, /*modelled_only=*/false);
  if (const char* golden = std::getenv("UDR_GOLDEN_TABLES")) {
    std::ofstream out(golden, std::ios::app);
    Render(out, /*modelled_only=*/true);
  }
}

void Table::Render(std::ostream& os, bool modelled_only) const {
  std::vector<size_t> columns;
  for (size_t i = 0; i < headers_.size(); ++i) {
    if (!modelled_only || basis_[i] == Basis::kModelled) columns.push_back(i);
  }
  std::vector<size_t> widths;
  for (size_t i : columns) {
    size_t w = headers_[i].size();
    for (const auto& row : rows_) {
      if (i < row.size()) w = std::max(w, row[i].size());
    }
    widths.push_back(w);
  }
  size_t total = 0;
  for (size_t w : widths) total += w + 3;
  if (total > 0) total -= 1;

  os << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& cells) {
    for (size_t k = 0; k < columns.size(); ++k) {
      const std::string& c =
          columns[k] < cells.size() ? cells[columns[k]] : std::string();
      os << "  ";
      os << c;
      for (size_t pad = c.size(); pad < widths[k]; ++pad) os << ' ';
      os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
  os.flush();
}

std::string Table::Num(int64_t v) {
  char raw[32];
  bool neg = v < 0;
  unsigned long long uv =
      neg ? static_cast<unsigned long long>(-(v + 1)) + 1ULL
          : static_cast<unsigned long long>(v);
  std::snprintf(raw, sizeof(raw), "%llu", uv);
  std::string digits = raw;
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (neg) out.push_back('-');
  std::reverse(out.begin(), out.end());
  return out;
}

std::string Table::Dbl(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Pct(double ratio, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, ratio * 100.0);
  return buf;
}

std::string Table::Dur(int64_t micros) { return FormatDuration(micros); }

std::string Table::Bytes(int64_t bytes) {
  char buf[64];
  double b = static_cast<double>(bytes);
  if (b < 1024) {
    std::snprintf(buf, sizeof(buf), "%lld B", static_cast<long long>(bytes));
  } else if (b < 1024.0 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f KB", b / 1024.0);
  } else if (b < 1024.0 * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1f MB", b / (1024.0 * 1024));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f GB", b / (1024.0 * 1024 * 1024));
  }
  return buf;
}

}  // namespace udr
