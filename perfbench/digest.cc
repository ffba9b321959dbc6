#include "digest.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

uint64_t HashString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Cell value as a double: numerics as themselves, strings as a hash
/// fraction in [0, 1), NULL as 0.
double CellValue(const pytond::Column& col, size_t row) {
  if (!col.IsValid(row)) return 0;
  switch (col.type()) {
    case pytond::DataType::kInt64:
      return static_cast<double>(col.ints()[row]);
    case pytond::DataType::kFloat64:
      return col.doubles()[row];
    case pytond::DataType::kBool:
      return col.bools()[row];
    case pytond::DataType::kDate:
      return col.dates()[row];
    case pytond::DataType::kString:
      return static_cast<double>(HashString(col.strings()[row]) >> 11) *
             0x1.0p-53;
    case pytond::DataType::kNull:
      return 0;
  }
  return 0;
}

bool Close(double a, double b, double scale, double eps) {
  return std::fabs(a - b) <= eps * std::max(1.0, scale);
}

}  // namespace

Digest ComputeDigest(const pytond::Table& table) {
  Digest d;
  d.rows = table.num_rows();
  const size_t ncols = table.num_columns();
  d.columns.resize(ncols);
  std::vector<double> row(ncols);
  for (size_t r = 0; r < d.rows; ++r) {
    for (size_t c = 0; c < ncols; ++c) {
      const pytond::Column& col = table.column(c);
      Digest::ColumnSum& s = d.columns[c];
      if (!col.IsValid(r)) {
        ++s.nulls;
      } else if (col.type() == pytond::DataType::kString) {
        s.string_hash += HashString(col.strings()[r]);
      }
      row[c] = CellValue(col, r);
      s.sum += row[c];
      s.abs_sum += std::fabs(row[c]);
    }
    for (size_t c = 0; c < ncols; ++c) {
      const double m = row[c] * row[(c + 1) % ncols];
      d.row_mix += m;
      d.row_mix_abs += std::fabs(m);
    }
  }
  return d;
}

bool DigestsMatch(const Digest& want, const Digest& got, double eps,
                  std::string* why) {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  if (want.rows != got.rows) {
    return fail("row count " + std::to_string(got.rows) + ", expected " +
                std::to_string(want.rows));
  }
  if (want.columns.size() != got.columns.size()) {
    return fail("column count " + std::to_string(got.columns.size()) +
                ", expected " + std::to_string(want.columns.size()));
  }
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const Digest::ColumnSum& w = want.columns[c];
    const Digest::ColumnSum& g = got.columns[c];
    const std::string col = "column " + std::to_string(c) + ": ";
    if (w.nulls != g.nulls) return fail(col + "null count differs");
    if (w.string_hash != g.string_hash) return fail(col + "strings differ");
    if (!Close(w.sum, g.sum, std::max(w.abs_sum, g.abs_sum), eps)) {
      return fail(col + "sum " + std::to_string(g.sum) + ", expected " +
                  std::to_string(w.sum));
    }
  }
  if (!Close(want.row_mix, got.row_mix,
             std::max(want.row_mix_abs, got.row_mix_abs), eps)) {
    return fail("row checksum differs");
  }
  return true;
}

bool NullWhereOracleHasZero(const Digest& oracle, const Digest& engine,
                            double eps) {
  if (oracle.columns.size() != engine.columns.size()) return false;
  // NULL cells already count as 0 in every sum, so with the null counts
  // aligned the digests match exactly when the oracle held 0 there.
  Digest aligned = engine;
  bool extra_nulls = false;
  for (size_t c = 0; c < aligned.columns.size(); ++c) {
    if (aligned.columns[c].nulls < oracle.columns[c].nulls) return false;
    extra_nulls |= aligned.columns[c].nulls > oracle.columns[c].nulls;
    aligned.columns[c].nulls = oracle.columns[c].nulls;
  }
  return extra_nulls && DigestsMatch(oracle, aligned, eps, nullptr);
}

}  // namespace perfbench
