#ifndef PYTOND_PERFBENCH_DIGEST_H_
#define PYTOND_PERFBENCH_DIGEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace perfbench {

/// Order-independent checksum of a result table. Numeric cells (int,
/// float, date, bool) are compared as doubles, as Table::UnorderedEquals
/// does, because the eager oracle and the engine may type a column
/// differently. Per column: null count, an exact sum of string hashes, and
/// a float sum; across columns, a per-row mixing term that catches values
/// moved between rows. Float terms compare with a relative tolerance.
struct Digest {
  uint64_t rows = 0;
  struct ColumnSum {
    uint64_t nulls = 0;
    uint64_t string_hash = 0;  // sum (mod 2^64) of per-cell hashes
    double sum = 0;            // numeric cells plus string-hash fractions
    double abs_sum = 0;        // scale for the tolerance
  };
  std::vector<ColumnSum> columns;
  double row_mix = 0;  // sum over rows of adjacent-column products
  double row_mix_abs = 0;
};

Digest ComputeDigest(const pytond::Table& table);

/// True when `got` matches `want` within relative tolerance `eps`;
/// otherwise fills `why`.
bool DigestsMatch(const Digest& want, const Digest& got, double eps,
                  std::string* why);

/// True when `engine` differs from `oracle` only by NULL cells where the
/// oracle has 0: SQL's SUM over no rows is NULL, Pandas' sum is 0. This
/// is a known divergence of the compiled path from the eager oracle; the
/// benchmark reports it rather than treating it as a wrong result.
bool NullWhereOracleHasZero(const Digest& oracle, const Digest& engine,
                            double eps);

}  // namespace perfbench

#endif  // PYTOND_PERFBENCH_DIGEST_H_
