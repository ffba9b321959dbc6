#ifndef PYTOND_PERFBENCH_WORKLOADS_H_
#define PYTOND_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/database.h"

namespace perfbench {

/// One query shape: 22 TPC-H queries plus 8 data-science notebooks.
struct Shape {
  std::string name;
  std::string source;
};

/// The 30 shapes in a fixed order (index = shape id).
std::vector<Shape> AllShapes();

/// Data sizes of one workload.
struct Scale {
  double tpch_sf = 0;
  int64_t datasci_rows = 0;
};

/// Generates every table the 30 shapes read. The TPC-H and data-science
/// generators are seeded from `seed`, so one seed gives one dataset.
pytond::Status Populate(pytond::engine::Database* db, const Scale& scale,
                        uint64_t seed);

/// Shifts the day of month of every 'YYYY-MM-DD' literal in `source` by
/// `shift` (mod 28, so every date stays valid). Only dates vary: numeric
/// literals also sit in structural positions (head(n), matrix shapes)
/// where an edit would change the plan rather than a binding. Shapes
/// without date literals come back unchanged.
std::string VaryDates(const std::string& source, int shift);

/// SplitMix64: a small, fully specified generator, so request orders and
/// bindings depend only on the seed and never on the standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Fisher-Yates permutation of 0..n-1.
  std::vector<int> Permutation(int n);

 private:
  uint64_t state_;
};

}  // namespace perfbench

#endif  // PYTOND_PERFBENCH_WORKLOADS_H_
