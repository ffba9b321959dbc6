#include "workloads.h"

#include "workloads/datasci.h"
#include "workloads/tpch/dbgen.h"
#include "workloads/tpch/queries.h"

namespace perfbench {

namespace ds = pytond::workloads::datasci;

std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes;
  for (const auto& q : pytond::workloads::tpch::AllQueries()) {
    shapes.push_back({q.name, q.source});
  }
  shapes.push_back({"crime_index", ds::CrimeIndexSource()});
  shapes.push_back({"birth_analysis", ds::BirthAnalysisSource()});
  shapes.push_back({"n3", ds::N3Source()});
  shapes.push_back({"n9", ds::N9Source()});
  shapes.push_back({"hybrid_matmul", ds::HybridMatMulSource(false)});
  shapes.push_back({"hybrid_covar", ds::HybridCovarSource(false)});
  shapes.push_back({"covar_dense", ds::CovarDenseSource()});
  shapes.push_back({"covar_sparse", ds::CovarSparseSource()});
  return shapes;
}

pytond::Status Populate(pytond::engine::Database* db, const Scale& scale,
                        uint64_t seed) {
  Rng rng(seed);
  PYTOND_RETURN_IF_ERROR(
      pytond::workloads::tpch::Populate(db, scale.tpch_sf, rng.Next()));
  const int64_t n = scale.datasci_rows;
  PYTOND_RETURN_IF_ERROR(ds::PopulateCrimeIndex(db, n, rng.Next()));
  PYTOND_RETURN_IF_ERROR(ds::PopulateBirthAnalysis(db, n, rng.Next()));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN3(db, n, rng.Next()));
  PYTOND_RETURN_IF_ERROR(ds::PopulateN9(db, n, rng.Next()));
  PYTOND_RETURN_IF_ERROR(ds::PopulateHybrid(db, n, rng.Next()));
  // The covariance matrix keeps the size the figure benchmarks use.
  return ds::PopulateCovariance(db, 256, 8, 0.5, rng.Next());
}

namespace {

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

std::string VaryDates(const std::string& source, int shift) {
  std::string out = source;
  for (size_t i = 0; i + 11 < out.size(); ++i) {
    if (out[i] != '\'' || out[i + 11] != '\'') continue;
    const char* p = out.data() + i + 1;
    if (!(IsDigit(p[0]) && IsDigit(p[1]) && IsDigit(p[2]) &&
          IsDigit(p[3]) && p[4] == '-' && IsDigit(p[5]) && IsDigit(p[6]) &&
          p[7] == '-' && IsDigit(p[8]) && IsDigit(p[9]))) {
      continue;
    }
    int day = (p[8] - '0') * 10 + (p[9] - '0');
    day = (day - 1 + shift) % 28 + 1;
    out[i + 9] = static_cast<char>('0' + day / 10);
    out[i + 10] = static_cast<char>('0' + day % 10);
    i += 11;
  }
  return out;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<int> Rng::Permutation(int n) {
  std::vector<int> p(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(Below(static_cast<uint64_t>(i) + 1));
    std::swap(p[static_cast<size_t>(i)], p[static_cast<size_t>(j)]);
  }
  return p;
}

}  // namespace perfbench
