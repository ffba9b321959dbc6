// perfbench: the end-to-end benchmark of PyTond, one workload per run.
//
//   perfbench --workload notebook|analytic|serve --seed N --seconds S
//             --trace 0|1 [--tiny] [--corrupt-digest] [--trace-dir DIR]
//
// Workloads (README.md says why each exists):
//   notebook  one client, Session::Run, every request a plan-cache miss
//             (a seeded "edited cell"); TPC-H SF 0.002, data-science 2,000
//             rows; results checked against the eager oracle.
//   analytic  one client, Session::Run, every request a literal-plan hit;
//             TPC-H SF 0.05, data-science 25,000 rows.
//   serve     four connections on one ConnectionManager (default
//             ServeConfig), Connection::Run with seeded date-literal
//             variants; TPC-H SF 0.02, data-science 10,000 rows.
// Every query runs with num_threads = 1. The seed drives the data
// generators, the request order and the literal bindings.
//
// A run sets up (generate, load, warm up) several times and reports the
// median as setup_s, then computes a reference digest per (shape,
// binding), then measures for --seconds. With --trace 0 it prints the
// end-to-end metrics; with --trace 1 it measures half the time untraced
// (counting allocations) and half traced (RunOptions::trace), and prints
// the per-layer metrics. The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// --tiny shrinks the data for the self-test; --corrupt-digest perturbs one
// reference digest, so the run must fail. Exit status: 0 ok, 1 a failed
// or wrong result, 2 usage error.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.h"
#include "core/session.h"
#include "digest.h"
#include "layers.h"
#include "obs/metrics/memory_accountant.h"
#include "obs/sinks.h"
#include "obs/trace.h"
#include "serve/connection_manager.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pytond::obs::NowNs;

enum class Mode { kNotebook, kAnalytic, kServe };

struct WorkloadSpec {
  const char* name;
  Mode mode;
  Scale scale;
  int clients;
  int variants;  // date-literal variants per shape
  int setups;    // set-up repetitions; setup_s is their median
};

const WorkloadSpec kWorkloads[] = {
    {"notebook", Mode::kNotebook, {0.002, 2000}, 1, 1, 9},
    {"analytic", Mode::kAnalytic, {0.05, 25000}, 1, 1, 3},
    {"serve", Mode::kServe, {0.02, 10000}, 4, 4, 3},
};
const Scale kTinyScale = {0.001, 300};

// Relative tolerance of digest sums: the engine and the eager oracle
// agree within 1e-6 per value (differential suite), and a product of two
// values doubles that.
constexpr double kDigestEps = 1e-5;

struct Args {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  bool tiny = false;
  bool corrupt_digest = false;
  std::string trace_dir = ".";
};

int Usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload notebook|analytic|serve "
               "--seed N --seconds S --trace 0|1\n"
               "                 [--tiny] [--corrupt-digest] "
               "[--trace-dir DIR]\n";
  return 2;
}

bool ParseUInt(const char* s, uint64_t* out) {
  const char* end = s + std::strlen(s);
  auto [p, ec] = std::from_chars(s, end, *out);
  return ec == std::errc() && p == end;
}

/// Returns 0 on success, else the usage exit code.
int ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      const std::string w = argv[++i];
      for (const WorkloadSpec& s : kWorkloads) {
        if (w == s.name) args->spec = &s;
      }
      if (args->spec == nullptr) return Usage("unknown workload '" + w + "'");
    } else if (a == "--seed" && has_value) {
      if (!ParseUInt(argv[++i], &args->seed)) return Usage("bad --seed");
      have_seed = true;
    } else if (a == "--seconds" && has_value) {
      uint64_t s = 0;
      if (!ParseUInt(argv[++i], &s) || s < 1 || s > 600) {
        return Usage("--seconds must be a whole number in 1..600");
      }
      args->seconds = static_cast<double>(s);
      have_seconds = true;
    } else if (a == "--trace" && has_value) {
      const std::string t = argv[++i];
      if (t != "0" && t != "1") return Usage("--trace must be 0 or 1");
      args->trace = t == "1";
      have_trace = true;
    } else if (a == "--trace-dir" && has_value) {
      args->trace_dir = argv[++i];
    } else if (a == "--tiny") {
      args->tiny = true;
    } else if (a == "--corrupt-digest") {
      args->corrupt_digest = true;
    } else {
      return Usage("unknown or incomplete option '" + a + "'");
    }
  }
  if (args->spec == nullptr || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  return 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Continued fraction of the incomplete beta function (modified Lentz).
double BetaContinuedFraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  auto guard = [](double v) { return std::fabs(v) < kTiny ? kTiny : v; };
  double c = 1;
  double d = 1 / guard(1 - (a + b) * x / (a + 1));
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((a - 1 + m2) * (a + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    h *= d * c;
    aa = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1 + m2));
    d = 1 / guard(1 + aa * d);
    c = guard(1 + aa / c);
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1) < 1e-14) break;
  }
  return h;
}

/// Regularized incomplete beta function I_x(a, b).
double IncompleteBeta(double a, double b, double x) {
  if (x <= 0) return 0;
  if (x >= 1) return 1;
  const double front = std::exp(std::lgamma(a + b) - std::lgamma(a) -
                                std::lgamma(b) + a * std::log(x) +
                                b * std::log(1 - x));
  if (x < (a + 1) / (a + b + 2)) {
    return front * BetaContinuedFraction(a, b, x) / a;
  }
  return 1 - front * BetaContinuedFraction(b, a, 1 - x) / b;
}

/// Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of the
/// order statistics. A request mix is a set of per-shape clusters, and the
/// median of 30 equally frequent shapes sits exactly between two of them;
/// the plain sample quantile then jumps from one cluster to the other on
/// small speed changes, where this estimate moves smoothly.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p * (n + 1), b = (1 - p) * (n + 1);
  double prev = 0, sum = 0;
  for (size_t i = 1; i <= v.size(); ++i) {
    const double cur = IncompleteBeta(a, b, static_cast<double>(i) / n);
    sum += (cur - prev) * v[i - 1];
    prev = cur;
  }
  return sum;
}

double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  size_t n = 0;
  for (double x : v) {
    if (x > 0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n == 0 ? 0 : std::exp(log_sum / static_cast<double>(n));
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Everything one run sets up: the database, the entry points, and the
/// per-(shape, variant) sources and reference digests.
struct Bench {
  Args args;
  Scale scale;
  std::vector<Shape> shapes;
  std::vector<std::vector<std::string>> texts;  // [shape][variant]
  std::vector<std::vector<Digest>> want;        // [shape][variant]

  std::shared_ptr<pytond::engine::Database> db;
  std::unique_ptr<pytond::Session> session;  // notebook, analytic
  std::unique_ptr<pytond::serve::ConnectionManager> mgr;  // serve
  std::vector<std::unique_ptr<pytond::serve::Connection>> conns;
  // Fresh session whose private cache holds the literal plans of the
  // reference pass (serve reuses them for the param_exec_ratio probe).
  std::unique_ptr<pytond::Session> literal;

  std::vector<double> populate_s, warmup_s, setup_s;
  // notebook: shapes whose engine result has NULL where the eager oracle
  // has 0 (see NullWhereOracleHasZero).
  std::vector<std::string> oracle_divergences;
};

/// How a request calls into the program.
enum class CallStyle {
  kRun,    // Session::Run / Connection::Run (end-to-end runs)
  kSplit,  // CompileCached + Execute / Connection::Prepare + Execute
};

/// One client's state and results for one measured phase.
struct Client {
  int id = 0;
  Rng rng{0};
  uint64_t edits = 0;  // notebook: cell-edit counter
  std::vector<std::vector<double>> latency_ms;  // per shape
  uint64_t requests = 0;
  uint64_t failed = 0;
  std::string first_error;
  // kSplit only.
  Totals totals;
  uint64_t compile_allocs = 0;
  uint64_t execute_allocs = 0;
  uint64_t mem_peak_bytes = 0;
  std::vector<std::pair<int, std::unique_ptr<pytond::obs::TraceCollector>>>
      traces;
  std::set<std::pair<int, int>> sent;
};

std::string RequestSource(const Bench* b, Client* c, int shape,
                          int variant) {
  const std::string& text = b->texts[shape][variant];
  if (b->args.spec->mode != Mode::kNotebook) return text;
  // An edited notebook cell: the comment changes the normalized source,
  // so the plan cache misses. Fixed width keeps every edit of a shape the
  // same length, so allocation counts repeat exactly.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "# edit %08llu\n",
                static_cast<unsigned long long>(c->edits++));
  return buf + text;
}

/// Issues one request; returns its result or the failure.
pytond::Result<std::shared_ptr<const pytond::Table>> Issue(
    Bench* b, Client* c, const std::string& source, CallStyle style,
    pytond::obs::TraceCollector* trace, Totals* bench_ns) {
  pytond::RunOptions opts;
  opts.num_threads = 1;
  const bool serve = b->args.spec->mode == Mode::kServe;
  if (style == CallStyle::kRun) {
    if (serve) return b->conns[c->id]->Run(source, opts);
    return b->session->Run(source, opts);
  }
  pytond::obs::MemoryAccountant mem;
  opts.trace = trace;
  opts.mem = &mem;
  const uint64_t a0 = ThreadAllocs();
  const uint64_t t0 = NowNs();
  uint64_t t1 = 0, a1 = 0;
  auto out = [&]() -> pytond::Result<std::shared_ptr<const pytond::Table>> {
    if (serve) {
      auto& conn = *b->conns[c->id];
      auto ps = conn.Prepare(source, opts);
      t1 = NowNs();
      a1 = ThreadAllocs();
      if (!ps.ok()) return ps.status();
      return conn.Execute(*ps, ps->defaults());
    }
    auto compiled = b->session->CompileCached(source, opts);
    t1 = NowNs();
    a1 = ThreadAllocs();
    if (!compiled.ok()) return compiled.status();
    return b->session->Execute(**compiled, opts);
  }();
  c->compile_allocs += a1 - a0;
  c->execute_allocs += ThreadAllocs() - a1;
  c->mem_peak_bytes = std::max(c->mem_peak_bytes, mem.peak());
  if (bench_ns != nullptr) {
    (*bench_ns)["bench.compile_call_ns"] += static_cast<double>(t1 - t0);
  }
  return out;
}

/// Checks a result against the reference digest of (shape, variant).
bool Check(const Bench& b, int shape, int variant,
           const pytond::Result<std::shared_ptr<const pytond::Table>>& r,
           std::string* why) {
  if (!r.ok()) {
    *why = r.status().ToString();
    return false;
  }
  return DigestsMatch(b.want[shape][variant], ComputeDigest(**r), kDigestEps,
                      why);
}

/// One client's closed loop: seeded permutations of the 30 shapes (one
/// "sweep" each), each request with a seeded variant. Single-client
/// workloads stop at the first sweep boundary past `seconds`, so every
/// run has the same shape mix; serve clients stop at the shared deadline
/// and count only requests that completed before it. With `traced`,
/// every request gets its own TraceCollector, kept until the run ends.
void ClientLoop(Bench* b, Client* c, CallStyle style, bool traced,
                uint64_t deadline_ns) {
  const bool cut_at_deadline = b->args.spec->mode == Mode::kServe;
  const int n_shapes = static_cast<int>(b->shapes.size());
  c->latency_ms.assign(b->shapes.size(), {});
  for (;;) {
    if (b->args.spec->mode == Mode::kNotebook) b->session->ClearPlanCache();
    for (int shape : c->rng.Permutation(n_shapes)) {
      const int variant =
          static_cast<int>(c->rng.Below(static_cast<uint64_t>(
              b->args.spec->variants)));
      const std::string source = RequestSource(b, c, shape, variant);
      std::unique_ptr<pytond::obs::TraceCollector> trace;
      if (traced) trace = std::make_unique<pytond::obs::TraceCollector>();
      if (cut_at_deadline && NowNs() >= deadline_ns) return;
      Totals bench_ns;
      const uint64_t t0 = NowNs();
      auto r = Issue(b, c, source, style, trace.get(),
                     traced ? &bench_ns : nullptr);
      const uint64_t t1 = NowNs();
      std::string why;
      const bool ok = Check(*b, shape, variant, r, &why);
      if (cut_at_deadline && t1 > deadline_ns) return;
      ++c->requests;
      c->latency_ms[shape].push_back(static_cast<double>(t1 - t0) / 1e6);
      c->sent.insert({shape, variant});
      if (!ok) {
        ++c->failed;
        if (c->first_error.empty()) {
          c->first_error = b->shapes[shape].name + ": " + why;
        }
      }
      if (traced) {
        AddSpans(trace->root(), &c->totals);
        Merge(bench_ns, &c->totals);
        c->traces.emplace_back(shape, std::move(trace));
      }
    }
    if (!cut_at_deadline && NowNs() >= deadline_ns) return;
  }
}

/// Result of one measured phase across all clients.
struct Phase {
  std::vector<Client> clients;
  double elapsed_s = 0;
  uint64_t requests = 0;
  uint64_t failed = 0;
  uint64_t cache_misses = 0;  // plan-cache misses during the phase
  std::string first_error;
  double qps() const {
    return elapsed_s > 0 ? static_cast<double>(requests) / elapsed_s : 0;
  }
};

Phase Measure(Bench* b, double seconds, CallStyle style, bool traced,
              uint64_t rng_stream) {
  Phase p;
  const int n = b->args.spec->clients;
  p.clients.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    p.clients[i].id = i;
    p.clients[i].rng =
        Rng(b->args.seed * 1000003ULL + rng_stream * 101ULL +
            static_cast<uint64_t>(i));
  }
  pytond::PlanCache& cache =
      b->session ? *b->session->shared_cache() : *b->mgr->shared_cache();
  const uint64_t misses0 = cache.stats().misses;
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  if (n == 1) {
    ClientLoop(b, &p.clients[0], style, traced, deadline);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads.emplace_back(ClientLoop, b, &p.clients[i], style, traced,
                           deadline);
    }
    for (auto& t : threads) t.join();
  }
  const uint64_t end =
      b->args.spec->mode == Mode::kServe ? deadline : NowNs();
  p.elapsed_s = static_cast<double>(end - start) / 1e9;
  p.cache_misses = cache.stats().misses - misses0;
  for (const Client& c : p.clients) {
    p.requests += c.requests;
    p.failed += c.failed;
    if (p.first_error.empty()) p.first_error = c.first_error;
  }
  return p;
}

/// Generates the data, opens the entry points and warms them up: one
/// request per shape through the workload's own call path. Returns false
/// (with a message on stderr) when anything fails.
bool SetUp(Bench* b) {
  b->conns.clear();
  b->mgr.reset();
  b->session.reset();
  b->literal.reset();
  b->db.reset();
  const uint64_t t0 = NowNs();
  b->db = std::make_shared<pytond::engine::Database>();
  pytond::Status st = Populate(b->db.get(), b->scale, b->args.seed);
  if (!st.ok()) {
    std::cerr << "perfbench: populate failed: " << st.ToString() << "\n";
    return false;
  }
  const uint64_t t1 = NowNs();
  if (b->args.spec->mode == Mode::kServe) {
    b->mgr = std::make_unique<pytond::serve::ConnectionManager>(
        b->db, pytond::serve::ServeConfig{});
    for (int i = 0; i < b->args.spec->clients; ++i) {
      b->conns.push_back(b->mgr->Connect());
    }
  } else {
    b->session = std::make_unique<pytond::Session>(b->db);
  }
  Client warm;
  for (size_t s = 0; s < b->shapes.size(); ++s) {
    const std::string source =
        RequestSource(b, &warm, static_cast<int>(s), 0);
    auto r = Issue(b, &warm, source, CallStyle::kRun, nullptr, nullptr);
    if (!r.ok()) {
      std::cerr << "perfbench: warm-up " << b->shapes[s].name << ": "
                << r.status().ToString() << "\n";
      return false;
    }
  }
  const uint64_t t2 = NowNs();
  b->populate_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  b->warmup_s.push_back(static_cast<double>(t2 - t1) / 1e9);
  b->setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
  return true;
}

/// Reference digest per (shape, variant), computed before timing and
/// outside setup_s. notebook: the eager oracle (Session::RunBaseline).
/// analytic, serve: the literal ad-hoc path on a fresh session, which
/// cross-checks the timed path (prepared plans, for serve) against it.
bool ComputeReferences(Bench* b) {
  b->literal = std::make_unique<pytond::Session>(b->db);
  b->want.assign(b->shapes.size(), {});
  for (size_t s = 0; s < b->shapes.size(); ++s) {
    const std::string& name = b->shapes[s].name;
    for (const std::string& text : b->texts[s]) {
      auto literal = b->literal->Run(text);
      if (!literal.ok()) {
        std::cerr << "perfbench: reference " << name << ": "
                  << literal.status().ToString() << "\n";
        return false;
      }
      const Digest engine = ComputeDigest(**literal);
      if (b->args.spec->mode != Mode::kNotebook) {
        b->want[s].push_back(engine);
        continue;
      }
      auto oracle = b->session->RunBaseline(text);
      if (!oracle.ok()) {
        std::cerr << "perfbench: oracle " << name << ": "
                  << oracle.status().ToString() << "\n";
        return false;
      }
      const Digest want = ComputeDigest(*oracle);
      std::string why;
      if (DigestsMatch(want, engine, kDigestEps, &why)) {
        b->want[s].push_back(want);
      } else if (NullWhereOracleHasZero(want, engine, kDigestEps)) {
        // Known divergence, reported on every run: the timed requests of
        // this shape are checked against the engine's own literal result.
        b->oracle_divergences.push_back(name);
        b->want[s].push_back(engine);
      } else {
        std::cerr << "perfbench: " << name
                  << " disagrees with the eager oracle: " << why << "\n";
        return false;
      }
    }
  }
  if (b->args.corrupt_digest) b->want[0][0].rows += 1;
  return true;
}

/// engine.param_exec_ratio probe (serve, traced run): every binding sent
/// during the traced run executes once on the prepared (parameterized)
/// plan and once on the literal plan, from one thread, alternating which
/// goes first. Returns prepared/literal execute time per shape (0 for
/// unsent shapes).
bool ParamExecRatios(Bench* b, const std::set<std::pair<int, int>>& sent,
                     std::vector<double>* ratios, std::string* error) {
  std::vector<double> prepared_ns(b->shapes.size());
  std::vector<double> literal_ns(b->shapes.size());
  pytond::serve::Connection& conn = *b->conns[0];
  bool prepared_first = true;
  for (const auto& [shape, variant] : sent) {
    const std::string& text = b->texts[shape][variant];
    auto ps = conn.Prepare(text);
    auto lit = b->literal->CompileCached(text);
    if (!ps.ok() || !lit.ok()) {
      *error = b->shapes[shape].name + ": prepare failed";
      return false;
    }
    for (const bool prepared : {prepared_first, !prepared_first}) {
      const uint64_t t0 = NowNs();
      auto r = prepared ? ps->Execute() : b->literal->Execute(**lit);
      const double ns = static_cast<double>(NowNs() - t0);
      std::string why;
      if (!Check(*b, shape, variant, r, &why)) {
        *error = b->shapes[shape].name + ": " + why;
        return false;
      }
      (prepared ? prepared_ns : literal_ns)[shape] += ns;
    }
    prepared_first = !prepared_first;
  }
  ratios->assign(b->shapes.size(), 0);
  for (size_t s = 0; s < b->shapes.size(); ++s) {
    if (literal_ns[s] > 0) (*ratios)[s] = prepared_ns[s] / literal_ns[s];
  }
  return true;
}

// ---- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, p) : "0";
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

void PrintTable(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::fflush(stdout);
}

/// Median latency per shape, over all clients.
std::vector<double> ShapeMedians(const Phase& p, size_t n_shapes) {
  std::vector<double> medians;
  for (size_t s = 0; s < n_shapes; ++s) {
    std::vector<double> v;
    for (const Client& c : p.clients) {
      v.insert(v.end(), c.latency_ms[s].begin(), c.latency_ms[s].end());
    }
    if (!v.empty()) medians.push_back(Quantile(v, 0.5));
  }
  return medians;
}

std::vector<double> AllLatencies(const Phase& p) {
  std::vector<double> all;
  for (const Client& c : p.clients) {
    for (const auto& v : c.latency_ms) all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

std::vector<Metric> EndToEnd(const Bench& b, const Phase& p) {
  const std::vector<double> all = AllLatencies(p);
  const double error_rate =
      p.requests == 0 ? 1
                      : static_cast<double>(p.failed) /
                            static_cast<double>(p.requests);
  return {
      {"setup_s", Median(b.setup_s), "s"},
      {"qps", p.qps(), "1/s"},
      {"latency_p50_ms", Quantile(all, 0.50), "ms"},
      {"latency_p95_ms", Quantile(all, 0.95), "ms"},
      {"geomean_ms", GeoMean(ShapeMedians(p, b.shapes.size())), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"success_rate", 1 - error_rate, "ratio"},
  };
}

/// Writes every traced request's span tree, one JSON object per line.
void WriteTraces(const Bench& b, const Phase& p) {
  std::error_code ec;
  std::filesystem::create_directories(b.args.trace_dir, ec);
  const std::string path = b.args.trace_dir + "/" + b.args.spec->name + "-seed" +
                           std::to_string(b.args.seed) + ".jsonl";
  std::ofstream out(path);
  for (const Client& c : p.clients) {
    for (const auto& [shape, trace] : c.traces) {
      out << "{\"client\":" << c.id << ",\"shape\":\""
          << b.shapes[shape].name << "\",\"spans\":"
          << pytond::obs::ToJson(*trace) << "}\n";
    }
  }
  std::printf("perfbench: spans of %llu traced requests written to %s\n",
              static_cast<unsigned long long>(p.requests), path.c_str());
}

std::vector<Metric> PerLayer(const Bench& b, const Phase& untraced,
                             const Phase& traced,
                             const std::vector<double>& ratios,
                             double admission_wait_ms, uint64_t admitted,
                             uint64_t rejected) {
  Totals t;
  uint64_t compile_allocs = 0, execute_allocs = 0, mem_peak = 0;
  for (const Client& c : traced.clients) {
    Merge(c.totals, &t);
    mem_peak = std::max(mem_peak, c.mem_peak_bytes);
  }
  for (const Client& c : untraced.clients) {
    compile_allocs += c.compile_allocs;
    execute_allocs += c.execute_allocs;
    mem_peak = std::max(mem_peak, c.mem_peak_bytes);
  }
  const double n = std::max<double>(1, static_cast<double>(traced.requests));
  const double n_untraced =
      std::max<double>(1, static_cast<double>(untraced.requests));
  auto per_req_ms = [&](const std::string& k) { return t[k] / n / 1e6; };
  const bool serve = b.args.spec->mode == Mode::kServe;
  const double cache_lookups = t["cache.hits"] + t["cache.misses"];
  const double allocs_per_query =
      static_cast<double>(execute_allocs) / n_untraced;
  const double scan_rows = t["engine.scan_rows"] / n;
  const double plan_cache_us =
      (t["bench.compile_call_ns"] - t["frontend.compile_ns"]) / n / 1e3;

  std::vector<Metric> m = {
      {"frontend.compile_ms", per_req_ms("frontend.compile_ns"), "ms"},
      {"frontend.parse_ms", per_req_ms("frontend.parse_ns"), "ms"},
      {"frontend.anf_ms", per_req_ms("frontend.anf_ns"), "ms"},
      {"frontend.analyze_ms", per_req_ms("frontend.analyze_ns"), "ms"},
      {"frontend.translate_ms", per_req_ms("frontend.translate_ns"), "ms"},
      {"frontend.verify_ms", per_req_ms("frontend.verify_ns"), "ms"},
      {"frontend.optimize_ms", per_req_ms("frontend.optimize_ns"), "ms"},
      {"frontend.sqlgen_ms", per_req_ms("frontend.sqlgen_ns"), "ms"},
      {"frontend.allocs_per_compile",
       untraced.cache_misses > 0
           ? static_cast<double>(compile_allocs) /
                 static_cast<double>(untraced.cache_misses)
           : 0,
       "count"},
      {"core.lookup_us", serve ? 0 : plan_cache_us, "us"},
      {"core.prepare_us", serve ? plan_cache_us : 0, "us"},
      {"core.cache_hit_rate",
       cache_lookups > 0 ? t["cache.hits"] / cache_lookups : 0, "ratio"},
      {"core.warmup_s", Median(b.warmup_s), "s"},
      {"serve.admission_wait_ms", admission_wait_ms, "ms"},
      {"serve.admitted", static_cast<double>(admitted), "count"},
      {"serve.rejected", static_cast<double>(rejected), "count"},
      {"engine.query_ms", per_req_ms("engine.query_ns"), "ms"},
      {"engine.parse_sql_ms", per_req_ms("engine.parse_sql_ns"), "ms"},
      {"engine.bind_ms", per_req_ms("engine.bind_ns"), "ms"},
      {"engine.plan_tuning_ms", per_req_ms("engine.plan_tuning_ns"), "ms"},
      {"engine.cte_ms", per_req_ms("engine.cte_ns"), "ms"},
      {"engine.final_select_ms", per_req_ms("engine.final_select_ns"), "ms"},
  };
  for (const char* op : {"Scan", "Filter", "Project", "HashJoin", "Aggregate",
                         "Sort", "Distinct", "Window"}) {
    const std::string k = std::string("engine.op.") + op + ".self";
    m.push_back({k + "_ms", per_req_ms(k + "_ns"), "ms"});
  }
  m.push_back({"engine.scan_rows", scan_rows, "count"});
  m.push_back({"engine.allocs_per_query", allocs_per_query, "count"});
  m.push_back({"engine.allocs_per_scan_row",
               scan_rows > 0 ? allocs_per_query / scan_rows : 0, "count"});
  m.push_back({"engine.query_mem_peak_mb",
               static_cast<double>(mem_peak) / (1024.0 * 1024.0), "MB"});
  std::vector<double> sent_ratios;
  for (double r : ratios) {
    if (r > 0) sent_ratios.push_back(r);
  }
  m.push_back({"engine.param_exec_ratio", GeoMean(sent_ratios), "ratio"});
  for (size_t s = 0; s < b.shapes.size(); ++s) {
    m.push_back({"engine.param_exec_ratio." + b.shapes[s].name,
                 s < ratios.size() ? ratios[s] : 0, "ratio"});
  }
  m.push_back({"storage.populate_s", Median(b.populate_s), "s"});
  m.push_back({"check.oracle_divergences",
               static_cast<double>(b.oracle_divergences.size()), "count"});
  m.push_back({"obs.trace_overhead_pct",
               untraced.qps() > 0
                   ? 100 * (untraced.qps() - traced.qps()) / untraced.qps()
                   : 0,
               "%"});
  return m;
}

int Run(const Args& args) {
  Bench b;
  b.args = args;
  b.scale = args.tiny ? kTinyScale : args.spec->scale;
  b.shapes = AllShapes();

  // Seeded literal bindings: variant v of a shape shifts its dates by a
  // seeded 1..27 days (shapes without dates keep one text).
  Rng bind_rng(args.seed ^ 0x5eedb1d5ULL);
  b.texts.resize(b.shapes.size());
  for (size_t s = 0; s < b.shapes.size(); ++s) {
    for (int v = 0; v < args.spec->variants; ++v) {
      const int shift = 1 + static_cast<int>(bind_rng.Below(27));
      b.texts[s].push_back(VaryDates(b.shapes[s].source, shift));
    }
  }

  const int setups = args.tiny ? 1 : args.spec->setups;
  for (int i = 0; i < setups; ++i) {
    if (!SetUp(&b)) return 1;
  }
  if (!ComputeReferences(&b)) return 1;
  for (const std::string& name : b.oracle_divergences) {
    std::printf("perfbench: known divergence: %s returns NULL where the "
                "eager oracle returns 0 (SQL SUM over no rows)\n",
                name.c_str());
  }

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d "
              "clients=%d tpch_sf=%g datasci_rows=%lld setups=%d\n",
              args.spec->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, args.spec->clients,
              b.scale.tpch_sf, static_cast<long long>(b.scale.datasci_rows),
              setups);

  if (!args.trace) {
    Phase p = Measure(&b, args.seconds, CallStyle::kRun, false, 1);
    const std::vector<Metric> metrics = EndToEnd(b, p);
    std::printf("perfbench: %llu timed requests (samples), %llu failed, "
                "error_rate %g\n",
                static_cast<unsigned long long>(p.requests),
                static_cast<unsigned long long>(p.failed),
                p.requests == 0 ? 1.0
                                : static_cast<double>(p.failed) /
                                      static_cast<double>(p.requests));
    PrintTable(metrics);
    if (p.failed > 0) {
      std::cerr << "perfbench: wrong or failed result: " << p.first_error
                << "\n";
    }
    const bool correct = p.failed == 0 && p.requests > 0;
    PrintResult(correct, std::max<uint64_t>(p.requests, 1), p.failed,
                metrics);
    return correct ? 0 : 1;
  }

  // Traced run: untraced half with allocation counting, then traced half.
  const double half = args.seconds / 2;
  const pytond::serve::ServeStats s0 =
      b.mgr ? b.mgr->stats() : pytond::serve::ServeStats{};
  const pytond::obs::HistogramSnapshot w0 =
      b.db->metrics().histogram("tond_serve_wait_ns").Snapshot();
  EnableAllocCounting(true);
  Phase untraced = Measure(&b, half, CallStyle::kSplit, false, 2);
  EnableAllocCounting(false);
  Phase traced = Measure(&b, half, CallStyle::kSplit, true, 2);
  const pytond::serve::ServeStats s1 =
      b.mgr ? b.mgr->stats() : pytond::serve::ServeStats{};
  const pytond::obs::HistogramSnapshot wait =
      b.db->metrics().histogram("tond_serve_wait_ns").Snapshot().DeltaSince(
          w0);

  std::vector<double> ratios;
  std::string probe_error;
  bool probe_ok = true;
  if (b.args.spec->mode == Mode::kServe) {
    std::set<std::pair<int, int>> sent;
    for (const Phase* p : {&untraced, &traced}) {
      for (const Client& c : p->clients) sent.insert(c.sent.begin(), c.sent.end());
    }
    probe_ok = ParamExecRatios(&b, sent, &ratios, &probe_error);
  }
  WriteTraces(b, traced);

  const uint64_t rejected =
      (s1.rejected_queue_full - s0.rejected_queue_full) +
      (s1.rejected_timeout - s0.rejected_timeout) +
      (s1.rejected_memory - s0.rejected_memory);
  const std::vector<Metric> metrics =
      PerLayer(b, untraced, traced, ratios, wait.Mean() / 1e6,
               s1.admitted - s0.admitted, rejected);
  const uint64_t attempted = untraced.requests + traced.requests;
  const uint64_t failed = untraced.failed + traced.failed;
  std::printf("perfbench: %llu untraced + %llu traced requests (samples), "
              "%llu failed\n",
              static_cast<unsigned long long>(untraced.requests),
              static_cast<unsigned long long>(traced.requests),
              static_cast<unsigned long long>(failed));
  PrintTable(metrics);
  if (failed > 0) {
    std::cerr << "perfbench: wrong or failed result: "
              << (untraced.first_error.empty() ? traced.first_error
                                               : untraced.first_error)
              << "\n";
  }
  if (!probe_ok) {
    std::cerr << "perfbench: param probe: " << probe_error << "\n";
  }
  const bool correct = failed == 0 && probe_ok && attempted > 0;
  PrintResult(correct, std::max<uint64_t>(attempted, 1),
              failed + (probe_ok ? 0 : 1), metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (int rc = perfbench::ParseArgs(argc, argv, &args); rc != 0) return rc;
  return perfbench::Run(args);
}
