#ifndef PYTOND_PERFBENCH_LAYERS_H_
#define PYTOND_PERFBENCH_LAYERS_H_

#include <map>
#include <string>

#include "obs/trace.h"

namespace perfbench {

/// Sums over the traced requests of one run, keyed by name. Span times
/// are in nanoseconds (keys ending in `_ns`); other keys are counts.
using Totals = std::map<std::string, double>;

/// Adds one request's spans, as the program records them through
/// RunOptions::trace:
///   frontend.compile_ns, frontend.<phase>_ns  "compile" span and its
///                                             direct "phase" children
///   compiles                                  number of "compile" spans
///   cache.hits, cache.misses                  "plan_cache" spans
///   engine.query_ns                           "query" span
///   engine.{parse_sql,bind,plan_tuning}_ns    engine spans of those names
///   engine.cte_ns, engine.final_select_ns     "cte:*", "final_select"
///                                             (inclusive)
///   engine.op.<Op>.self_ns                    operator self time
///   engine.scan_rows                          rows out of Scan operators
void AddSpans(const pytond::obs::SpanNode& root, Totals* totals);

/// Adds every entry of `from` into `into`.
void Merge(const Totals& from, Totals* into);

}  // namespace perfbench

#endif  // PYTOND_PERFBENCH_LAYERS_H_
