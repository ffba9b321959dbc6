#include "layers.h"

namespace perfbench {

namespace {

using pytond::obs::SpanNode;

double Ns(const SpanNode& s) { return static_cast<double>(s.duration_ns); }

void AddEngineSpans(const SpanNode& node, Totals* t) {
  for (const auto& child : node.children) {
    const SpanNode& c = *child;
    if (c.category == "operator") {
      std::string op = c.name.substr(0, c.name.find(':'));
      (*t)["engine.op." + op + ".self_ns"] +=
          static_cast<double>(c.SelfDurationNs());
      if (op == "Scan") {
        (*t)["engine.scan_rows"] +=
            static_cast<double>(c.Counter("rows_out"));
      }
    } else if (c.name == "parse_sql" || c.name == "bind" ||
               c.name == "plan_tuning" || c.name == "final_select") {
      (*t)["engine." + c.name + "_ns"] += Ns(c);
    } else if (c.category == "cte") {
      (*t)["engine.cte_ns"] += Ns(c);
    }
    AddEngineSpans(c, t);
  }
}

}  // namespace

void AddSpans(const SpanNode& root, Totals* t) {
  for (const auto& child : root.children) {
    const SpanNode& c = *child;
    if (c.name == "compile") {
      (*t)["compiles"] += 1;
      (*t)["frontend.compile_ns"] += Ns(c);
      for (const auto& phase : c.children) {
        if (phase->category == "phase") {
          (*t)["frontend." + phase->name + "_ns"] += Ns(*phase);
        }
      }
    } else if (c.name == "plan_cache") {
      (*t)[c.Counter("hit") != 0 ? "cache.hits" : "cache.misses"] += 1;
    } else if (c.name == "query") {
      (*t)["engine.query_ns"] += Ns(c);
      AddEngineSpans(c, t);
    } else {
      AddSpans(c, t);
    }
  }
}

void Merge(const Totals& from, Totals* into) {
  for (const auto& [k, v] : from) (*into)[k] += v;
}

}  // namespace perfbench
