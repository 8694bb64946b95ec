#include "exp/experiment.h"

#include <algorithm>

#include "core/check.h"

namespace ldpr::exp {

void Context::EmitRunConfig(const std::string& bench_name, int n, int d) {
  out_.Comment(StrPrintf("# bench = %s", bench_name.c_str()));
  out_.Comment(StrPrintf("# n = %d, d = %d", n, d));
  out_.Comment(StrPrintf("# runs = %d, scale = %.3f, reident_targets = %d",
                         profile_.runs, profile_.BenchScale(),
                         profile_.reident_targets));
  out_.Config("bench", bench_name);
  out_.Config("n", StrPrintf("%d", n));
  out_.Config("d", StrPrintf("%d", d));
  out_.Config("runs", StrPrintf("%d", profile_.runs));
  out_.Config("scale", StrPrintf("%.3f", profile_.BenchScale()));
  out_.Config("reident_targets", StrPrintf("%d", profile_.reident_targets));
  out_.Config("smoke", profile_.smoke ? "1" : "0");
  // The legacy-exact preamble is pinned byte-for-byte by the goldens, so the
  // fidelity marker only appears on the fast profile (whose goldens pin it).
  if (profile_.fast()) {
    out_.Comment("# profile = fast (closed-form estimation paths)");
    out_.Config("profile", "fast");
  }
}

Registry& Registry::Instance() {
  static auto* registry = new Registry();
  return *registry;
}

void Registry::Register(ExperimentSpec spec) {
  LDPR_REQUIRE(!spec.name.empty(), "experiment name must be non-empty");
  LDPR_REQUIRE(Find(spec.name) == nullptr,
               "duplicate experiment name '" << spec.name << "'");
  LDPR_REQUIRE(spec.run != nullptr,
               "experiment '" << spec.name << "' has no run callback");
  specs_.push_back(std::move(spec));
}

const ExperimentSpec* Registry::Find(const std::string& name) const {
  for (const ExperimentSpec& spec : specs_) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<const ExperimentSpec*> Registry::Match(
    const std::string& pattern) const {
  std::vector<const ExperimentSpec*> out;
  for (const ExperimentSpec& spec : specs_) {
    if (GlobMatch(pattern, spec.name) || GlobMatch(pattern, spec.title)) {
      out.push_back(&spec);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const ExperimentSpec* a, const ExperimentSpec* b) {
              return a->name < b->name;
            });
  return out;
}

std::vector<const ExperimentSpec*> Registry::All() const {
  return Match("*");
}

Registrar::Registrar(ExperimentSpec spec) {
  Registry::Instance().Register(std::move(spec));
}

bool GlobMatch(const std::string& pattern, const std::string& text) {
  // Iterative glob with single-star backtracking.
  std::size_t p = 0, t = 0, star = std::string::npos, mark = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

void RunExperiment(const ExperimentSpec& spec, Emitter& out,
                   const RunProfile& profile) {
  out.Config("experiment", spec.name);
  out.Config("title", spec.title);
  Context ctx(out, profile);
  spec.run(ctx);
  out.Finish();
}

}  // namespace ldpr::exp
