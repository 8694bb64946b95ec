#ifndef LDPR_EXP_EXPERIMENT_H_
#define LDPR_EXP_EXPERIMENT_H_

// Declarative experiment registry.
//
// Every figure / ablation / framework study of the paper registers an
// ExperimentSpec (src/exp/scenarios/*.cc): a name, a description, the
// datasets it touches, and a run callback that emits results through the
// Context's pluggable writers. The bench binaries, the `ldpr_cli experiment`
// subcommand, and the exp_smoke/golden test suites are all thin shells over
// this registry — adding a new workload is one ~30-line registration
// translation unit, not a new 150-line driver binary.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "exp/datasets.h"
#include "exp/emitter.h"
#include "exp/profile.h"

namespace ldpr::exp {

/// Everything a scenario needs at run time: where to write, how big to run,
/// and memoized dataset access.
class Context {
 public:
  Context(Emitter& out, const RunProfile& profile)
      : out_(out), profile_(profile) {}

  Emitter& out() { return out_; }
  const RunProfile& profile() const { return profile_; }

  /// Memoized paper populations (exp/datasets.h).
  const data::Dataset& Adult(std::uint64_t seed, double scale) const {
    return GetDataset(DatasetKind::kAdult, seed, scale);
  }
  const data::Dataset& Acs(std::uint64_t seed, double scale) const {
    return GetDataset(DatasetKind::kAcsEmployment, seed, scale);
  }
  const data::Dataset& Nursery(std::uint64_t seed, double scale) const {
    return GetDataset(DatasetKind::kNursery, seed, scale);
  }

  /// Emits the standard run-config preamble (legacy PrintRunConfig): CSV
  /// comment lines plus structured Config entries for the JSON writer.
  void EmitRunConfig(const std::string& bench_name, int n, int d);

 private:
  Emitter& out_;
  const RunProfile& profile_;
};

struct ExperimentSpec {
  std::string name;         ///< short id, e.g. "fig02" — unique
  std::string title;        ///< legacy bench id, e.g. "fig02_smp_reident_adult"
  std::string description;  ///< one line, shown by `experiment list`
  std::string group;  ///< "figure" | "ablation" | "framework" | "related"
  std::vector<std::string> datasets;  ///< e.g. {"adult"}; informational
  std::function<void(Context&)> run;
};

/// Global experiment registry. Scenario translation units self-register via
/// the Registrar below; uniqueness is enforced at registration.
class Registry {
 public:
  static Registry& Instance();

  void Register(ExperimentSpec spec);
  const ExperimentSpec* Find(const std::string& name) const;
  /// Experiments whose name or title matches `pattern` ('*'/'?' glob or
  /// exact), sorted by name.
  std::vector<const ExperimentSpec*> Match(const std::string& pattern) const;
  /// All experiments, sorted by name.
  std::vector<const ExperimentSpec*> All() const;

 private:
  std::vector<ExperimentSpec> specs_;
};

/// `static const Registrar r{spec};` at namespace scope registers the spec
/// before main() (scenario TUs are linked as whole objects).
struct Registrar {
  explicit Registrar(ExperimentSpec spec);
};

/// Glob match with '*' and '?' (used by Registry::Match and the CLI).
bool GlobMatch(const std::string& pattern, const std::string& text);

/// Runs one experiment: emits through `out`, then Finish()es it.
void RunExperiment(const ExperimentSpec& spec, Emitter& out,
                   const RunProfile& profile);

}  // namespace ldpr::exp

#endif  // LDPR_EXP_EXPERIMENT_H_
