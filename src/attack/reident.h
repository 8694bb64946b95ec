#ifndef LDPR_ATTACK_REIDENT_H_
#define LDPR_ATTACK_REIDENT_H_

#include <vector>

#include "attack/profiling.h"
#include "core/rng.h"
#include "data/dataset.h"

namespace ldpr::attack {

/// Background-knowledge scope (Section 3.2.4).
enum class ReidentModel {
  kFullKnowledge,     ///< FK-RI: D_BK contains every attribute
  kPartialKnowledge,  ///< PK-RI: D_BK restricted to a random attribute subset
};

struct ReidentConfig {
  /// Anonymity-set sizes to evaluate (paper: top-1 and top-10).
  std::vector<int> top_k = {1, 10};
  /// Number of target users evaluated (uniform subsample); <= 0 means all.
  /// RID-ACC is a per-user mean, so subsampling the targets estimates the
  /// same quantity at a fraction of the O(n^2) matching cost.
  int max_targets = 3000;
  /// Fraction of background-knowledge cells replaced with a uniformly
  /// random other value before matching, in [0, 1]. The paper matches
  /// against an exact copy of the collected dataset (bk_noise = 0); real
  /// background knowledge (census releases, stale profiles) is noisy, and
  /// this knob measures how fast the attack degrades with it (abl10).
  double bk_noise = 0.0;
};

struct ReidentResult {
  /// RID-ACC(%) for each entry of ReidentConfig::top_k.
  std::vector<double> rid_acc_percent;
};

/// Runs the matching algorithm R + decision algorithm G of Section 3.2.4.
///
/// `profiles[i]` is the inferred profile of user i, whose true record is row
/// i of `background` (the paper uses the collected dataset itself as D_BK).
/// `bk_attributes[a]` marks the attributes present in the adversary's
/// background knowledge; profile entries outside it are ignored.
///
/// Distance between a profile and a record is the Hamming distance over the
/// profile's attributes (the LDP encodings carry no value metric, Section
/// 3.2.4). For each target, the decision algorithm returns the *expected*
/// top-k hit rate under uniformly random tie-breaking: with c_less records
/// strictly closer than the user's own record and c_eq records at the same
/// distance (the record itself included), the probability that the true
/// record lands in the top-k list is clamp((k - c_less) / c_eq, 0, 1). This
/// matches materializing a random top-k list in expectation, without the
/// variance.
///
/// Cost: O(n * d) once per call to copy the known background columns into
/// bytes, then O(targets * n * checks / W) per call, where checks is the
/// number of usable profile entries (in D_BK, value inside [0, k_j)) and W
/// the records per vector instruction. The byte kernel has three tiers,
/// and each call runs the widest one the CPU supports, picked once with
/// __builtin_cpu_supports (non-x86-64 builds have only the first):
///   - baseline (default flags, SSE2 on x86-64, W = 16): adds
///     (column[r] != value) into a byte distance per record, one pass per
///     check, then counts dist < true_dist and dist == true_dist in a last
///     pass;
///   - AVX2 (W = 32) and AVX-512BW+VL (W = 64): per block of 4 vectors of
///     records, keep the block's distances in registers across all checks
///     and tally it with mask popcounts, so each check costs one column
///     load per vector and nothing is stored.
/// Every loop is branch-free on the data. The counts are exact and the same
/// on every tier: only whether a record's distance is below, at or above
/// the target's matters, and a distance is never truncated (a target with
/// more than 255 checks, or a background attribute with k_j > 256, runs
/// the baseline kernel on int columns). A value outside [0, k_j)
/// mismatches every record, the target's own included, so dropping it
/// changes no count, and neither does the order of the checks.
ReidentResult ReidentAccuracy(const std::vector<Profile>& profiles,
                              const data::Dataset& background,
                              const std::vector<bool>& bk_attributes,
                              const ReidentConfig& config, Rng& rng);

/// ReidentAccuracy on the profiles after `surveys_seen` surveys, read
/// straight from the log: the same draws and the same result as
/// ReidentAccuracy(log.Snapshots(surveys_seen), ...), with no profile
/// materialized. Requires log.n() == background.n() and
/// 0 <= surveys_seen <= log.num_surveys().
ReidentResult ReidentAccuracy(const ProfileLog& log, int surveys_seen,
                              const data::Dataset& background,
                              const std::vector<bool>& bk_attributes,
                              const ReidentConfig& config, Rng& rng);

/// Convenience: FK-RI uses every attribute; PK-RI draws a random subset of
/// at least ceil(d/2) attributes (Appendix C.2).
std::vector<bool> MakeBackgroundAttributes(int d, ReidentModel model,
                                           Rng& rng);

/// Random-guess baseline: expected RID-ACC(%) = 100 * top_k / n.
double BaselineRidAcc(int top_k, int n);

}  // namespace ldpr::attack

#endif  // LDPR_ATTACK_REIDENT_H_
