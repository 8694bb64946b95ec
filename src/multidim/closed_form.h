#ifndef LDPR_MULTIDIM_CLOSED_FORM_H_
#define LDPR_MULTIDIM_CLOSED_FORM_H_

// Closed-form tally sampling for the multidimensional solutions.
//
// Every estimation-only experiment of the paper (fig05/fig16/abl06/abl07 and
// the Wang-style numeric scenarios) consumes only the aggregate support
// counts, never the per-user reports. For a population summarized by its
// per-attribute true-value histograms, those counts can be drawn directly:
//
//   * the users that sample attribute j thin each histogram cell as
//     Binomial(h_v, 1/d) — exact, since users sample independently;
//   * the sampled users' randomizer output is the protocol's closed-form
//     support tally: cell v draws Binomial(sub_v, p) + Binomial(m - sub_v,
//     q), the same construction as fo::Aggregator::AccumulateHistogram
//     (exact jointly across cells for UE payloads, per-cell-exact marginal
//     for GRR);
//   * the n - m_j fake-data users contribute one Multinomial(n - m_j, fake
//     distribution) per attribute (uniform for RS+FD, the prior f~ for
//     RS+RFD) for GRR payloads, or a fake-one-hot multinomial followed by
//     per-bit binomials for UE payloads.
//
// O(sum_j k_j) RNG draws replace O(n * d) per-user draws, so
// full-paper-scale estimation runs in microseconds. Per attribute and per
// value the sampled counts are distribution-exact; dropped are only the
// cross-cell GRR count correlations and the cross-attribute correlation
// induced by one user sampling a single attribute (the same caveat as the
// fo closed-form histogram paths), which leaves every per-value estimate,
// its variance, and any expected-MSE metric exact in distribution. The RNG
// streams differ from the per-user paths —
// experiment profiles gate this behind RunProfile::Fidelity::kFast and pin
// separate goldens.

#include <vector>

#include "core/rng.h"
#include "multidim/adaptive.h"
#include "multidim/fake_data.h"
#include "multidim/rsfd.h"
#include "multidim/rsrfd.h"
#include "multidim/smp.h"
#include "multidim/spl.h"

namespace ldpr::multidim {

/// Per-attribute true-value histograms: hists[j][v] = #users whose attribute
/// j holds v. All closed-form entry points consume this summary; sim owns
/// the dataset-facing builder (sim::AttributeHistograms).
using AttributeHistograms = std::vector<std::vector<long long>>;

/// Draws the aggregate support counts of n users summarized by `hists`
/// through a fake-data solution (RS+FD, RS+RFD or either adaptive variant)
/// — the closed-form counterpart of accumulating n RandomizeUser outputs
/// (per attribute distribution-exact, see above). Each attribute follows
/// its column: the payload's p / q and the fake source's distribution.
std::vector<std::vector<long long>> SampleSupportCounts(
    const FakeData& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng);

/// Closed-form per-attribute frequency estimates: SampleSupportCounts
/// composed with the solution's EstimateFromSupportCounts.
std::vector<std::vector<double>> EstimateClosedForm(
    const FakeData& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng);

/// SPL: every user reports every attribute at eps/d, so attribute j is one
/// full fo closed-form collection over hists[j].
std::vector<std::vector<double>> EstimateClosedForm(
    const Spl& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng);

/// SMP: attribute j sees a Binomial(h_v, 1/d)-thinned sub-population
/// (fo::Aggregator::AccumulateSubsampledHistogram); attributes no user
/// sampled estimate uniform, mirroring Smp::Estimate.
std::vector<std::vector<double>> EstimateClosedForm(
    const Smp& protocol, const AttributeHistograms& hists, long long n,
    Rng& rng);
std::vector<std::vector<double>> EstimateClosedForm(
    const SmpAdaptive& protocol, const AttributeHistograms& hists,
    long long n, Rng& rng);

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_CLOSED_FORM_H_
