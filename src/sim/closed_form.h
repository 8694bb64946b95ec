#ifndef LDPR_SIM_CLOSED_FORM_H_
#define LDPR_SIM_CLOSED_FORM_H_

// The closed-form ("fast profile") multidimensional estimation path.
//
// sim::Mode::kClosedForm replaces per-user simulation with O(k) tally draws
// for single-attribute collections (RunCollection); this header is its
// multidimensional counterpart: it starts from the dataset's per-attribute
// true-value histograms (kept by the dataset as it is built), and every
// simulated collection round then draws its aggregate support counts
// straight from the closed-form samplers in multidim/closed_form.h — no
// per-user loop anywhere.
//
// The RNG streams necessarily differ from RunMultidim's per-user streams,
// so the experiment layer gates this path behind
// exp::RunProfile::Fidelity::kFast and pins separate goldens; per attribute
// the sampled estimates are distribution-exact
// (sim_fast_profile_test asserts the 3-sigma equivalence).

#include <vector>

#include "core/rng.h"
#include "data/dataset.h"
#include "multidim/closed_form.h"
#include "multidim/numeric.h"

namespace ldpr::sim {

/// The dataset's per-attribute true-value histograms. The dataset keeps
/// these counts as its records are added (data::Dataset::Counts), so this
/// is an O(sum_j k_j) copy and a fast-profile run makes no pass over the n
/// users. Scenarios still hoist it out of their grid loops to copy once.
multidim::AttributeHistograms BuildAttributeHistograms(
    const data::Dataset& dataset);

/// One simulated collection round on the closed-form path, mirroring
/// RunMultidim's signature: works for every Solution with an
/// EstimateClosedForm overload (Spl, Smp, SmpAdaptive, and every
/// multidim::FakeData solution: RsFd, RsRfd, RsFdAdaptive, RsRfdAdaptive).
/// Prefer the hist-consuming overload inside grid loops.
template <typename Solution>
std::vector<std::vector<double>> RunMultidimClosedForm(
    const Solution& solution, const data::Dataset& dataset, Rng& rng) {
  return multidim::EstimateClosedForm(
      solution, BuildAttributeHistograms(dataset),
      static_cast<long long>(dataset.n()), rng);
}

}  // namespace ldpr::sim

#endif  // LDPR_SIM_CLOSED_FORM_H_
