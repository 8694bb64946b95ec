#include "sim/closed_form.h"

#include "core/check.h"

namespace ldpr::sim {

multidim::AttributeHistograms BuildAttributeHistograms(
    const data::Dataset& dataset) {
  LDPR_REQUIRE(dataset.n() >= 1,
               "BuildAttributeHistograms requires a non-empty dataset");
  return dataset.Counts();
}

}  // namespace ldpr::sim
