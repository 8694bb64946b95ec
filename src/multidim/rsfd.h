#ifndef LDPR_MULTIDIM_RSFD_H_
#define LDPR_MULTIDIM_RSFD_H_

#include <vector>

#include "multidim/fake_data.h"

namespace ldpr::multidim {

/// The five RS+FD protocol variants evaluated by the paper (Section 2.3.2):
/// the local randomizer M applied to the sampled attribute, combined with
/// the fake-data generation procedure for the non-sampled attributes.
enum class RsFdVariant {
  kGrr,   ///< GRR on the sampled value; uniform fake values elsewhere.
  kSueZ,  ///< SUE on the sampled value; SUE applied to zero vectors.
  kSueR,  ///< SUE on the sampled value; SUE applied to random one-hots.
  kOueZ,  ///< OUE on the sampled value; OUE applied to zero vectors.
  kOueR,  ///< OUE on the sampled value; OUE applied to random one-hots.
};

const char* RsFdVariantName(RsFdVariant variant);

/// True when the variant's payload is unary-encoded bit vectors.
bool IsUeVariant(RsFdVariant variant);

/// True for the zero-vector fake-data variants (UE-z).
bool IsZeroFakeVariant(RsFdVariant variant);

/// Random Sampling Plus Fake Data (Arcolezi et al., CIKM 2021; Section 2.3.2).
///
/// Client: sample one attribute j uniformly, sanitize v_j with the local
/// randomizer at the amplified budget eps' = ln(d(e^eps - 1) + 1), and emit
/// uniform fake data for every other attribute. Server: the variant-specific
/// unbiased estimators of Section 2.3.2 remove both the randomizer's and the
/// fake data's bias. Every attribute is one FakeData column of the variant's
/// payload; reports carry only `values` (GRR) or only `bits` (UE).
class RsFd : public FakeData {
 public:
  RsFd(RsFdVariant variant, std::vector<int> domain_sizes, double epsilon);

  RsFdVariant variant() const { return variant_; }

 private:
  RsFdVariant variant_;
};

}  // namespace ldpr::multidim

#endif  // LDPR_MULTIDIM_RSFD_H_
