#include "multidim/rsfd.h"

#include <utility>

namespace ldpr::multidim {

const char* RsFdVariantName(RsFdVariant variant) {
  switch (variant) {
    case RsFdVariant::kGrr:
      return "RS+FD[GRR]";
    case RsFdVariant::kSueZ:
      return "RS+FD[SUE-z]";
    case RsFdVariant::kSueR:
      return "RS+FD[SUE-r]";
    case RsFdVariant::kOueZ:
      return "RS+FD[OUE-z]";
    case RsFdVariant::kOueR:
      return "RS+FD[OUE-r]";
  }
  return "unknown";
}

bool IsUeVariant(RsFdVariant variant) { return variant != RsFdVariant::kGrr; }

bool IsZeroFakeVariant(RsFdVariant variant) {
  return variant == RsFdVariant::kSueZ || variant == RsFdVariant::kOueZ;
}

RsFd::RsFd(RsFdVariant variant, std::vector<int> domain_sizes, double epsilon)
    : FakeData(std::move(domain_sizes), epsilon, /*priors=*/{},
               ReportShape::kOnePayload),
      variant_(variant) {
  FakePayload payload = FakePayload::kGrr;
  if (variant == RsFdVariant::kSueZ || variant == RsFdVariant::kSueR) {
    payload = FakePayload::kSue;
  } else if (variant == RsFdVariant::kOueZ || variant == RsFdVariant::kOueR) {
    payload = FakePayload::kOue;
  }
  const FakeSource source =
      IsZeroFakeVariant(variant) ? FakeSource::kZero : FakeSource::kUniform;
  for (int j = 0; j < d(); ++j) AddColumn(payload, source);
}

}  // namespace ldpr::multidim
