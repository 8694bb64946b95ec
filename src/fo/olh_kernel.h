#ifndef LDPR_FO_OLH_KERNEL_H_
#define LDPR_FO_OLH_KERNEL_H_

// Internal to OLH's block decode: the preimage-count kernel's instruction
// tiers, exposed so that tests can run each tier the host supports against
// the scalar reference. Olh::MakeAggregator always runs the widest supported
// tier; nothing else should need this header.

#include <memory>
#include <vector>

#include "fo/frequency_oracle.h"
#include "fo/olh.h"

namespace ldpr::fo::olh_internal {

/// Builds of the preimage-count kernel. kScalar is portable; kAvx2 and
/// kAvx512 (AVX-512F + DQ) are compiled with target attributes and exist
/// only on x86-64 GCC/Clang builds.
enum class OlhKernel { kScalar, kAvx2, kAvx512 };

/// The tiers this build compiled and this CPU runs, narrowest first.
std::vector<OlhKernel> SupportedOlhKernels();

const char* OlhKernelName(OlhKernel kernel);

/// Olh::MakeAggregator with the block kernel pinned to `kernel`, which must
/// be supported. Every tier gives the same counts.
std::unique_ptr<Aggregator> MakeAggregatorWithKernel(const Olh& oracle,
                                                     OlhKernel kernel);

}  // namespace ldpr::fo::olh_internal

#endif  // LDPR_FO_OLH_KERNEL_H_
