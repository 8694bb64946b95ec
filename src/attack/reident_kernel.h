#ifndef LDPR_ATTACK_REIDENT_KERNEL_H_
#define LDPR_ATTACK_REIDENT_KERNEL_H_

// Internal to the re-identification matcher: the byte kernel's instruction
// tiers, exposed so that tests can run each tier the host supports against
// the scalar reference. ReidentAccuracy always runs the widest supported
// tier; nothing else should need this header.

#include <cstdint>
#include <utility>
#include <vector>

#include "attack/profiling.h"
#include "attack/reident.h"
#include "core/rng.h"
#include "data/dataset.h"

namespace ldpr::attack::reident_internal {

/// Builds of the byte kernel. kBaseline is the portable two-pass kernel at
/// the default flags (SSE2 on x86-64). kAvx2 and kAvx512 are the fused
/// block kernels, compiled with target attributes; they exist only on
/// x86-64 GCC/Clang builds.
enum class ByteKernel { kBaseline, kAvx2, kAvx512 };

/// The tiers this build compiled and this CPU runs, narrowest first. kAvx2
/// needs AVX2 and POPCNT; kAvx512 needs AVX512BW (byte compares into
/// masks), AVX512VL and POPCNT.
std::vector<ByteKernel> SupportedByteKernels();

/// The widest supported tier: SupportedByteKernels().back().
ByteKernel DetectByteKernel();

const char* ByteKernelName(ByteKernel kernel);

/// Records strictly closer to a profile than the target's own record, and
/// records at the target's own distance (the target included).
struct MatchCounts {
  long long closer = 0;
  long long ties = 0;
};

/// One target through the byte kernel: `checks` are (attribute, value)
/// pairs with every value in [0, 256) and at most 255 of them;
/// `columns[attr]` is attribute attr's background column packed to bytes;
/// `scratch` is the baseline tier's distance buffer (resized to n), which
/// the fused tiers leave alone. Every tier returns the same counts.
MatchCounts CountCloserAndTiesBytes(
    ByteKernel kernel, const std::vector<std::pair<int, int>>& checks,
    const std::vector<const std::uint8_t*>& columns, int user, int n,
    std::vector<std::uint8_t>& scratch);

/// ReidentAccuracy with the byte kernel pinned to `kernel`, which must be
/// supported. Same draws and, for every tier, the same result.
ReidentResult ReidentAccuracyWithKernel(
    ByteKernel kernel, const std::vector<Profile>& profiles,
    const data::Dataset& background, const std::vector<bool>& bk_attributes,
    const ReidentConfig& config, Rng& rng);

}  // namespace ldpr::attack::reident_internal

#endif  // LDPR_ATTACK_REIDENT_KERNEL_H_
