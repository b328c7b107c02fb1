// Names left over from the retired label-scan kernel layer.
//
// The per-query label-row scan is one plain loop over num_landmarks()
// lanes in core/sketch.cc (ComputeLabelBound, ComputeAnchorCandidatesInto);
// there is a single scan path and no kernel dispatch. The names below
// exist only because the benchmark package still compiles against them.

#ifndef QBS_CORE_LABEL_SCAN_H_
#define QBS_CORE_LABEL_SCAN_H_

#include <cstddef>
#include <cstdint>

namespace qbs {

/// The one scan path. Kept for perfbench; delete at the next benchmark
/// revision.
enum class ScanKernel : uint8_t {
  kScalar = 0,
};

/// Always kScalar. Kept for perfbench; delete at the next benchmark
/// revision.
inline ScanKernel ActiveScanKernel() { return ScanKernel::kScalar; }

/// A batch size with no meaning to the library. Kept for perfbench; delete
/// at the next benchmark revision.
inline constexpr size_t kScanBatch = 8;

}  // namespace qbs

#endif  // QBS_CORE_LABEL_SCAN_H_
