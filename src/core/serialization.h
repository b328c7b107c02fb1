// Binary persistence for the labelling scheme, so the offline phase runs
// once and query servers load the precomputed index at startup.
//
// Current format (version QBSIDX02, little-endian, host-endianness — the
// index is a single-machine artifact like the paper's):
//   u64  magic 'QBSIDX02'
//   u32  num_vertices
//   u32  num_landmarks k
//   u32  landmarks[k]            (vertex ids)
//   u16  labels[num_vertices*k]  (kInfDist = absent)
//   u8   has_bp_masks            (Save() always writes 0)
//   if has_bp_masks:
//     per landmark: u32 count (<= 64), u32 selected[count]  (vertex ids)
//     (u64 s_minus, u64 s_zero) * num_vertices*k            (vertex-major)
//   u64  num_meta_edges
//   (u32 a, u32 b, u32 weight) * num_meta_edges
//
// The optional section holds the bit-parallel masks of an earlier mask
// layer, no longer built. Files written with it still load: the loader
// validates the section's layout (counts, vertex ids, full length) and
// skips it. Version QBSIDX01 is the same layout without the has_bp_masks
// byte; the loader still reads it. Save() always writes v2.
//
// Save() is atomic: it writes a ".tmp" sibling and renames it over the
// target, so a failed save leaves any previous file at `path` intact.
//
// The Δ cache is intentionally not stored: rebuilding it from the loaded
// labels is a fast parallel pass, and skipping it keeps files small.

#ifndef QBS_CORE_SERIALIZATION_H_
#define QBS_CORE_SERIALIZATION_H_

#include <optional>
#include <string>

#include "core/labeling.h"

namespace qbs {

// Writes the labelling scheme to `path` atomically (temp sibling +
// rename). Returns false on I/O failure (a message goes to stderr); the
// previous contents of `path`, if any, are then untouched and the temp
// file is removed.
bool SaveLabelingScheme(const LabelingScheme& scheme,
                        const std::string& path);

// Reads a labelling scheme previously written by SaveLabelingScheme.
// Returns std::nullopt on I/O failure, bad magic, or a corrupt layout.
std::optional<LabelingScheme> LoadLabelingScheme(const std::string& path);

}  // namespace qbs

#endif  // QBS_CORE_SERIALIZATION_H_
