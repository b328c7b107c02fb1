#include "core/serialization.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <utility>
#include <vector>

namespace qbs {
namespace {

constexpr uint64_t kMagicV1 = 0x3130584449534251ull;  // "QBSIDX01"
constexpr uint64_t kMagicV2 = 0x3230584449534251ull;  // "QBSIDX02"

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

// Validates and skips the optional bit-parallel mask section of a v2 file
// (written by the retired mask layer; current writers set the flag to 0).
bool SkipBpSection(std::ifstream& in, const PathLabeling& labeling) {
  uint8_t has_bp = 0;
  if (!ReadPod(in, &has_bp) || has_bp > 1) {
    std::cerr << "LoadLabelingScheme: bad bit-parallel flag\n";
    return false;
  }
  if (has_bp == 0) return true;
  const uint32_t k = labeling.num_landmarks();
  const VertexId n = labeling.num_vertices();
  for (LandmarkIndex i = 0; i < k; ++i) {
    uint32_t count = 0;
    if (!ReadPod(in, &count) || count > 64) {
      std::cerr << "LoadLabelingScheme: bad selected-neighbour count\n";
      return false;
    }
    for (uint32_t j = 0; j < count; ++j) {
      VertexId w = 0;
      if (!ReadPod(in, &w) || w >= n) {
        std::cerr << "LoadLabelingScheme: bad selected neighbour\n";
        return false;
      }
    }
  }
  // Two u64 masks per (vertex, landmark) slot.
  const auto mask_bytes =
      static_cast<std::streamsize>(static_cast<uint64_t>(n) * k * 16);
  in.ignore(mask_bytes);
  if (in.gcount() != mask_bytes) {
    std::cerr << "LoadLabelingScheme: truncated masks\n";
    return false;
  }
  return true;
}

}  // namespace

bool SaveLabelingScheme(const LabelingScheme& scheme,
                        const std::string& path) {
  // Write to a temp sibling and rename, so a failed or interrupted save
  // never replaces a good index with a partial one.
  const std::string tmp = path + ".tmp";
  const auto fail = [&tmp](const char* what) {
    std::cerr << "SaveLabelingScheme: " << what << ' ' << tmp << '\n';
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    return false;
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return fail("cannot open");
    const PathLabeling& l = scheme.labeling;
    WritePod(out, kMagicV2);
    WritePod(out, l.num_vertices());
    WritePod(out, l.num_landmarks());
    for (VertexId r : l.landmarks()) WritePod(out, r);
    for (VertexId v = 0; v < l.num_vertices(); ++v) {
      for (LandmarkIndex i = 0; i < l.num_landmarks(); ++i) {
        WritePod(out, l.Get(v, i));
      }
    }
    WritePod(out, uint8_t{0});  // no bit-parallel section
    const auto& edges = scheme.meta.Edges();
    WritePod(out, static_cast<uint64_t>(edges.size()));
    for (const MetaEdge& e : edges) {
      WritePod(out, e.a);
      WritePod(out, e.b);
      WritePod(out, e.weight);
    }
    out.close();  // flush now: buffered write errors surface here
    if (!out) return fail("write failed for");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) return fail("rename failed for");
  return true;
}

std::optional<LabelingScheme> LoadLabelingScheme(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "LoadLabelingScheme: cannot open " << path << '\n';
    return std::nullopt;
  }
  uint64_t magic = 0;
  VertexId num_vertices = 0;
  uint32_t k = 0;
  if (!ReadPod(in, &magic) || (magic != kMagicV1 && magic != kMagicV2) ||
      !ReadPod(in, &num_vertices) || !ReadPod(in, &k)) {
    std::cerr << "LoadLabelingScheme: bad header in " << path << '\n';
    return std::nullopt;
  }
  std::vector<VertexId> landmarks(k);
  for (auto& r : landmarks) {
    if (!ReadPod(in, &r) || r >= num_vertices) {
      std::cerr << "LoadLabelingScheme: bad landmark\n";
      return std::nullopt;
    }
  }
  LabelingScheme scheme;
  scheme.labeling = PathLabeling(num_vertices, std::move(landmarks));
  for (VertexId v = 0; v < num_vertices; ++v) {
    for (LandmarkIndex i = 0; i < k; ++i) {
      DistT d = kInfDist;
      if (!ReadPod(in, &d)) {
        std::cerr << "LoadLabelingScheme: truncated labels\n";
        return std::nullopt;
      }
      scheme.labeling.Set(v, i, d);
    }
  }
  if (magic == kMagicV2 && !SkipBpSection(in, scheme.labeling)) {
    return std::nullopt;
  }
  uint64_t num_edges = 0;
  if (!ReadPod(in, &num_edges)) {
    std::cerr << "LoadLabelingScheme: truncated meta header\n";
    return std::nullopt;
  }
  scheme.meta = MetaGraph(k);
  for (uint64_t e = 0; e < num_edges; ++e) {
    LandmarkIndex a = 0;
    LandmarkIndex b = 0;
    uint32_t w = 0;
    if (!ReadPod(in, &a) || !ReadPod(in, &b) || !ReadPod(in, &w) || a >= k ||
        b >= k || a == b || w == 0) {
      std::cerr << "LoadLabelingScheme: bad meta edge\n";
      return std::nullopt;
    }
    scheme.meta.AddEdge(a, b, w);
  }
  scheme.meta.Finalize();
  return scheme;
}

}  // namespace qbs
