#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#if defined(__unix__)
#include <signal.h>
#include <sys/resource.h>
#endif

#include <gtest/gtest.h>

#include "baselines/bfs_oracle.h"
#include "core/qbs_index.h"
#include "core/serialization.h"
#include "gen/generators.h"
#include "tests/test_util.h"
#include "workload/query_workload.h"

namespace qbs {
namespace {

class SerializationTest : public ::testing::Test {
 protected:
  void SetUp() override { path_ = ::testing::TempDir() + "/index.qbs"; }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(SerializationTest, SchemeRoundTrip) {
  Graph g = testing::Figure4Graph();
  const auto scheme =
      BuildLabelingScheme(g, testing::Figure4Landmarks());
  ASSERT_TRUE(SaveLabelingScheme(scheme, path_));
  auto loaded = LoadLabelingScheme(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->labeling.landmarks(), scheme.labeling.landmarks());
  EXPECT_EQ(loaded->labeling.NumEntries(), scheme.labeling.NumEntries());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < 3; ++i) {
      EXPECT_EQ(loaded->labeling.Get(v, i), scheme.labeling.Get(v, i));
    }
  }
  EXPECT_EQ(loaded->meta.Edges(), scheme.meta.Edges());
  for (LandmarkIndex i = 0; i < 3; ++i) {
    for (LandmarkIndex j = 0; j < 3; ++j) {
      EXPECT_EQ(loaded->meta.Distance(i, j), scheme.meta.Distance(i, j));
    }
  }
}

TEST_F(SerializationTest, IndexSaveLoadQueriesAgree) {
  Graph g = BarabasiAlbert(400, 3, 9);
  QbsOptions options;
  options.num_landmarks = 10;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));

  auto loaded = QbsIndex::LoadFromFile(g, path_, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->landmarks(), built.landmarks());
  EXPECT_GT(loaded->DeltaSizeBytes(), 0u);  // Δ rebuilt on load
  for (const auto& [u, v] : SampleQueryPairs(g, 40, 3)) {
    ASSERT_EQ(loaded->Query(u, v), built.Query(u, v));
    ASSERT_EQ(loaded->Query(u, v), SpgByDoubleBfs(g, u, v));
  }
}

TEST_F(SerializationTest, LoadRejectsWrongGraph) {
  Graph g = BarabasiAlbert(300, 2, 5);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  Graph other = BarabasiAlbert(301, 2, 5);
  EXPECT_FALSE(QbsIndex::LoadFromFile(other, path_, options).has_value());
}

TEST_F(SerializationTest, LoadRejectsGarbage) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not an index";
  out.close();
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

TEST_F(SerializationTest, LoadRejectsTruncated) {
  Graph g = BarabasiAlbert(200, 2, 6);
  QbsOptions options;
  options.num_landmarks = 5;
  QbsIndex built = QbsIndex::Build(g, options);
  ASSERT_TRUE(built.Save(path_));
  // Truncate the file to half.
  std::ifstream in(path_, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  out.close();
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

TEST_F(SerializationTest, MissingFile) {
  EXPECT_FALSE(LoadLabelingScheme("/nonexistent/index.qbs").has_value());
}

// Reads a whole file as bytes.
std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

// A loaded fixture must equal a fresh Figure-4 build (labels and meta) and
// finish into an index whose every answer matches the BFS oracle.
void ExpectFigure4Fixture(const std::string& fixture) {
  auto loaded = LoadLabelingScheme(fixture);
  ASSERT_TRUE(loaded.has_value());

  Graph g = testing::Figure4Graph();
  const auto fresh = BuildLabelingScheme(g, testing::Figure4Landmarks());
  ASSERT_EQ(loaded->labeling.landmarks(), fresh.labeling.landmarks());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    for (LandmarkIndex i = 0; i < fresh.labeling.num_landmarks(); ++i) {
      EXPECT_EQ(loaded->labeling.Get(v, i), fresh.labeling.Get(v, i))
          << "v=" << v << " i=" << i;
    }
  }
  EXPECT_EQ(loaded->meta.Edges(), fresh.meta.Edges());

  auto index = QbsIndex::LoadFromFile(g, fixture);
  ASSERT_TRUE(index.has_value());
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(index->Query(u, v), SpgByDoubleBfs(g, u, v))
          << "u=" << u << " v=" << v;
    }
  }
}

// The committed fixture was written by the v1 (QBSIDX01) writer, before the
// v2 format's mask-section flag existed. The v2 loader must still read it.
TEST_F(SerializationTest, LoadsV1FormatFixture) {
  ExpectFigure4Fixture(std::string(QBS_TEST_DATA_DIR) + "/figure4_v1.qbsidx");
}

// The committed fixture was written by the QBSIDX02 writer of the retired
// bit-parallel mask layer (Figure-4 graph, masks built, flag = 1). The
// loader validates and skips the mask section.
TEST_F(SerializationTest, LoadsV2FixtureWithMaskSection) {
  const std::string fixture =
      std::string(QBS_TEST_DATA_DIR) + "/figure4_v2_masks.qbsidx";
  ExpectFigure4Fixture(fixture);

  // Layout: 16-byte header, 3 landmark ids, 14 x 3 labels, then the flag.
  const std::string data = ReadBytes(fixture);
  constexpr size_t kFlagOffset = 16 + 3 * 4 + 14 * 3 * 2;
  ASSERT_GT(data.size(), kFlagOffset);
  ASSERT_EQ(data[kFlagOffset], 1);  // the fixture really carries masks

  // A copy truncated inside the mask section (the 14 x 3 x 16 mask bytes
  // end well past the midpoint) is rejected, not read as a short section.
  const size_t mask_end = data.size() - (8 + 3 * 12);  // before the meta
  const size_t cut = mask_end - 100;
  ASSERT_GT(cut, kFlagOffset + 1);
  WriteBytes(path_, data.substr(0, cut));
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());

  // A selected-neighbour count above 64 is still rejected.
  std::string bad_count = data;
  bad_count[kFlagOffset + 1] = 65;
  WriteBytes(path_, bad_count);
  EXPECT_FALSE(LoadLabelingScheme(path_).has_value());
}

// Save() writes v2 with the mask flag 0 and no mask section: the file is
// exactly header + labels + flag + meta-graph.
TEST_F(SerializationTest, SaveWritesV2WithoutMaskSection) {
  Graph g = testing::Figure4Graph();
  const auto scheme = BuildLabelingScheme(g, testing::Figure4Landmarks());
  ASSERT_TRUE(SaveLabelingScheme(scheme, path_));
  const std::string data = ReadBytes(path_);
  ASSERT_EQ(data.substr(0, 8), "QBSIDX02");
  constexpr size_t kFlagOffset = 16 + 3 * 4 + 14 * 3 * 2;
  ASSERT_EQ(data.size(),
            kFlagOffset + 1 + 8 + 12 * scheme.meta.Edges().size());
  EXPECT_EQ(data[kFlagOffset], 0);
}

#if defined(__unix__)
// A save that fails part-way (here: the file-size limit cuts the write)
// leaves the previous index file intact and loadable, and no ".tmp"
// sibling behind.
TEST_F(SerializationTest, FailedSaveKeepsPreviousFile) {
  Graph g = BarabasiAlbert(300, 3, 17);
  QbsOptions options;
  options.num_landmarks = 8;
  QbsIndex index = QbsIndex::Build(g, options);
  ASSERT_TRUE(index.Save(path_));
  const std::string before = ReadBytes(path_);
  ASSERT_GT(before.size(), 4096u);

  // Writes past the limit fail with EFBIG instead of raising SIGXFSZ.
  struct sigaction ignore {};
  struct sigaction saved_action {};
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(sigaction(SIGXFSZ, &ignore, &saved_action), 0);
  rlimit saved_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  rlimit small = saved_limit;
  small.rlim_cur = 1024;
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &small), 0);
  const bool saved = index.Save(path_);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  ASSERT_EQ(sigaction(SIGXFSZ, &saved_action, nullptr), 0);

  EXPECT_FALSE(saved);
  EXPECT_EQ(ReadBytes(path_), before);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  auto loaded = QbsIndex::LoadFromFile(g, path_, options);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->landmarks(), index.landmarks());
}
#endif

}  // namespace
}  // namespace qbs
