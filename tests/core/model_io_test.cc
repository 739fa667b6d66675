#include "core/model_io.h"

#include <fstream>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"

namespace retrasyn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

class ModelIoTest : public testing::Test {
 protected:
  ModelIoTest() : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 3), states_(grid_) {}
  UniformGrid grid_;
  StateSpace states_;
};

TEST_F(ModelIoTest, SaveLoadRoundTrip) {
  GlobalMobilityModel model(states_);
  Rng rng(3);
  std::vector<double> f(states_.size());
  for (double& x : f) x = rng.UniformDouble();
  model.ReplaceAll(f);

  const std::string path = TempPath("model_roundtrip.txt");
  ASSERT_TRUE(SaveMobilityModel(model, path).ok());

  GlobalMobilityModel restored(states_);
  ASSERT_TRUE(LoadMobilityModel(path, &restored).ok());
  EXPECT_TRUE(restored.initialized());
  for (StateId s = 0; s < states_.size(); ++s) {
    EXPECT_DOUBLE_EQ(restored.frequency(s), model.frequency(s)) << s;
  }
}

TEST_F(ModelIoTest, UninitializedModelRefusesToSave) {
  GlobalMobilityModel model(states_);
  const Status st = SaveMobilityModel(model, TempPath("never.txt"));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ModelIoTest, GeometryMismatchRejected) {
  GlobalMobilityModel model(states_);
  model.ReplaceAll(std::vector<double>(states_.size(), 0.1));
  const std::string path = TempPath("model_geom.txt");
  ASSERT_TRUE(SaveMobilityModel(model, path).ok());

  const UniformGrid other_grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4);
  const StateSpace other_states(other_grid);
  GlobalMobilityModel target(other_states);
  const Status st = LoadMobilityModel(path, &target);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(target.initialized());
}

TEST_F(ModelIoTest, GarbageFileRejected) {
  const std::string path = TempPath("model_garbage.txt");
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("definitely not a model\n1 2 3\n", f);
  std::fclose(f);
  GlobalMobilityModel model(states_);
  EXPECT_EQ(LoadMobilityModel(path, &model).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, TruncatedFileRejected) {
  GlobalMobilityModel model(states_);
  model.ReplaceAll(std::vector<double>(states_.size(), 0.2));
  const std::string path = TempPath("model_trunc.txt");
  ASSERT_TRUE(SaveMobilityModel(model, path).ok());
  // Chop the file roughly in half.
  std::string content;
  {
    std::ifstream in(path);
    std::string line;
    int keep = static_cast<int>(states_.size()) / 2;
    std::getline(in, line);
    content = line + "\n";
    for (int i = 0; i < keep && std::getline(in, line); ++i) {
      content += line + "\n";
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
  GlobalMobilityModel target(states_);
  EXPECT_EQ(LoadMobilityModel(path, &target).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelIoTest, MissingFileIsIOError) {
  GlobalMobilityModel model(states_);
  EXPECT_EQ(LoadMobilityModel("/no/such/model.txt", &model).code(),
            StatusCode::kIOError);
}

}  // namespace
}  // namespace retrasyn
