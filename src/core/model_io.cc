#include "core/model_io.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/coding.h"

namespace retrasyn {

namespace {
constexpr char kMagic[] = "retrasyn-mobility-model";
// v2: the header pins the discretization by cell count and a hash of the
// grid's canonical Describe() bytes instead of assuming a uniform K — model
// files are portable across SpatialGrid backends and refuse geometry drift.
constexpr int kVersion = 2;
}  // namespace

Status SaveMobilityModel(const GlobalMobilityModel& model,
                         const std::string& path) {
  if (!model.initialized()) {
    return Status::FailedPrecondition("model has never been updated");
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open model file for writing: " + path);
  }
  const StateSpace& states = model.states();
  std::fprintf(f, "%s %d %u %u %016llx\n", kMagic, kVersion,
               states.num_cells(), states.size(),
               static_cast<unsigned long long>(
                   Fnv1a64(states.grid().Describe())));
  for (StateId s = 0; s < states.size(); ++s) {
    std::fprintf(f, "%.17g\n", model.frequency(s));
  }
  if (std::fclose(f) != 0) {
    return Status::IOError("failed to close model file: " + path);
  }
  return Status::OK();
}

Status LoadMobilityModel(const std::string& path, GlobalMobilityModel* model) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IOError("cannot open model file: " + path);
  }
  std::string header;
  if (!std::getline(in, header)) {
    return Status::InvalidArgument("empty model file: " + path);
  }
  std::istringstream header_stream(header);
  std::string magic;
  int version = 0;
  uint32_t cells = 0, domain = 0;
  std::string grid_hash_hex;
  header_stream >> magic >> version >> cells >> domain >> grid_hash_hex;
  if (magic != kMagic) {
    return Status::InvalidArgument("not a mobility model file: " + path);
  }
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported model version " +
                                   std::to_string(version));
  }
  const StateSpace& states = model->states();
  if (cells != states.num_cells() || domain != states.size()) {
    return Status::FailedPrecondition(
        "model geometry mismatch: file has |C|=" + std::to_string(cells) +
        ", |S|=" + std::to_string(domain) + "; target has |C|=" +
        std::to_string(states.num_cells()) + ", |S|=" +
        std::to_string(states.size()));
  }
  char expected[17];
  std::snprintf(expected, sizeof(expected), "%016llx",
                static_cast<unsigned long long>(
                    Fnv1a64(states.grid().Describe())));
  if (grid_hash_hex != expected) {
    return Status::FailedPrecondition(
        "model grid mismatch: file was saved against a different "
        "discretization (grid hash " + grid_hash_hex + ", target " +
        expected + "); target grid is " + states.grid().ToString());
  }
  std::vector<double> frequencies;
  frequencies.reserve(domain);
  double value;
  while (in >> value) frequencies.push_back(value);
  if (frequencies.size() != domain) {
    return Status::InvalidArgument(
        "model file truncated: expected " + std::to_string(domain) +
        " frequencies, found " + std::to_string(frequencies.size()));
  }
  model->ReplaceAll(frequencies);
  return Status::OK();
}

}  // namespace retrasyn
