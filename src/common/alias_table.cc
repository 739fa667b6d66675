#include "common/alias_table.h"

#include <algorithm>

#include "common/logging.h"

namespace retrasyn {

double AliasTable::BuildSlice(const double* weights, size_t n, double* prob,
                              uint32_t* alias, Worklists& work) {
  RETRASYN_CHECK(n <= static_cast<size_t>(UINT32_MAX));
  std::vector<uint32_t>& small = work.small;
  std::vector<uint32_t>& large = work.large;
  std::vector<double>& scaled = work.scaled;
  small.clear();
  large.clear();
  scaled.resize(n);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    scaled[i] = w;
    total += w;
  }
  if (total <= 0.0) {
    std::fill(prob, prob + n, 0.0);
    std::fill(alias, alias + n, 0u);
    return total;
  }

  // Vose's stable partition: columns scaled to mean 1, the deficit of each
  // under-full column topped up by exactly one over-full donor.
  const double scale = static_cast<double>(n) / total;
  for (size_t i = 0; i < n; ++i) {
    scaled[i] *= scale;
    if (scaled[i] < 1.0) {
      small.push_back(static_cast<uint32_t>(i));
    } else {
      large.push_back(static_cast<uint32_t>(i));
    }
  }
  while (!small.empty() && !large.empty()) {
    const uint32_t s = small.back();
    small.pop_back();
    const uint32_t l = large.back();
    prob[s] = scaled[s];
    alias[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are exactly full up to rounding; their alias is never taken.
  for (uint32_t l : large) {
    prob[l] = 1.0;
    alias[l] = l;
  }
  for (uint32_t s : small) {
    prob[s] = 1.0;
    alias[s] = s;
  }
  return total;
}

void AliasTable::Build(const double* weights, size_t n) {
  prob_.resize(n);
  alias_.resize(n);
  total_ = BuildSlice(weights, n, prob_.data(), alias_.data(), work_);
  has_mass_ = total_ > 0.0;
}

}  // namespace retrasyn
