// Seeded per-round event generator for the end-to-end benchmark.
//
// The service under test receives only the Enter/Move/Quit events this
// generator emits. It carries its own PRNG, so the inputs are a function of
// the seed alone and never change when the library's RNG or generators do.
//
// Population model: `users` streams are live at round 0 (everyone Enters).
// Every later round each live user either Quits (probability
// quit_probability, a geometric stream lifetime whose mean matches the
// paper's average stream length of 13.61 reports) or Moves; each quitting
// user is replaced by a fresh user id that Enters the same round, so the
// live population stays constant.
//
// Mobility:
//   kHotspot    — T-Drive-like taxis: a few weighted Gaussian hotspots at
//                 fixed places (layout_seed); users travel toward a target
//                 drawn near a hotspot in bounded steps, dwell on arrival,
//                 then re-target. Most of the mass sits in a handful of
//                 cells.
//   kRandomWalk — unskewed: uniform start, Gaussian steps, clamped to the
//                 box.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// xoshiro256** seeded through splitmix64.
class Prng {
 public:
  explicit Prng(uint64_t seed) {
    for (uint64_t& word : s_) word = SplitMix(seed);
  }
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Standard normal (Box–Muller; one draw per call, the pair's twin is
  /// dropped to keep the stream position a pure function of call count).
  double Normal() {
    const double u1 = 1.0 - Uniform();
    const double u2 = Uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  static uint64_t SplitMix(uint64_t& x) {
    uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

enum class Mobility { kHotspot, kRandomWalk };

enum class EventKind : uint8_t { kEnter, kMove, kQuit };

struct Event {
  uint64_t user = 0;
  double x = 0.0;  ///< unused for kQuit
  double y = 0.0;
  EventKind kind = EventKind::kMove;
};

struct GeneratorConfig {
  Mobility mobility = Mobility::kHotspot;
  uint32_t users = 1000;
  double extent = 30000.0;  ///< the square [0, extent]^2
  /// Seeds the hotspot layout — the workload's fixed "city". The run seed
  /// varies only the users, so utility and cost stay comparable across
  /// seeds instead of following where the hotspots happened to land.
  uint64_t layout_seed = 0x5eed0c17ULL;
  double quit_probability = 1.0 / 13.61;
  // Hotspot mobility.
  int num_hotspots = 6;
  double hotspot_sigma = 1500.0;
  double min_step = 200.0;
  double max_step = 900.0;
  double route_noise = 150.0;
  double dwell_probability = 0.6;
  // Random-walk mobility: per-axis step standard deviation.
  double walk_sigma = 300.0;
};

class EventGenerator {
 public:
  EventGenerator(const GeneratorConfig& config, uint64_t seed)
      : config_(config), rng_(seed) {
    Prng layout(config_.layout_seed);
    for (int h = 0; h < config_.num_hotspots; ++h) {
      Hotspot spot;
      spot.x = config_.extent * (0.15 + 0.7 * layout.Uniform());
      spot.y = config_.extent * (0.15 + 0.7 * layout.Uniform());
      spot.weight = 0.5 + layout.Uniform();
      total_weight_ += spot.weight;
      hotspots_.push_back(spot);
    }
    live_.reserve(config_.users);
  }

  /// Replaces \p out with the next round's events.
  void NextRound(std::vector<Event>* out) {
    out->clear();
    if (round_ == 0) {
      for (uint32_t i = 0; i < config_.users; ++i) SpawnUser(out);
    } else {
      size_t quits = 0;
      for (size_t i = 0; i < live_.size();) {
        User& u = live_[i];
        if (rng_.Uniform() < config_.quit_probability) {
          out->push_back(Event{u.id, 0.0, 0.0, EventKind::kQuit});
          live_[i] = live_.back();
          live_.pop_back();
          ++quits;
          continue;
        }
        Step(u);
        out->push_back(Event{u.id, u.x, u.y, EventKind::kMove});
        ++i;
      }
      for (size_t i = 0; i < quits; ++i) SpawnUser(out);
    }
    ++round_;
  }

 private:
  struct Hotspot {
    double x = 0.0;
    double y = 0.0;
    double weight = 0.0;
  };
  struct User {
    uint64_t id = 0;
    double x = 0.0;
    double y = 0.0;
    double tx = 0.0;  ///< hotspot mobility: current target
    double ty = 0.0;
    bool dwelling = false;
  };

  double Clamp(double v) const { return std::clamp(v, 0.0, config_.extent); }

  void NearHotspot(double* x, double* y) {
    double pick = rng_.Uniform() * total_weight_;
    size_t h = 0;
    while (h + 1 < hotspots_.size() && pick >= hotspots_[h].weight) {
      pick -= hotspots_[h].weight;
      ++h;
    }
    *x = Clamp(hotspots_[h].x + config_.hotspot_sigma * rng_.Normal());
    *y = Clamp(hotspots_[h].y + config_.hotspot_sigma * rng_.Normal());
  }

  void SpawnUser(std::vector<Event>* out) {
    User u;
    u.id = next_id_++;
    if (config_.mobility == Mobility::kHotspot) {
      NearHotspot(&u.x, &u.y);
      NearHotspot(&u.tx, &u.ty);
    } else {
      u.x = config_.extent * rng_.Uniform();
      u.y = config_.extent * rng_.Uniform();
    }
    out->push_back(Event{u.id, u.x, u.y, EventKind::kEnter});
    live_.push_back(u);
  }

  void Step(User& u) {
    if (config_.mobility == Mobility::kRandomWalk) {
      u.x = Clamp(u.x + config_.walk_sigma * rng_.Normal());
      u.y = Clamp(u.y + config_.walk_sigma * rng_.Normal());
      return;
    }
    if (u.dwelling) {
      if (rng_.Uniform() < config_.dwell_probability) return;
      u.dwelling = false;
      NearHotspot(&u.tx, &u.ty);
    }
    const double dx = u.tx - u.x;
    const double dy = u.ty - u.y;
    const double dist = std::sqrt(dx * dx + dy * dy);
    const double step =
        config_.min_step + (config_.max_step - config_.min_step) * rng_.Uniform();
    if (dist <= step) {
      u.x = u.tx;
      u.y = u.ty;
      u.dwelling = true;
      return;
    }
    const double noise = config_.route_noise * rng_.Normal();
    u.x = Clamp(u.x + (dx * step - dy * noise) / dist);
    u.y = Clamp(u.y + (dy * step + dx * noise) / dist);
  }

  GeneratorConfig config_;
  Prng rng_;
  std::vector<Hotspot> hotspots_;
  double total_weight_ = 0.0;
  std::vector<User> live_;
  uint64_t next_id_ = 0;
  int64_t round_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
