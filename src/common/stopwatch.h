// Monotonic wall-clock stopwatch: times the pipeline phases the telemetry
// histograms record (Table V's four components among them) and the
// efficiency experiments (Figures 6-7).

#ifndef RETRASYN_COMMON_STOPWATCH_H_
#define RETRASYN_COMMON_STOPWATCH_H_

#include <chrono>

namespace retrasyn {

class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Reset() { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_STOPWATCH_H_
