#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace aero {

/// The project's single raw monotonic-clock read. Everything outside the
/// observability layer times through Timer or this helper (the aerolint
/// no-raw-clock rule enforces it), so clock usage stays auditable and
/// swappable in one place.
inline std::chrono::steady_clock::time_point mono_now() {
  return std::chrono::steady_clock::now();
}

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Elapsed seconds since construction / last reset.
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Named phase timings accumulated through a pipeline run.
class PhaseTimings {
 public:
  void record(std::string name, double seconds) {
    entries_.emplace_back(std::move(name), seconds);
  }
  const std::vector<std::pair<std::string, double>>& entries() const {
    return entries_;
  }
  double total() const {
    double t = 0.0;
    for (const auto& [_, s] : entries_) t += s;
    return t;
  }
  /// Summed seconds of every entry named `name` (0 when none is).
  double seconds(const std::string& name) const {
    double t = 0.0;
    for (const auto& [n, s] : entries_) {
      if (n == name) t += s;
    }
    return t;
  }

 private:
  std::vector<std::pair<std::string, double>> entries_;
};

}  // namespace aero
