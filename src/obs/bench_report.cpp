#include "obs/bench_report.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace aero::obs {

long peak_rss_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;  // macOS reports bytes
#else
  return usage.ru_maxrss;  // Linux reports kB
#endif
#else
  return 0;
#endif
}

}  // namespace aero::obs
