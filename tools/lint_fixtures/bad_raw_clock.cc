// Lint fixture: direct clock reads. Must trigger raw-clock — src/ code
// reads time through common/clock.h (Clock / Stopwatch /
// SteadyDeadlineAfter); only the clock wrapper and the tracer may call
// std::chrono::steady_clock::now(), clock_gettime() or gettimeofday()
// themselves.
#include <sys/time.h>
#include <time.h>

#include <chrono>

namespace fixture {

inline long long NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline long long ThreadCpuMicros() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1000000 + ts.tv_nsec / 1000;
}

inline long long WallMicros() {
  timeval tv{};
  ::gettimeofday(&tv, nullptr);
  return tv.tv_sec * 1000000 + tv.tv_usec;
}

}  // namespace fixture
