// Measurement arithmetic shared by the benchmark driver and its
// self-tests: a monotonic clock, exact nearest-rank quantiles over the
// benchmark's own samples, open-loop schedule lateness, a match-set
// digest, and the resident-set probe behind rss_growth_mb.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "cep/match.h"

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch, shared by all threads).
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile: the smallest sample with at least q·n samples
/// at or below it, i.e. sorted[ceil(q·n) - 1] (q = 0 gives the minimum).
/// Exact on the samples, no interpolation and no buckets. 0 when empty.
inline double NearestRank(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Median as the mean of the two middle samples (even counts), which is
/// what run-level summaries report.
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Due time of the i-th event of an open-loop schedule that starts at
/// `start` and issues `rate` events per second.
inline double DueTime(double start, double rate, size_t i) {
  return start + static_cast<double>(i) / rate;
}

/// How late an event was issued against its due time (never negative:
/// an early issue waits for its slot, so it is on time).
inline double Lateness(double issued, double due) {
  return issued > due ? issued - due : 0.0;
}

/// FNV-1a over every match's id sequence in set order (MatchSet is
/// ordered), with a separator per match: equal digests mean equal sets.
inline uint64_t Digest(const dlacep::MatchSet& matches,
                       uint64_t h = 1469598103934665603ULL) {
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const dlacep::Match& match : matches) {
    for (const dlacep::EventId id : match.ids) mix(id);
    mix(~0ULL);
  }
  return h;
}

/// Peak-resident-set probe around one timed call. Begin() hands freed
/// heap back to the kernel and resets the kernel's high-water mark
/// (VmHWM) to the current resident set; End() returns how far the peak
/// rose above the resident set Begin() saw, in MB.
class RssProbe {
 public:
  /// False when the kernel refuses the VmHWM reset; the probe is then
  /// unusable and the caller must fail instead of reporting a number.
  bool Begin() {
    malloc_trim(0);
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) return false;
    const bool ok = std::fputs("5", f) >= 0;
    if (std::fclose(f) != 0 || !ok) return false;
    base_kb_ = ReadStatusKb("VmRSS:");
    return base_kb_ > 0;
  }

  double EndMb() const {
    const long peak_kb = ReadStatusKb("VmHWM:");
    return static_cast<double>(std::max(0L, peak_kb - base_kb_)) / 1024.0;
  }

 private:
  static long ReadStatusKb(const char* key) {
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f == nullptr) return 0;
    char line[256];
    long value = 0;
    const size_t len = std::strlen(key);
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      if (std::strncmp(line, key, len) == 0) {
        value = std::strtol(line + len, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
    return value;
  }

  long base_kb_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
