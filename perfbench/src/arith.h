#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

// The benchmark's own arithmetic, kept free of any workload so the tests in
// perfbench/tests can pin it: percentiles from raw samples, the rule for how
// many samples a tail percentile needs, the per-layer self-time fold over
// assembled span trees, and the attribution ratio that checks the fold.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tc/obs/exporter.h"

namespace perfbench {

/// Steady-clock microseconds: the time base of TimedSample.
double NowUs();

/// One operation's latency and the time it completed, in microseconds.
struct TimedSample {
  double end_us = 0;
  double us = 0;
};

/// The latencies of `samples`, in their order.
std::vector<double> Latencies(const std::vector<TimedSample>& samples);

/// Nearest-rank percentile of raw samples: the value at rank ceil(p * n)
/// of the sorted samples (p in (0, 1]). Returns 0 for no samples.
double Percentile(std::vector<double> samples, double p);

/// Samples needed so that at least `beyond` of them lie strictly above the
/// p-quantile rank: n * (1 - p) >= beyond. 1000 for p99 with beyond = 10.
size_t SamplesNeeded(double p, size_t beyond = 10);

/// Exclusive ("self") time of spans, summed per component and per
/// component/name, in microseconds.
struct SelfTimeFold {
  std::map<std::string, uint64_t> by_component;
  std::map<std::string, uint64_t> by_span;  ///< Key "component/name".
  std::map<std::string, uint64_t> count_by_span;
  uint64_t incomplete = 0;  ///< Spans whose kEnd was not in the snapshot.

  void Add(const SelfTimeFold& other);
};

/// Folds self time over span trees. A span's self time is its duration
/// minus the part of its interval covered by the union of its direct
/// children, each clipped to the parent. Children may overlap each other
/// and may have run on another thread (a server worker under a client
/// call); either way the covered time is counted once. Incomplete spans
/// are skipped and counted.
SelfTimeFold FoldSelfTime(const std::vector<tc::obs::SpanTree>& trees);

/// Share of the measured operation time that the folded layers explain:
/// sum of layer self times / sum of operation latencies (both in the same
/// unit, over the same operations). 0 when no operation time was measured.
double AttributedFrac(double layer_self_total, double op_latency_total);

/// Zipf(s) over ranks 1..n by rejection-inversion (Hörmann & Derflinger),
/// O(1) per draw for any n, so the population may grow between draws.
class ZipfSampler {
 public:
  explicit ZipfSampler(double exponent);
  /// Draws a rank in [1, n] given a uniform u in [0, 1) source `next`.
  template <typename Uniform>
  uint64_t Sample(uint64_t n, Uniform&& next) const {
    const double h_n = HIntegral(static_cast<double>(n) + 0.5);
    for (;;) {
      const double u = h_n + next() * (h_integral_x1_ - h_n);
      const double x = HIntegralInverse(u);
      double k = static_cast<double>(static_cast<int64_t>(x + 0.5));
      if (k < 1) k = 1;
      if (k > static_cast<double>(n)) k = static_cast<double>(n);
      if (k - x <= s_ || u >= HIntegral(k + 0.5) - H(k)) {
        return static_cast<uint64_t>(k);
      }
    }
  }

 private:
  double H(double x) const;
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;

  double exponent_;
  double h_integral_x1_;
  double s_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
