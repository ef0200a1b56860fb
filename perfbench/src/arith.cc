#include "arith.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<double> Latencies(const std::vector<TimedSample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const TimedSample& s : samples) out.push_back(s.us);
  return out;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  // ceil(p * n) with a tolerance, so p = 0.99 over 1000 samples is rank
  // 990 and not 991 through floating-point noise.
  size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesNeeded(double p, size_t beyond) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(beyond) / (1.0 - p) - 1e-9));
}

void SelfTimeFold::Add(const SelfTimeFold& other) {
  for (const auto& [k, v] : other.by_component) by_component[k] += v;
  for (const auto& [k, v] : other.by_span) by_span[k] += v;
  for (const auto& [k, v] : other.count_by_span) count_by_span[k] += v;
  incomplete += other.incomplete;
}

SelfTimeFold FoldSelfTime(const std::vector<tc::obs::SpanTree>& trees) {
  SelfTimeFold fold;
  for (const tc::obs::SpanTree& tree : trees) {
    // Direct children of every span, as [start, end) intervals.
    std::map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>> children;
    for (const auto& [id, span] : tree.spans) {
      if (!span.complete || span.parent_id == 0) continue;
      children[span.parent_id].emplace_back(span.start_us, span.end_us);
    }
    for (const auto& [id, span] : tree.spans) {
      if (!span.complete) {
        ++fold.incomplete;
        continue;
      }
      uint64_t covered = 0;
      auto it = children.find(id);
      if (it != children.end()) {
        std::vector<std::pair<uint64_t, uint64_t>>& kids = it->second;
        std::sort(kids.begin(), kids.end());
        uint64_t cursor = span.start_us;  // Covered up to here.
        for (auto [lo, hi] : kids) {
          lo = std::max(lo, cursor);
          hi = std::min(hi, span.end_us);
          if (hi > lo) {
            covered += hi - lo;
            cursor = hi;
          }
        }
      }
      const uint64_t duration = span.end_us - span.start_us;
      const uint64_t self = duration > covered ? duration - covered : 0;
      const std::string key = span.component + "/" + span.name;
      fold.by_component[span.component] += self;
      fold.by_span[key] += self;
      ++fold.count_by_span[key];
    }
  }
  return fold;
}

double AttributedFrac(double layer_self_total, double op_latency_total) {
  if (op_latency_total <= 0.0) return 0.0;
  return layer_self_total / op_latency_total;
}

namespace {

// log1p(x) / x, stable near 0.
double Helper1(double x) {
  if (std::fabs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x));
}

// expm1(x) / x, stable near 0.
double Helper2(double x) {
  if (std::fabs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x));
}

}  // namespace

ZipfSampler::ZipfSampler(double exponent) : exponent_(exponent) {
  h_integral_x1_ = HIntegral(1.5) - 1.0;
  s_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
}

double ZipfSampler::H(double x) const {
  return std::exp(-exponent_ * std::log(x));
}

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper2((1.0 - exponent_) * log_x) * log_x;
}

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - exponent_);
  if (t < -1.0) t = -1.0;
  return std::exp(Helper1(t) * x);
}

}  // namespace perfbench
