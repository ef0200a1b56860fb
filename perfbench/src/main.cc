// Benchmark of real trusted cells over the wire.
//
//   perfbench --workload vault|sync|share --seed N --seconds S
//                    --trace 0|1
//
// Starts an RpcServer (admission on) in front of an honest
// CloudInfrastructure, provisions real TrustedCells whose resilient
// channels cross the socket, preloads them, and drives them in a closed
// loop from four load threads for S seconds. Set-up runs at least five
// times and for at least two seconds, and its median is reported. Every
// operation's result is checked.
//
// --trace 0 measures with tc::obs switched off and prints the end-to-end
// metrics. --trace 1 runs S/2 seconds untraced and then S/2 seconds traced,
// in windows: after each window the load threads pause, the trace ring is
// drained into a per-layer self-time fold and cleared, so no event is
// overwritten. It prints the per-layer metrics.
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics ({"name": {"value": v, "unit": u}}).

#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "tc/obs/exporter.h"
#include "tc/obs/metrics.h"
#include "tc/obs/trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up repeats until both hold, so that a quick set-up (about 70 ms on
/// share) is the median of enough runs to be steady.
constexpr size_t kMinSetups = 5;
constexpr double kMinSetupSeconds = 2.0;
/// Trace events a window may emit before the ring (4096) would wrap.
constexpr double kWindowEventBudget = 2048.0;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (every thread, user + system), seconds.
double ProcessCpuSeconds() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec / 1e6;
  };
  return sec(usage.ru_utime) + sec(usage.ru_stime);
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// ---------------------------------------------------------------------------
// Counters read from the public stats() of every layer, plus the obs
// registry entries the traced run needs.
// ---------------------------------------------------------------------------

struct Counters {
  uint64_t attempts = 0;  ///< ChannelStats.attempts.
  uint64_t retries = 0;
  uint64_t deferred = 0;  ///< pushes_deferred + txns_deferred.
  uint64_t gets = 0;      ///< LogStore index hits + log scans.
  uint64_t page_reads = 0;
  uint64_t programmed_bytes = 0;
  uint64_t user_appended = 0;
  uint64_t gc_runs = 0;
  uint64_t index_dropped = 0;
  std::array<TimedTransport::OpStats, TimedTransport::kOpCount> rpc_by_op{};
  uint64_t txn_commits = 0;
  uint64_t txn_aborts = 0;
  uint64_t admission_rejected = 0;
  uint64_t shed = 0;
  uint64_t blob_bytes = 0;
  uint64_t wire_bytes = 0;  ///< rpc.server.bytes_in + bytes_out.
  tc::obs::HistogramSnapshot seal, unseal, dispatch;

  Counters Minus(const Counters& b) const {
    Counters d = *this;
    d.attempts -= b.attempts;
    d.retries -= b.retries;
    d.deferred -= b.deferred;
    d.gets -= b.gets;
    d.page_reads -= b.page_reads;
    d.programmed_bytes -= b.programmed_bytes;
    d.user_appended -= b.user_appended;
    d.gc_runs -= b.gc_runs;
    for (size_t i = 0; i < rpc_by_op.size(); ++i) {
      d.rpc_by_op[i].calls -= b.rpc_by_op[i].calls;
      d.rpc_by_op[i].ns -= b.rpc_by_op[i].ns;
    }
    d.txn_commits -= b.txn_commits;
    d.txn_aborts -= b.txn_aborts;
    d.admission_rejected -= b.admission_rejected;
    d.shed -= b.shed;
    d.wire_bytes -= b.wire_bytes;
    d.seal = seal.Minus(b.seal);
    d.unseal = unseal.Minus(b.unseal);
    d.dispatch = dispatch.Minus(b.dispatch);
    return d;  // index_dropped and blob_bytes stay cumulative.
  }

  TimedTransport::OpStats rpc_total() const {
    TimedTransport::OpStats sum;
    for (const TimedTransport::OpStats& op : rpc_by_op) {
      sum.calls += op.calls;
      sum.ns += op.ns;
    }
    return sum;
  }
};

Counters Collect(Deployment& deployment) {
  Counters c;
  for (const auto& cell : deployment.cells()) {
    if (const tc::net::ResilientChannel* ch = cell->net_channel()) {
      c.attempts += ch->stats().attempts;
      c.retries += ch->stats().retries;
    }
    c.deferred += cell->stats().pushes_deferred + cell->stats().txns_deferred;
    const tc::storage::LogStoreStats& s = cell->store().stats();
    c.gets += s.index_hits + s.full_scans;
    c.user_appended += s.user_bytes_appended;
    c.gc_runs += s.gc_runs;
    c.index_dropped += s.index_insertions_dropped;
    const tc::storage::FlashDevice* flash = cell->store().device();
    const tc::storage::FlashStats fs = flash->stats();
    c.page_reads += fs.page_reads;
    c.programmed_bytes += fs.page_programs * flash->geometry().page_size;
  }
  for (const auto& t : deployment.transports()) {
    for (size_t i = 0; i < c.rpc_by_op.size(); ++i) {
      c.rpc_by_op[i].calls += t->stats()[i].calls;
      c.rpc_by_op[i].ns += t->stats()[i].ns;
    }
  }
  const tc::cloud::CloudStats cs = deployment.cloud().stats();
  c.txn_commits = cs.txn_commits;
  c.txn_aborts = cs.txn_aborts;
  c.blob_bytes = deployment.cloud().blob_store().total_bytes();
  const tc::rpc::RpcServer::Stats ss = deployment.server().stats();
  c.admission_rejected = ss.admission_rejected;
  c.shed = ss.shed_expired + ss.shed_codel;
  tc::obs::MetricRegistry& reg = tc::obs::MetricRegistry::Global();
  c.wire_bytes = reg.GetCounter("rpc.server.bytes_in").Value() +
                 reg.GetCounter("rpc.server.bytes_out").Value();
  c.seal = reg.GetHistogram("cell.seal_us").Snapshot();
  c.unseal = reg.GetHistogram("cell.unseal_us").Snapshot();
  c.dispatch = reg.GetHistogram("rpc.server.dispatch_us").Snapshot();
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Set-up and the two kinds of timed phase.
// ---------------------------------------------------------------------------

struct Setup {
  std::unique_ptr<Deployment> deployment;
  std::unique_ptr<Workload> workload;
};

tc::Status SetUp(const Args& args, Setup* out) {
  auto deployment = std::make_unique<Deployment>();
  auto workload = MakeWorkload(args.workload, args.seed);
  TC_RETURN_IF_ERROR(deployment->Start());
  TC_RETURN_IF_ERROR(workload->Provision(deployment.get()));
  std::vector<tc::Status> status(kLoadThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] { status[t] = workload->Preload(t); });
  }
  for (std::thread& th : threads) th.join();
  for (const tc::Status& st : status) TC_RETURN_IF_ERROR(st);
  out->deployment = std::move(deployment);
  out->workload = std::move(workload);
  return tc::Status::OK();
}

struct PhaseResult {
  Samples samples;
  double start_us = 0;
  double seconds = 0;  ///< Time the load threads were running.
  double cpu_seconds = 0;  ///< Process CPU time over the phase.
  // Traced phase only.
  SelfTimeFold fold;
  uint64_t dropped = 0;
  uint64_t events = 0;
  uint64_t trace_windows = 0;
};

/// Closed loop on every load thread until `seconds` have passed.
PhaseResult RunUntraced(Workload& workload, double seconds) {
  PhaseResult result;
  std::vector<Samples> per_thread(kLoadThreads);
  result.start_us = NowUs();
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      while (Clock::now() < deadline) workload.Step(t, &per_thread[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  result.seconds = SecondsSince(t0);
  result.cpu_seconds = ProcessCpuSeconds() - cpu0;
  for (Samples& s : per_thread) result.samples.Merge(std::move(s));
  return result;
}

/// Traced closed loop in windows. Every thread runs `window_steps` steps
/// and waits at a barrier; the barrier's completion drains the trace ring
/// into the fold, clears it, and sizes the next window so that it stays
/// well inside the ring. Drain time is excluded from `seconds`, and the
/// drain's CPU time from `cpu_seconds`.
PhaseResult RunTraced(Workload& workload, double seconds) {
  PhaseResult result;
  tc::obs::TraceRing& ring = tc::obs::TraceRing::Global();
  ring.Clear();
  std::vector<Samples> per_thread(kLoadThreads);
  uint64_t window_steps = 1;
  bool stop = false;
  double drain_seconds = 0;
  double drain_cpu_seconds = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  auto drain = [&]() noexcept {
    const Clock::time_point d0 = Clock::now();
    const double drain_cpu0 = ProcessCpuSeconds();
    const std::vector<tc::obs::TraceEvent> events = ring.Snapshot();
    result.dropped += ring.dropped();
    ring.Clear();
    result.fold.Add(
        FoldSelfTime(tc::obs::Exporter::AssembleSpanTrees(events)));
    result.events += events.size();
    ++result.trace_windows;
    const double per_step = std::max(
        1.0, static_cast<double>(events.size()) /
                 static_cast<double>(window_steps * kLoadThreads));
    window_steps = std::max<uint64_t>(
        1, static_cast<uint64_t>(kWindowEventBudget /
                                 (per_step * kLoadThreads)));
    drain_cpu_seconds += ProcessCpuSeconds() - drain_cpu0;
    drain_seconds += SecondsSince(d0);
    stop = SecondsSince(t0) - drain_seconds >= seconds;
  };
  std::barrier barrier(kLoadThreads, drain);
  std::vector<std::thread> threads;
  for (int t = 0; t < kLoadThreads; ++t) {
    threads.emplace_back([&, t] {
      for (;;) {
        for (uint64_t i = 0; i < window_steps; ++i) {
          workload.Step(t, &per_thread[t]);
        }
        barrier.arrive_and_wait();
        if (stop) break;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  result.seconds = SecondsSince(t0) - drain_seconds;
  result.cpu_seconds = ProcessCpuSeconds() - cpu0 - drain_cpu_seconds;
  for (Samples& s : per_thread) result.samples.Merge(std::move(s));
  return result;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc()) return "0";
  return std::string(buf, end);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The CPU features the crypto layer could dispatch on, from CPUID.
std::string CpuFlags() {
  std::string out;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  auto add = [&](bool has, const char* name) {
    if (has) out += (out.empty() ? "" : " ") + std::string(name);
  };
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    add(ecx & bit_AES, "aes");
    add(ecx & bit_PCLMUL, "pclmulqdq");
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    add(ebx & bit_AVX2, "avx2");
    add(ebx & bit_SHA, "sha_ni");
  }
#endif
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

/// Mean latency of `samples`, microseconds; 0 for none.
double MeanUs(const std::vector<TimedSample>& samples) {
  double sum = 0;
  for (const TimedSample& s : samples) sum += s.us;
  return Ratio(sum, static_cast<double>(samples.size()));
}

void PrintLatency(const char* label, const std::vector<TimedSample>& samples) {
  const std::vector<double> us = Latencies(samples);
  std::printf("  %-6s n=%-7zu p50 %9.1f p99 %9.1f mean %9.1f us%s\n", label,
              us.size(), Percentile(us, 0.50), Percentile(us, 0.99),
              MeanUs(samples),
              us.size() >= SamplesNeeded(0.99)
                  ? ""
                  : "  (fewer than 1000 samples: p99 has under ten samples "
                    "beyond it)");
}

/// Completions per whole second of a phase that began at `start_us`, so
/// a stall or a slow host period shows in the log.
void PrintRatePerSecond(const std::vector<TimedSample>& samples,
                        double start_us, double seconds) {
  std::vector<uint64_t> counts(
      std::max<size_t>(1, static_cast<size_t>(seconds)));
  for (const TimedSample& s : samples) {
    const double offset = (s.end_us - start_us) / 1e6;
    if (offset >= 0 && offset < static_cast<double>(counts.size())) {
      ++counts[static_cast<size_t>(offset)];
    }
  }
  std::printf("  ops by second:");
  for (uint64_t c : counts) {
    std::printf(" %llu", static_cast<unsigned long long>(c));
  }
  std::printf("\n");
}

void PrintCounts(const char* label, const Counters& d, double ops) {
  std::printf(
      "  counts (%s): storage.gets_per_op %.3f  storage.page_reads_per_get "
      "%.3f  storage.write_amp %.3f  storage.gc_runs %llu  "
      "storage.index_dropped %llu  net.attempts_per_op %.3f  net.retries "
      "%llu  net.deferred %llu  rpc.calls_per_op %.3f  "
      "rpc.admission_rejected %llu  rpc.shed %llu  cloud.txn_abort_ratio "
      "%.4f\n",
      label, Ratio(d.gets, ops), Ratio(d.page_reads, d.gets),
      Ratio(d.programmed_bytes, d.user_appended),
      static_cast<unsigned long long>(d.gc_runs),
      static_cast<unsigned long long>(d.index_dropped),
      Ratio(d.attempts, ops), static_cast<unsigned long long>(d.retries),
      static_cast<unsigned long long>(d.deferred),
      Ratio(d.rpc_total().calls, ops),
      static_cast<unsigned long long>(d.admission_rejected),
      static_cast<unsigned long long>(d.shed),
      Ratio(d.txn_aborts, d.txn_commits + d.txn_aborts));
  std::printf("  rpc calls by type (%s):", label);
  for (size_t i = 0; i < d.rpc_by_op.size(); ++i) {
    const TimedTransport::OpStats& op = d.rpc_by_op[i];
    if (op.calls == 0) continue;
    std::printf(" %s n=%llu %.1f us/call;",
                TimedTransport::OpName(static_cast<TimedTransport::Op>(i)),
                static_cast<unsigned long long>(op.calls),
                Ratio(static_cast<double>(op.ns) / 1000.0, op.calls));
  }
  std::printf("\n");
}

int Run(const Args& args) {
  tc::obs::SetEnabled(false);
  if (MakeWorkload(args.workload, args.seed) == nullptr) {
    std::fprintf(stderr,
                 "unknown workload '%s' (vault, sync, share)\n",
                 args.workload.c_str());
    return 2;
  }

  // Set-up, several times; the run uses the last one.
  Setup setup;
  std::vector<double> setup_times;
  double setup_total = 0;
  while (setup_times.size() < kMinSetups || setup_total < kMinSetupSeconds) {
    setup = Setup{};  // Tear the previous one down outside the clock.
    const Clock::time_point t0 = Clock::now();
    tc::Status st = SetUp(args, &setup);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_times.push_back(SecondsSince(t0));
    setup_total += setup_times.back();
  }
  const double setup_rss_mb = PeakRssMb();
  Deployment& deployment = *setup.deployment;
  Workload& workload = *setup.workload;

  std::printf("# perfbench workload=%s seed=%llu seconds=%s trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Number(args.seconds).c_str(), args.trace ? 1 : 0);
  std::printf(
      "# host nproc=%u cpu_flags=[%s] load_threads=%d server_workers=%zu "
      "connections=%zu\n",
      std::thread::hardware_concurrency(), CpuFlags().c_str(), kLoadThreads,
      kServerWorkers, kConnections);
  std::printf("# sizes %s\n", workload.Describe().c_str());
  std::printf("# setup_s runs:");
  for (double s : setup_times) std::printf(" %.4f", s);
  std::printf("\n");

  // Untraced phase: the whole run with --trace 0, the first half with 1.
  const double plain_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Counters c0 = Collect(deployment);
  PhaseResult plain = RunUntraced(workload, plain_seconds);
  const Counters c1 = Collect(deployment);
  const Counters plain_delta = c1.Minus(c0);
  const double plain_ops = static_cast<double>(plain.samples.op.size());

  PhaseResult traced;
  Counters traced_delta;
  if (args.trace) {
    tc::obs::SetEnabled(true);
    traced = RunTraced(workload, args.seconds / 2);
    tc::obs::SetEnabled(false);
    traced_delta = Collect(deployment).Minus(c1);
  }

  // End-state checks.
  std::vector<std::string> errors = plain.samples.errors;
  for (const std::string& e : traced.samples.errors) errors.push_back(e);
  uint64_t end_failures = workload.FinalCheck(&errors);
  for (const auto& cell : deployment.cells()) {
    const bool ok = cell->incidents().empty() &&
                    cell->outbox_pending() == 0 &&
                    cell->store().stats().index_insertions_dropped == 0;
    if (!ok) {
      ++end_failures;
      errors.push_back(cell->id() + ": " +
                       std::to_string(cell->incidents().size()) +
                       " incidents, " +
                       std::to_string(cell->outbox_pending()) +
                       " outbox records, " +
                       std::to_string(cell->store()
                                          .stats()
                                          .index_insertions_dropped) +
                       " index insertions dropped");
    }
  }
  const uint64_t attempted =
      plain.samples.attempted + traced.samples.attempted;
  const uint64_t failed =
      plain.samples.failed + traced.samples.failed + end_failures;
  for (size_t i = 0; i < errors.size() && i < 8; ++i) {
    std::printf("# FAILED %s\n", errors[i].c_str());
  }

  std::printf(
      "untraced phase: %.3f s, %llu ops, %.1f cpu us/op, failed_frac %.6f\n",
      plain.seconds, static_cast<unsigned long long>(plain_ops),
      Ratio(plain.cpu_seconds * 1e6, plain_ops),
      Ratio(static_cast<double>(failed), attempted));
  PrintLatency("op", plain.samples.op);
  PrintLatency("write", plain.samples.write);
  PrintLatency("read", plain.samples.read);
  PrintRatePerSecond(plain.samples.op, plain.start_us, plain.seconds);
  PrintCounts("untraced", plain_delta, plain_ops);

  const Counters end = Collect(deployment);
  const double user_bytes = static_cast<double>(workload.user_bytes());
  std::vector<Metric> metrics;
  if (!args.trace) {
    // Over every sample of the run, so an intermittent stall counts in
    // the rate and in the tail.
    const Samples& s = plain.samples;
    auto p50 = [](const std::vector<TimedSample>& samples) {
      return Percentile(Latencies(samples), 0.50);
    };
    auto p99 = [](const std::vector<TimedSample>& samples) {
      return Percentile(Latencies(samples), 0.99);
    };
    metrics = {
        {"setup_s", Percentile(setup_times, 0.5), "s"},
        {"ops_per_s", Ratio(plain_ops, plain.seconds), "1/s"},
        {"op_p50_us", p50(s.op), "us"},
        {"op_p99_us", p99(s.op), "us"},
        {"write_p50_us", p50(s.write), "us"},
        {"write_p99_us", p99(s.write), "us"},
        {"read_p50_us", p50(s.read), "us"},
        {"read_p99_us", p99(s.read), "us"},
        {"cpu_us_per_op", Ratio(plain.cpu_seconds * 1e6, plain_ops), "us"},
        {"bytes_per_user_byte",
         Ratio(static_cast<double>(end.blob_bytes + end.programmed_bytes),
               user_bytes),
         "B/B"},
        {"setup_peak_rss_mb", setup_rss_mb, "MiB"},
    };
  } else {
    const Counters& d = traced_delta;
    const double ops = static_cast<double>(traced.samples.op.size());
    const SelfTimeFold& f = traced.fold;
    auto self = [&](const std::string& component) {
      auto it = f.by_component.find(component);
      return it == f.by_component.end() ? 0.0 : static_cast<double>(it->second);
    };
    auto span_self = [&](const std::string& key) {
      auto it = f.by_span.find(key);
      return it == f.by_span.end() ? 0.0 : static_cast<double>(it->second);
    };
    const double tee_us = static_cast<double>(d.seal.sum + d.unseal.sum);
    const double cell_self = self("cell") - tee_us;
    double layer_total = 0;
    for (const char* layer : {"cell", "storage", "rpc", "cloud"}) {
      layer_total += self(layer);  // tee time sits inside cell spans.
    }
    const double op_time = MeanUs(traced.samples.op) * ops;
    const double rpc_us = static_cast<double>(d.rpc_total().ns) / 1000.0;
    const double rpc_calls = static_cast<double>(d.rpc_total().calls);

    std::printf(
        "traced phase: %.3f s, %llu ops, %.1f cpu us/op, %llu windows, "
        "%llu events, %llu dropped, %llu incomplete spans\n",
        traced.seconds, static_cast<unsigned long long>(ops),
        Ratio(traced.cpu_seconds * 1e6, ops),
        static_cast<unsigned long long>(traced.trace_windows),
        static_cast<unsigned long long>(traced.events),
        static_cast<unsigned long long>(traced.dropped),
        static_cast<unsigned long long>(f.incomplete));
    std::printf("  layer budget (self time per op, share of op latency %.1f "
                "us):\n",
                Ratio(op_time, ops));
    const std::vector<std::pair<std::string, double>> budget = {
        {"cell", cell_self},  {"tee", tee_us},
        {"storage", self("storage")}, {"rpc", self("rpc")},
        {"cloud", self("cloud")}};
    for (const auto& [layer, us] : budget) {
      std::printf("    %-8s %10.1f us  %5.1f%%\n", layer.c_str(),
                  Ratio(us, ops), 100 * Ratio(us, op_time));
    }
    for (const auto& [key, us] : f.by_span) {
      std::printf("    span %-34s n=%-8llu self %10.1f us/op\n", key.c_str(),
                  static_cast<unsigned long long>(f.count_by_span.at(key)),
                  Ratio(static_cast<double>(us), ops));
    }
    PrintCounts("traced", d, ops);

    metrics = {
        {"cell.self_us_per_op", Ratio(cell_self, ops), "us"},
        {"cell.self_frac", Ratio(cell_self, op_time), "ratio"},
        {"tee.seal_us_per_op", Ratio(static_cast<double>(d.seal.sum), ops),
         "us"},
        {"tee.unseal_us_per_op",
         Ratio(static_cast<double>(d.unseal.sum), ops), "us"},
        {"storage.gets_per_op", Ratio(d.gets, ops), "count"},
        {"storage.get_us_per_op", Ratio(span_self("storage/get"), ops), "us"},
        {"storage.page_reads_per_get", Ratio(d.page_reads, d.gets), "count"},
        {"storage.append_us_per_op", Ratio(span_self("storage/put"), ops),
         "us"},
        {"storage.write_amp", Ratio(d.programmed_bytes, d.user_appended),
         "B/B"},
        {"storage.gc_runs", static_cast<double>(d.gc_runs), "count"},
        {"storage.index_dropped", static_cast<double>(end.index_dropped),
         "count"},
        {"net.attempts_per_op", Ratio(d.attempts, ops), "count"},
        {"net.retries", static_cast<double>(d.retries), "count"},
        {"net.deferred", static_cast<double>(d.deferred), "count"},
        {"rpc.calls_per_op", Ratio(rpc_calls, ops), "count"},
        {"rpc.call_us_per_op", Ratio(rpc_us, ops), "us"},
        {"rpc.dispatch_us_per_call",
         Ratio(static_cast<double>(d.dispatch.sum), d.dispatch.count), "us"},
        {"rpc.wire_us_per_call",
         Ratio(rpc_us - static_cast<double>(d.dispatch.sum), rpc_calls),
         "us"},
        {"rpc.bytes_per_op", Ratio(d.wire_bytes, ops), "B"},
        {"rpc.admission_rejected", static_cast<double>(d.admission_rejected),
         "count"},
        {"rpc.shed", static_cast<double>(d.shed), "count"},
        {"cloud.us_per_op", Ratio(self("cloud"), ops), "us"},
        {"cloud.txn_abort_ratio",
         Ratio(d.txn_aborts, d.txn_commits + d.txn_aborts), "ratio"},
        {"cloud.bytes_held_per_user_byte",
         Ratio(static_cast<double>(end.blob_bytes), user_bytes), "B/B"},
        // CPU time per op: neither the threads' idle time at the window
        // barriers nor the lower concurrency while some of them wait
        // counts as tracing cost.
        {"trace.overhead_frac",
         1.0 - Ratio(Ratio(plain.cpu_seconds, plain_ops),
                     Ratio(traced.cpu_seconds, ops)),
         "ratio"},
        {"trace.dropped", static_cast<double>(traced.dropped), "count"},
        {"trace.attributed_frac", AttributedFrac(layer_total, op_time),
         "ratio"},
    };
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload vault|sync|share --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  return perfbench::Run(args);
}
