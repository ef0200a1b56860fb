#ifndef PERFBENCH_BENCH_TRANSPORT_H_
#define PERFBENCH_BENCH_TRANSPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tc/cloud/txn.h"
#include "tc/net/transport.h"

namespace perfbench {

/// net::CloudTransport decorator that measures the rpc boundary from the
/// outside: it times every call by type and, while a trace is active,
/// opens an "rpc/<op>" span around it. The socket client carries that
/// span's context in the frame header and the server restores it, so the
/// provider-side cloud/* spans nest under this span and its self time is
/// the wire: socket, server reader and worker-pool queue.
///
/// One instance per cell; a cell's operations run on one thread at a
/// time, so the counters need no synchronization.
class TimedTransport final : public tc::net::CloudTransport {
 public:
  enum Op : size_t {
    kPutBatch,
    kGet,
    kSnapshot,
    kGetAtSnapshot,
    kCommit,
    kReport,
    kScrape,
    kOpCount,
  };
  struct OpStats {
    uint64_t calls = 0;
    uint64_t ns = 0;
  };

  explicit TimedTransport(tc::net::CloudTransport* inner) : inner_(inner) {}

  BatchPutOutcome PutBlobBatch(
      const std::vector<std::pair<std::string, tc::Bytes>>& items,
      const std::vector<std::string>& tokens) override;
  tc::Result<tc::Bytes> GetBlob(const std::string& id,
                                uint32_t* delay_us) override;
  tc::Result<tc::cloud::SnapshotDescriptor> GetSnapshot(
      uint32_t* delay_us) override;
  tc::Result<tc::cloud::SnapshotRead> GetAtSnapshot(
      const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
      uint32_t* delay_us) override;
  tc::cloud::TxnOutcome CommitTxn(const tc::cloud::TxnRequest& req) override;
  tc::obs::TelemetryHub::ReportOutcome ReportTelemetry(
      const tc::Bytes& frame, uint32_t* delay_us) override;
  tc::Result<std::string> ScrapeTelemetry(uint32_t* delay_us) override;
  std::string name() const override { return "timed-" + inner_->name(); }

  static const char* OpName(Op op);
  const std::array<OpStats, kOpCount>& stats() const { return stats_; }

  /// Provider version the last committed transaction assigned to its
  /// first write (0 before any commit). Lets the workload learn which
  /// version of a document its update became.
  uint64_t last_commit_first_version() const { return last_commit_version_; }

 private:
  tc::net::CloudTransport* inner_;
  std::array<OpStats, kOpCount> stats_{};
  uint64_t last_commit_version_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_TRANSPORT_H_
