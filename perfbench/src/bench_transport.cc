#include "bench_transport.h"

#include <chrono>

#include "tc/obs/trace.h"

namespace perfbench {
namespace {

// Times one call and, inside an active trace, wraps it in an rpc span.
class CallScope {
 public:
  CallScope(TimedTransport::Op op, TimedTransport::OpStats* stats)
      : stats_(stats),
        span_(tc::obs::kChildOnly, "rpc", TimedTransport::OpName(op)),
        start_(std::chrono::steady_clock::now()) {}
  ~CallScope() {
    stats_->ns += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
    ++stats_->calls;
  }
  CallScope(const CallScope&) = delete;
  CallScope& operator=(const CallScope&) = delete;

 private:
  TimedTransport::OpStats* stats_;
  tc::obs::TraceSpan span_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

const char* TimedTransport::OpName(Op op) {
  switch (op) {
    case kPutBatch:
      return "put_batch";
    case kGet:
      return "get";
    case kSnapshot:
      return "snapshot";
    case kGetAtSnapshot:
      return "get_at_snapshot";
    case kCommit:
      return "commit";
    case kReport:
      return "report";
    case kScrape:
      return "scrape";
    case kOpCount:
      break;
  }
  return "?";
}

TimedTransport::BatchPutOutcome TimedTransport::PutBlobBatch(
    const std::vector<std::pair<std::string, tc::Bytes>>& items,
    const std::vector<std::string>& tokens) {
  CallScope scope(kPutBatch, &stats_[kPutBatch]);
  return inner_->PutBlobBatch(items, tokens);
}

tc::Result<tc::Bytes> TimedTransport::GetBlob(const std::string& id,
                                              uint32_t* delay_us) {
  CallScope scope(kGet, &stats_[kGet]);
  return inner_->GetBlob(id, delay_us);
}

tc::Result<tc::cloud::SnapshotDescriptor> TimedTransport::GetSnapshot(
    uint32_t* delay_us) {
  CallScope scope(kSnapshot, &stats_[kSnapshot]);
  return inner_->GetSnapshot(delay_us);
}

tc::Result<tc::cloud::SnapshotRead> TimedTransport::GetAtSnapshot(
    const std::string& id, const tc::cloud::SnapshotDescriptor& snap,
    uint32_t* delay_us) {
  CallScope scope(kGetAtSnapshot, &stats_[kGetAtSnapshot]);
  return inner_->GetAtSnapshot(id, snap, delay_us);
}

tc::cloud::TxnOutcome TimedTransport::CommitTxn(
    const tc::cloud::TxnRequest& req) {
  tc::cloud::TxnOutcome outcome;
  {
    CallScope scope(kCommit, &stats_[kCommit]);
    outcome = inner_->CommitTxn(req);
  }
  if (outcome.committed && !outcome.versions.empty()) {
    last_commit_version_ = outcome.versions.front();
  }
  return outcome;
}

tc::obs::TelemetryHub::ReportOutcome TimedTransport::ReportTelemetry(
    const tc::Bytes& frame, uint32_t* delay_us) {
  CallScope scope(kReport, &stats_[kReport]);
  return inner_->ReportTelemetry(frame, delay_us);
}

tc::Result<std::string> TimedTransport::ScrapeTelemetry(uint32_t* delay_us) {
  CallScope scope(kScrape, &stats_[kScrape]);
  return inner_->ScrapeTelemetry(delay_us);
}

}  // namespace perfbench
