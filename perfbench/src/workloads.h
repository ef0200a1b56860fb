#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arith.h"
#include "bench_transport.h"
#include "tc/cell/cell.h"
#include "tc/cell/directory.h"
#include "tc/cloud/infrastructure.h"
#include "tc/common/clock.h"
#include "tc/common/status.h"
#include "tc/rpc/server.h"
#include "tc/rpc/socket_transport.h"

namespace perfbench {

/// Fixed shape of every workload: four load threads drive the cells (each
/// cell from exactly one thread), the server runs four workers, and all
/// cells share one socket transport of four pooled connections.
inline constexpr int kLoadThreads = 4;
inline constexpr size_t kServerWorkers = 4;
inline constexpr size_t kConnections = 4;

/// Raw latency samples and outcome counts of one thread.
struct Samples {
  std::vector<TimedSample> op;     ///< One per workload operation.
  std::vector<TimedSample> write;  ///< Store / atomic update / share call.
  std::vector<TimedSample> read;   ///< Fetch / sync pull / inbox + read.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< First few failure descriptions.

  void Fail(const std::string& what);
  void Merge(Samples&& other);
};

/// One provider plus every cell of one set-up: an RpcServer with admission
/// control in front of an honest CloudInfrastructure (no fault injector,
/// no simulated latency), and real TrustedCells with resilient sync whose
/// channels cross the socket through a TimedTransport each.
class Deployment {
 public:
  Deployment();
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  tc::Status Start();
  /// Creates and registers a cell. Not thread-safe (the directory is not):
  /// call before any load thread starts.
  tc::Result<tc::cell::TrustedCell*> AddCell(const std::string& cell_id,
                                             const std::string& owner,
                                             tc::tee::DeviceClass device_class);

  tc::cloud::CloudInfrastructure& cloud() { return *cloud_; }
  tc::rpc::RpcServer& server() { return *server_; }
  const std::vector<std::unique_ptr<tc::cell::TrustedCell>>& cells() const {
    return cells_;
  }
  const std::vector<std::unique_ptr<TimedTransport>>& transports() const {
    return transports_;
  }

 private:
  // Declared in construction order; destroyed in reverse, so cells go
  // before the transports they use and the server outlives its clients.
  tc::SimulatedClock clock_;
  std::unique_ptr<tc::cloud::CloudInfrastructure> cloud_;
  std::unique_ptr<tc::rpc::RpcServer> server_;
  std::unique_ptr<tc::rpc::SocketTransport> socket_;
  tc::cell::CellDirectory directory_;
  std::vector<std::unique_ptr<TimedTransport>> transports_;
  std::vector<std::unique_ptr<tc::cell::TrustedCell>> cells_;
};

/// A workload: its cells, its preload, one closed-loop step, and the
/// checks that its results were right.
class Workload {
 public:
  virtual ~Workload() = default;

  /// One line of sizes for the result record.
  virtual std::string Describe() const = 0;
  /// Creates every cell; runs before any load thread.
  virtual tc::Status Provision(Deployment* deployment) = 0;
  /// Preloads the cells of load thread `thread`, on that thread.
  virtual tc::Status Preload(int thread) = 0;
  /// Runs one step on the next unit of load thread `thread`, timing each
  /// cell call and checking its result. A step is one workload operation
  /// (two in `sync`: the update and the pull).
  virtual void Step(int thread, Samples* samples) = 0;
  /// Checks the end state once the threads have stopped; returns the
  /// number of failed checks and describes the first few.
  virtual uint64_t FinalCheck(std::vector<std::string>* errors) = 0;
  /// User payload bytes written so far, preload included.
  virtual uint64_t user_bytes() const = 0;
};

/// "vault", "sync" or "share"; nullptr for any other name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
