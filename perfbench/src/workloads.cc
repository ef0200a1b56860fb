#include "workloads.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <utility>

#include "arith.h"
#include "tc/common/rng.h"
#include "tc/policy/ucon.h"

namespace perfbench {

using tc::Bytes;
using tc::Status;
using tc::cell::TrustedCell;

namespace {

constexpr size_t kMaxErrors = 8;

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer.
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Key of one generated input, unique per (seed, a, b, c).
uint64_t InputKey(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  return Mix(seed ^ Mix(a ^ Mix(b ^ Mix(c))));
}

/// Deterministic document content of `size` bytes for `key`; regenerated
/// on demand by the checks instead of being kept in memory.
Bytes Content(uint64_t key, size_t size) {
  Bytes out(size);
  uint64_t state = key;
  for (size_t i = 0; i < size; i += 8) {
    state += 0x9e3779b97f4a7c15ull;
    const uint64_t word = Mix(state);
    std::memcpy(out.data() + i, &word, std::min<size_t>(8, size - i));
  }
  return out;
}

/// Pushes and transactions the cell queued to its outbox instead of the
/// wire; a step that raises it failed.
uint64_t Deferred(const TrustedCell& cell) {
  return cell.stats().pushes_deferred + cell.stats().txns_deferred;
}

// ---------------------------------------------------------------------------
// vault: one phone per owner; 25% stores of new 4 KiB docs, 75% fetches of
// a Zipf(0.99)-drawn doc of the cell's space (rank 1 = oldest doc).
// ---------------------------------------------------------------------------

class VaultWorkload final : public Workload {
 public:
  static constexpr int kCells = 8;
  static constexpr int kPreloadDocs = 256;
  static constexpr size_t kDocBytes = 4096;
  static constexpr double kStoreShare = 0.25;

  explicit VaultWorkload(uint64_t seed) : seed_(seed), zipf_(0.99) {}

  std::string Describe() const override {
    return "8 phone cells x 256 preloaded 4096 B docs; 25% store of a new "
           "4096 B doc, 75% fetch Zipf(0.99) over the cell's docs";
  }

  Status Provision(Deployment* deployment) override {
    for (int i = 0; i < kCells; ++i) {
      Unit& unit = units_[i];
      unit.index = i;
      unit.owner = "vault-u" + std::to_string(i);
      TC_ASSIGN_OR_RETURN(
          unit.cell,
          deployment->AddCell("vault-c" + std::to_string(i), unit.owner,
                              tc::tee::DeviceClass::kSmartPhone));
      unit.rng = std::make_unique<tc::Rng>(InputKey(seed_, 1, i, 0));
      unit.policy = tc::cell::MakeOwnerPolicy(unit.owner);
    }
    return Status::OK();
  }

  // Thread t drives cells t and t + 4.
  Status Preload(int thread) override {
    for (int i = thread; i < kCells; i += kLoadThreads) {
      for (int d = 0; d < kPreloadDocs; ++d) {
        Samples ignored;
        TC_RETURN_IF_ERROR(Store(units_[i], &ignored));
      }
    }
    return Status::OK();
  }

  void Step(int thread, Samples* samples) override {
    Unit& unit =
        units_[thread + kLoadThreads * static_cast<int>(next_[thread]++ % 2)];
    ++samples->attempted;
    if (unit.rng->NextDouble() < kStoreShare) {
      Status st = Store(unit, samples);
      if (!st.ok()) samples->Fail("store: " + st.ToString());
      return;
    }
    const uint64_t rank = zipf_.Sample(unit.docs.size(),
                                       [&] { return unit.rng->NextDouble(); });
    const size_t index = rank - 1;
    const uint64_t deferred = Deferred(*unit.cell);
    const double t0 = NowUs();
    auto got = unit.cell->FetchDocument(unit.docs[index]);
    const double t1 = NowUs();
    samples->op.push_back({t1, t1 - t0});
    samples->read.push_back({t1, t1 - t0});
    if (!got.ok()) {
      samples->Fail("fetch: " + got.status().ToString());
    } else if (*got != Content(DocKey(unit, index), kDocBytes)) {
      samples->Fail("fetch of " + unit.docs[index] + " returned wrong bytes");
    } else if (Deferred(*unit.cell) != deferred) {
      samples->Fail("fetch deferred to the outbox");
    }
  }

  uint64_t FinalCheck(std::vector<std::string>* errors) override {
    uint64_t failed = 0;
    for (Unit& unit : units_) {
      for (const std::string& doc : unit.docs) {
        auto meta = unit.cell->GetDocumentMeta(doc);
        if (!meta.ok() || meta->version != 1 || meta->size != kDocBytes) {
          if (++failed <= kMaxErrors) {
            errors->push_back("vault doc " + doc + " lost its version 1");
          }
        }
      }
    }
    return failed;
  }

  uint64_t user_bytes() const override {
    uint64_t docs = 0;
    for (const Unit& unit : units_) docs += unit.docs.size();
    return docs * kDocBytes;
  }

 private:
  struct Unit {
    int index = 0;
    std::string owner;
    TrustedCell* cell = nullptr;
    std::unique_ptr<tc::Rng> rng;
    tc::policy::Policy policy;
    std::vector<std::string> docs;  ///< Doc ids in store order.
  };

  uint64_t DocKey(const Unit& unit, size_t index) const {
    return InputKey(seed_, 1, unit.index, index + 1);
  }

  Status Store(Unit& unit, Samples* samples) {
    const size_t index = unit.docs.size();
    const Bytes content = Content(DocKey(unit, index), kDocBytes);
    // Every title and keyword term stays in at most a few hundred docs: a
    // term's postings are one LogStore record, and a record must fit one
    // 2 KiB phone flash page (about 2000 postings).
    const std::string title = "d" + std::to_string(index);
    const std::string keywords = "tag" + std::to_string(index % 64);
    const uint64_t deferred = Deferred(*unit.cell);
    const double t0 = NowUs();
    auto id = unit.cell->StoreDocument(title, keywords, content, unit.policy);
    const double t1 = NowUs();
    samples->op.push_back({t1, t1 - t0});
    samples->write.push_back({t1, t1 - t0});
    TC_RETURN_IF_ERROR(id.status());
    if (Deferred(*unit.cell) != deferred) {
      return Status::Unavailable("store deferred to the outbox");
    }
    unit.docs.push_back(*id);
    return Status::OK();
  }

  uint64_t seed_;
  ZipfSampler zipf_;
  Unit units_[kCells];
  size_t next_[kLoadThreads] = {};
};

// ---------------------------------------------------------------------------
// sync: per owner a phone and a gateway on different load threads sharing
// one 32-doc space; each step is an atomic update of a uniform doc, then a
// sync pull on the same cell. Every update commits the owner's manifest, so
// the siblings race on it. Each sibling updates only its own half of the
// docs: when both update one doc, a sibling whose view of it is stale
// labels its update with a version number the other sibling has already
// passed, and that sibling then reports the provider's latest payload as a
// rollback.
// ---------------------------------------------------------------------------

class SyncWorkload final : public Workload {
 public:
  static constexpr int kOwners = 4;
  static constexpr int kDocs = 32;
  static constexpr size_t kDocBytes = 1024;

  explicit SyncWorkload(uint64_t seed) : seed_(seed) {}

  std::string Describe() const override {
    return "4 owners x (phone + gateway) sharing 32 docs of 1024 B; "
           "step = UpdateDocumentAtomic of a uniform doc of the sibling's "
           "half, then SyncPull";
  }

  Status Provision(Deployment* deployment) override {
    cloud_ = &deployment->cloud();
    for (int o = 0; o < kOwners; ++o) {
      Owner& owner = owners_[o];
      owner.index = o;
      owner.name = "sync-u" + std::to_string(o);
      owner.latest.resize(kDocs);
      for (int side = 0; side < 2; ++side) {
        Unit& unit = owner.siblings[side];
        unit.owner = &owner;
        unit.side = side;
        unit.rng = std::make_unique<tc::Rng>(InputKey(seed_, 2, o, side));
        TC_ASSIGN_OR_RETURN(
            unit.cell,
            deployment->AddCell(
                owner.name + (side == 0 ? "-phone" : "-gateway"), owner.name,
                side == 0 ? tc::tee::DeviceClass::kSmartPhone
                          : tc::tee::DeviceClass::kHomeGateway));
        unit.transport = deployment->transports().back().get();
      }
    }
    return Status::OK();
  }

  // Thread t preloads owner t: the phone stores the docs and publishes its
  // manifest, the gateway pulls it.
  Status Preload(int thread) override {
    Owner& owner = owners_[thread];
    TrustedCell* phone = owner.siblings[0].cell;
    const tc::policy::Policy policy = tc::cell::MakeOwnerPolicy(owner.name);
    for (int d = 0; d < kDocs; ++d) {
      const uint64_t key = InputKey(seed_, 2, owner.index, DocRev(d, 0, 0));
      TC_ASSIGN_OR_RETURN(
          std::string id,
          phone->StoreDocument("doc " + std::to_string(d), "sync",
                               Content(key, kDocBytes), policy));
      owner.docs.push_back(id);
      owner.latest[d] = {1, key};
      bytes_[thread] += kDocBytes;
    }
    TC_RETURN_IF_ERROR(phone->SyncPush());
    return owner.siblings[1].cell->SyncPull();
  }

  // Thread t drives the phone of owner t and the gateway of owner t - 1.
  void Step(int thread, Samples* samples) override {
    Unit& unit = (next_[thread]++ % 2 == 0)
                     ? owners_[thread].siblings[0]
                     : owners_[(thread + kOwners - 1) % kOwners].siblings[1];
    Owner& owner = *unit.owner;
    TrustedCell& cell = *unit.cell;
    const int d = unit.side * (kDocs / 2) +
                  static_cast<int>(unit.rng->NextBelow(kDocs / 2));
    const uint64_t key =
        InputKey(seed_, 2, owner.index, DocRev(d, unit.side + 1, ++unit.seq));
    const Bytes content = Content(key, kDocBytes);

    samples->attempted += 2;
    uint64_t deferred = Deferred(cell);
    double t0 = NowUs();
    Status st = cell.UpdateDocumentAtomic(owner.docs[d], content);
    double t1 = NowUs();
    samples->op.push_back({t1, t1 - t0});
    samples->write.push_back({t1, t1 - t0});
    bytes_[thread] += kDocBytes;
    if (!st.ok()) {
      samples->Fail("update: " + st.ToString());
    } else if (Deferred(cell) != deferred) {
      samples->Fail("update deferred to the outbox");
    } else {
      const uint64_t version = unit.transport->last_commit_first_version();
      std::lock_guard<std::mutex> lock(owner.mu);
      if (version > owner.latest[d].version) owner.latest[d] = {version, key};
    }

    deferred = Deferred(cell);
    t0 = NowUs();
    st = cell.SyncPull();
    t1 = NowUs();
    samples->op.push_back({t1, t1 - t0});
    samples->read.push_back({t1, t1 - t0});
    if (!st.ok()) {
      samples->Fail("pull: " + st.ToString());
    } else if (Deferred(cell) != deferred) {
      samples->Fail("pull deferred to the outbox");
    }
  }

  // Both siblings must end holding the provider's latest version of every
  // doc. A commit publishes the committer's own view of the manifest, so
  // the siblings first run one anti-entropy round (pull, push, pull).
  uint64_t FinalCheck(std::vector<std::string>* errors) override {
    uint64_t failed = 0;
    auto fail = [&](const std::string& what) {
      if (++failed <= kMaxErrors) errors->push_back(what);
    };
    for (Owner& owner : owners_) {
      TrustedCell* a = owner.siblings[0].cell;
      TrustedCell* b = owner.siblings[1].cell;
      for (Status st : {a->SyncPull(), b->SyncPull(), a->SyncPush(),
                        b->SyncPull(), b->SyncPush(), a->SyncPull()}) {
        if (!st.ok()) fail(owner.name + " final sync: " + st.ToString());
      }
      for (int d = 0; d < kDocs; ++d) {
        const Latest& want = owner.latest[d];
        auto meta = a->GetDocumentMeta(owner.docs[d]);
        if (!meta.ok()) {
          fail(owner.name + " doc " + owner.docs[d] + " missing");
          continue;
        }
        auto held = cloud_->LatestBlobVersion(meta->blob_id);
        if (!held.ok() || *held != want.version) {
          fail(owner.name + " doc " + owner.docs[d] +
               ": provider version differs from the last committed update");
        }
        const Bytes expected = Content(want.key, kDocBytes);
        for (TrustedCell* cell : {a, b}) {
          auto got = cell->FetchDocument(owner.docs[d]);
          if (!got.ok()) {
            fail(cell->id() + " doc " + owner.docs[d] + ": " +
                 got.status().ToString());
          } else if (*got != expected) {
            fail(cell->id() + " doc " + owner.docs[d] +
                 " is not the latest committed content");
          }
        }
      }
    }
    return failed;
  }

  uint64_t user_bytes() const override {
    uint64_t sum = 0;
    for (uint64_t b : bytes_) sum += b;
    return sum;
  }

 private:
  struct Latest {
    uint64_t version = 0;  ///< Provider version of the doc blob.
    uint64_t key = 0;      ///< Content key of that version.
  };
  struct Owner;
  struct Unit {
    Owner* owner = nullptr;
    int side = 0;  ///< 0 = phone, 1 = gateway.
    TrustedCell* cell = nullptr;
    TimedTransport* transport = nullptr;
    std::unique_ptr<tc::Rng> rng;
    uint64_t seq = 0;
  };
  struct Owner {
    int index = 0;
    std::string name;
    Unit siblings[2];
    std::vector<std::string> docs;  ///< Read-only once preloaded.
    std::mutex mu;                  ///< Guards `latest`.
    std::vector<Latest> latest;
  };

  static uint64_t DocRev(int doc, int writer, uint64_t seq) {
    return (static_cast<uint64_t>(doc) << 48) |
           (static_cast<uint64_t>(writer) << 40) | seq;
  }

  uint64_t seed_;
  tc::cloud::CloudInfrastructure* cloud_ = nullptr;
  Owner owners_[kOwners];
  uint64_t bytes_[kLoadThreads] = {};
  size_t next_[kLoadThreads] = {};
};

// ---------------------------------------------------------------------------
// share: pairs of cells of different owners; one grant round shares a
// preloaded 256 B doc under a read policy that logs access and notifies the
// owner, the recipient accepts and reads it, and the sender drains the
// access notification. The roles alternate round by round.
// ---------------------------------------------------------------------------

class ShareWorkload final : public Workload {
 public:
  static constexpr int kPairs = 4;
  static constexpr int kDocsPerCell = 16;
  static constexpr size_t kDocBytes = 256;

  explicit ShareWorkload(uint64_t seed) : seed_(seed) {}

  std::string Describe() const override {
    return "4 pairs of phone cells of different owners, 16 preloaded 256 B "
           "docs each; round = ShareDocument, recipient ProcessInbox + "
           "ReadSharedDocument, sender ProcessInbox + TakeMessages";
  }

  Status Provision(Deployment* deployment) override {
    for (int p = 0; p < kPairs; ++p) {
      Pair& pair = pairs_[p];
      pair.rng = std::make_unique<tc::Rng>(InputKey(seed_, 3, p, 0));
      for (int side = 0; side < 2; ++side) {
        Member& m = pair.members[side];
        m.index = 2 * p + side;
        m.owner = "share-u" + std::to_string(m.index);
        TC_ASSIGN_OR_RETURN(
            m.cell, deployment->AddCell("share-c" + std::to_string(m.index),
                                        m.owner,
                                        tc::tee::DeviceClass::kSmartPhone));
      }
      for (int side = 0; side < 2; ++side) {
        // Read-only grant to the other member's owner, with the two
        // obligations that make every read log and notify.
        tc::policy::UsageRule rule;
        rule.id = "peer-read";
        rule.subjects = {pair.members[1 - side].owner};
        rule.rights = {tc::policy::Right::kRead};
        rule.obligations = {tc::policy::ObligationType::kLogAccess,
                            tc::policy::ObligationType::kNotifyOwner};
        tc::policy::Policy& policy = pair.members[side].grant_policy;
        policy.id = "share-" + pair.members[side].owner;
        policy.owner = pair.members[side].owner;
        policy.rules = {rule};
      }
    }
    return Status::OK();
  }

  Status Preload(int thread) override {
    for (Member& m : pairs_[thread].members) {
      const tc::policy::Policy policy = tc::cell::MakeOwnerPolicy(m.owner);
      for (int d = 0; d < kDocsPerCell; ++d) {
        TC_ASSIGN_OR_RETURN(
            std::string id,
            m.cell->StoreDocument("doc " + std::to_string(d), "share",
                                  Content(DocKey(m, d), kDocBytes), policy));
        m.docs.push_back(id);
      }
    }
    return Status::OK();
  }

  void Step(int thread, Samples* samples) override {
    Pair& pair = pairs_[thread];
    const int side = static_cast<int>(pair.rounds++ % 2);
    Member& sender = pair.members[side];
    Member& recipient = pair.members[1 - side];
    const int d = static_cast<int>(pair.rng->NextBelow(kDocsPerCell));
    const std::string& doc = sender.docs[d];
    const Bytes expected = Content(DocKey(sender, d), kDocBytes);
    ++samples->attempted;
    const uint64_t deferred =
        Deferred(*sender.cell) + Deferred(*recipient.cell);

    const double t0 = NowUs();
    Status shared = sender.cell->ShareDocument(doc, recipient.cell->id(),
                                               sender.grant_policy);
    const double t1 = NowUs();
    auto accepted = recipient.cell->ProcessInbox();
    auto read = recipient.cell->ReadSharedDocument(doc, recipient.owner);
    const double t2 = NowUs();
    auto drained = sender.cell->ProcessInbox();
    const size_t notes =
        sender.cell->TakeMessages("access-notification").size();
    const double t3 = NowUs();

    samples->write.push_back({t1, t1 - t0});
    samples->read.push_back({t2, t2 - t1});
    samples->op.push_back({t3, t3 - t0});
    if (!shared.ok()) {
      samples->Fail("share: " + shared.ToString());
    } else if (!accepted.ok() || *accepted != 1) {
      samples->Fail("recipient accepted " +
                    (accepted.ok() ? std::to_string(*accepted)
                                   : accepted.status().ToString()) +
                    " grants, expected 1");
    } else if (!read.ok()) {
      samples->Fail("shared read: " + read.status().ToString());
    } else if (*read != expected) {
      samples->Fail("shared read of " + doc + " returned wrong bytes");
    } else if (!drained.ok() || notes != 1) {
      samples->Fail("sender got " + std::to_string(notes) +
                    " access notifications, expected 1");
    } else if (Deferred(*sender.cell) + Deferred(*recipient.cell) !=
               deferred) {
      samples->Fail("grant round deferred to the outbox");
    } else {
      recipient.received.insert(doc);
      ++pair.shares;
    }
  }

  // Every doc a recipient accepted is held at the version it was granted.
  uint64_t FinalCheck(std::vector<std::string>* errors) override {
    uint64_t failed = 0;
    for (Pair& pair : pairs_) {
      for (Member& m : pair.members) {
        for (const std::string& doc : m.received) {
          auto meta = m.cell->GetDocumentMeta(doc);
          if (!meta.ok() || meta->version != 1 || meta->origin_cell.empty()) {
            if (++failed <= kMaxErrors) {
              errors->push_back(m.cell->id() + " shared doc " + doc +
                                " not held at its granted version");
            }
          }
        }
      }
    }
    return failed;
  }

  // The preloaded docs, plus each granted doc once per grant: a round's
  // payload is the document the owner chose to share.
  uint64_t user_bytes() const override {
    uint64_t shares = 0;
    for (const Pair& pair : pairs_) shares += pair.shares;
    return (uint64_t{2} * kPairs * kDocsPerCell + shares) * kDocBytes;
  }

 private:
  struct Member {
    int index = 0;
    std::string owner;
    TrustedCell* cell = nullptr;
    tc::policy::Policy grant_policy;
    std::vector<std::string> docs;
    std::set<std::string> received;
  };
  struct Pair {
    Member members[2];
    std::unique_ptr<tc::Rng> rng;
    uint64_t rounds = 0;
    uint64_t shares = 0;  ///< Rounds that passed every check.
  };

  uint64_t DocKey(const Member& m, int d) const {
    return InputKey(seed_, 3, m.index, d + 1);
  }

  uint64_t seed_;
  Pair pairs_[kPairs];
};

}  // namespace

void Samples::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(what);
}

void Samples::Merge(Samples&& other) {
  op.insert(op.end(), other.op.begin(), other.op.end());
  write.insert(write.end(), other.write.begin(), other.write.end());
  read.insert(read.end(), other.read.begin(), other.read.end());
  attempted += other.attempted;
  failed += other.failed;
  for (std::string& e : other.errors) {
    if (errors.size() < kMaxErrors) errors.push_back(std::move(e));
  }
}

Deployment::Deployment() : clock_(tc::MakeTimestamp(2013, 3, 1)) {}

Deployment::~Deployment() {
  cells_.clear();
  transports_.clear();
  socket_.reset();
  if (server_) server_->Shutdown();
}

Status Deployment::Start() {
  tc::cloud::CloudInfrastructure::Options cloud_options;
  cloud_options.op_latency_us = 0;
  cloud_ = std::make_unique<tc::cloud::CloudInfrastructure>(
      tc::cloud::AdversaryConfig::Honest(), cloud_options);
  tc::rpc::RpcServer::Options server_options;
  server_options.worker_threads = kServerWorkers;
  server_options.admission = true;
  // The limiter's floor is the closed loop's own concurrency (one call in
  // flight per load thread, plus one not yet released per thread). With
  // the default floor of 1 the gradient settles near 1.5 under this mixed
  // put/get traffic, refuses about a tenth of the calls of only four
  // clients, drains the cells' 10% retry budgets and pushes stores to the
  // outbox, where a 4 KiB phone document does not fit a 2 KiB flash page.
  server_options.admission_config.min_limit = 2.0 * kLoadThreads;
  server_ = std::make_unique<tc::rpc::RpcServer>(cloud_.get(), server_options);
  TC_RETURN_IF_ERROR(server_->Start());
  tc::rpc::RpcClientPool::Options pool_options;
  pool_options.connections = kConnections;
  pool_options.warmup = true;
  socket_ = std::make_unique<tc::rpc::SocketTransport>(
      "127.0.0.1", server_->port(), pool_options);
  return Status::OK();
}

tc::Result<TrustedCell*> Deployment::AddCell(
    const std::string& cell_id, const std::string& owner,
    tc::tee::DeviceClass device_class) {
  transports_.push_back(std::make_unique<TimedTransport>(socket_.get()));
  TrustedCell::Config config;
  config.cell_id = cell_id;
  config.owner = owner;
  config.device_class = device_class;
  config.enrollment_secret = "perfbench";
  config.resilient_sync = true;
  config.transport = transports_.back().get();
  TC_ASSIGN_OR_RETURN(std::unique_ptr<TrustedCell> cell,
                      TrustedCell::Create(config, cloud_.get(), &directory_,
                                          &clock_));
  cells_.push_back(std::move(cell));
  return cells_.back().get();
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "vault") return std::make_unique<VaultWorkload>(seed);
  if (name == "sync") return std::make_unique<SyncWorkload>(seed);
  if (name == "share") return std::make_unique<ShareWorkload>(seed);
  return nullptr;
}

}  // namespace perfbench
