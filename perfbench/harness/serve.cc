// serve: an in-process server::Server on a Unix socket, driven by
// min(2, nproc) server::Client connections with one request outstanding
// each. Items come from workload::GenerateWorkload, in rounds of 1500:
// 4 tenants with Zipf 0.99 skew, the default commit/checkout/reduce/stat
// mix of 0.6/0.2/0.15/0.05, 12-op PULs on 32 KiB resident documents,
// fsync always. Each round brings 4 fresh tenants (all opened at
// set-up), so resident documents stay small however long the run is.
//
// The loop is closed per tenant: a tenant's commits form a chain, so a
// tenant never has more than one request in flight. A free connection
// takes the earliest item of the stream whose tenant is idle, so every
// connection stays busy while the hot tenant's chain lags behind the
// stream.
//
// Oracles (the `xupdate loadgen --verify` logic): every commit acks the
// version the stream predicts (a kBusy refusal counts as a failure),
// every checkout is byte-identical to a local replay of the tenant's
// chain, every reduce equals a local reduction, and after the loop each
// tenant's head equals the local replay at its last acked version.
//
// Set-up (setup_s) is server start plus every tenant open, on a fresh
// data directory each time.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/reduce.h"
#include "harness.h"
#include "obs/trace.h"
#include "pul/apply.h"
#include "pul/pul_io.h"
#include "server/client.h"
#include "server/server.h"
#include "server/stat.h"
#include "store/version.h"
#include "workload/workload.h"
#include "xml/parser.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using xupdate::Metrics;
using xupdate::MetricsSnapshot;
using xupdate::Result;
using xupdate::Status;
namespace core = xupdate::core;
namespace obs = xupdate::obs;
namespace pul = xupdate::pul;
namespace server = xupdate::server;
namespace store = xupdate::store;
namespace xml = xupdate::xml;
using xupdate::workload::ItemType;
using xupdate::workload::WorkloadItem;

constexpr size_t kTenantsPerRound = 4;
// Replay threads for the local oracle.
constexpr size_t kReplayThreads = 4;
constexpr size_t kOpsPerPul = 12;
constexpr size_t kDocBytes = 32 << 10;
// The stream is generated in rounds of kRoundItems items, each with four
// fresh tenants, so that no tenant's document grows without bound over
// a run. Generating a round and its expected outputs costs about as
// much as serving it, so kRounds distinct rounds are generated and the
// stream repeats them kLaps times, each lap on fresh tenants (same
// documents and chains, so the same expected outputs). kRounds * kLaps *
// kRoundItems is more than a measured window consumes here (about 1300
// items/s with 2 connections on 4 cores at 2.1 GHz); a run that
// exhausts it stops early and says so. Short rounds, so that a run
// spans many independent draws.
constexpr size_t kRounds = 16;
constexpr size_t kLaps = 2;
constexpr size_t kRoundItems = 1500;
// workload::GenerateWorkload can fail on its own chains (a rename to a
// fresh attribute name the element already carries: "duplicate
// attribute"); such a round is redrawn from the next derived seed, and
// every redraw is reported.
constexpr int kMaxDraws = 5;
constexpr int kSetupRepeats = 9;
// Traced run: one ping per this many items measures the bare round trip.
constexpr size_t kPingEvery = 8;
// The closed loop runs in slices of this length, with kProbesPerSlice
// machine-speed probes in the idle gap after each untraced slice.
constexpr double kSliceSeconds = 0.25;
constexpr int kProbesPerSlice = 6;

const char* TypeName(ItemType type) {
  switch (type) {
    case ItemType::kCommit:
      return "commit";
    case ItemType::kCheckout:
      return "checkout";
    case ItemType::kReduce:
      return "reduce";
    case ItemType::kStat:
      return "stat";
  }
  return "unknown";
}

Result<std::string> LocalReduce(const std::string& pul_xml) {
  Result<pul::Pul> p = pul::ParsePul(pul_xml);
  if (!p.ok()) return p.status();
  core::ReduceOptions options;
  options.mode = core::ReduceMode::kDeterministic;
  Result<pul::Pul> reduced = core::Reduce(*p, options);
  if (!reduced.ok()) return reduced.status();
  return pul::SerializePul(*reduced);
}

// Inputs plus every expected output, computed before the clock starts.
struct Plan {
  xupdate::workload::Workload workload;
  std::vector<std::vector<const WorkloadItem*>> per_tenant;
  // checkout_digests[t][v]: the tenant's annotated bytes after v
  // commits, for every version some checkout item reads.
  std::vector<std::map<uint64_t, uint64_t>> checkout_digests;
  std::map<uint64_t, std::string> reduce_refs;  // by item id
  std::vector<std::string> redraws;  // rounds the generator failed on
};

// Replays tenant t's chain up to `version` commits, recording the digest
// of every version in `wanted` (all of them when `wanted` is null) and
// returning the last one.
Result<uint64_t> Replay(const Plan& plan, size_t t, uint64_t version,
                        const std::map<uint64_t, uint64_t>* wanted,
                        std::map<uint64_t, uint64_t>* digests) {
  Result<xml::Document> doc = xml::ParseDocument(plan.workload.initial_xml[t]);
  if (!doc.ok()) return doc.status();
  uint64_t v = 0;
  uint64_t last = 0;
  auto record = [&]() -> Status {
    if (wanted != nullptr && v != version && wanted->count(v) == 0) {
      return Status::OK();
    }
    Result<std::string> bytes = store::VersionStore::SerializeAnnotated(*doc);
    if (!bytes.ok()) return bytes.status();
    last = Digest(*bytes);
    if (digests != nullptr) (*digests)[v] = last;
    return Status::OK();
  };
  XUPDATE_RETURN_IF_ERROR(record());
  for (const WorkloadItem* item : plan.per_tenant[t]) {
    if (v >= version) break;
    if (item->type != ItemType::kCommit) continue;
    Result<pul::Pul> p = pul::ParsePul(item->pul_xml);
    if (!p.ok()) return p.status();
    XUPDATE_RETURN_IF_ERROR(pul::ApplyPul(&*doc, *p));
    ++v;
    XUPDATE_RETURN_IF_ERROR(record());
  }
  if (v != version) return Status::Internal("chain shorter than version");
  return last;
}

// Runs fn(t) for every tenant t < n on kReplayThreads threads.
template <typename F>
Status ForEachTenant(size_t n, F&& fn) {
  std::vector<Status> status(n);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kReplayThreads; ++w) {
    threads.emplace_back([&] {
      for (size_t t = next++; t < n; t = next++) status[t] = fn(t);
    });
  }
  for (std::thread& th : threads) th.join();
  for (const Status& s : status) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

// A tenant name of a round or lap: `tag`, the index, then `name`.
std::string Prefixed(char tag, size_t index, const std::string& name) {
  std::string out(1, tag);
  out += std::to_string(index);
  out += name;
  return out;
}

Status MakePlan(uint64_t seed, Plan* plan) {
  xupdate::workload::Workload& all = plan->workload;
  for (size_t round = 0; round < kRounds; ++round) {
    xupdate::workload::WorkloadOptions options;
    options.num_tenants = kTenantsPerRound;
    options.num_items = kRoundItems;
    options.ops_per_pul = kOpsPerPul;
    options.doc_bytes = kDocBytes;
    Result<xupdate::workload::Workload> w = Status::Internal("not drawn");
    for (int draw = 0; draw < kMaxDraws; ++draw) {
      options.seed = MixSeed(seed, round * kMaxDraws + draw);
      w = xupdate::workload::GenerateWorkload(options);
      if (w.ok()) break;
      plan->redraws.push_back("round " + std::to_string(round) + " draw " +
                              std::to_string(draw) + ": " +
                              w.status().ToString());
    }
    if (!w.ok()) return w.status();
    const size_t tenant_base = all.tenants.size();
    const uint64_t id_base = all.items.size();
    for (size_t t = 0; t < w->tenants.size(); ++t) {
      all.tenants.push_back(Prefixed('r', round, w->tenants[t]));
      all.initial_xml.push_back(std::move(w->initial_xml[t]));
    }
    for (WorkloadItem& item : w->items) {
      item.id += id_base;
      item.tenant += tenant_base;
      all.items.push_back(std::move(item));
    }
  }
  const size_t tenants = all.tenants.size();
  plan->per_tenant.assign(tenants, {});
  plan->checkout_digests.assign(tenants, {});
  std::vector<std::map<uint64_t, uint64_t>> wanted(tenants);
  std::vector<uint64_t> last_version(tenants, 0);
  for (const WorkloadItem& item : all.items) {
    plan->per_tenant[item.tenant].push_back(&item);
    if (item.type == ItemType::kCheckout) {
      wanted[item.tenant][item.version] = 0;
    }
    if (item.type == ItemType::kCommit) {
      last_version[item.tenant] = item.expected_version;
    }
  }
  std::vector<std::map<uint64_t, std::string>> refs(tenants);
  XUPDATE_RETURN_IF_ERROR(ForEachTenant(tenants, [&](size_t t) -> Status {
    for (const WorkloadItem* item : plan->per_tenant[t]) {
      if (item->type != ItemType::kReduce) continue;
      Result<std::string> ref = LocalReduce(item->pul_xml);
      if (!ref.ok()) return ref.status();
      refs[t][item->id] = std::move(*ref);
    }
    return Replay(*plan, t, last_version[t], &wanted[t],
                  &plan->checkout_digests[t])
        .status();
  }));
  for (auto& r : refs) plan->reduce_refs.merge(r);

  // Later laps: the same items on fresh tenants, with the expected
  // outputs of the tenants they copy.
  const size_t items = all.items.size();
  for (size_t lap = 1; lap < kLaps; ++lap) {
    for (size_t t = 0; t < tenants; ++t) {
      all.tenants.push_back(Prefixed('l', lap, all.tenants[t]));
      all.initial_xml.push_back(all.initial_xml[t]);
      plan->checkout_digests.push_back(plan->checkout_digests[t]);
    }
    for (size_t i = 0; i < items; ++i) {
      WorkloadItem item = all.items[i];
      if (item.type == ItemType::kReduce) {
        plan->reduce_refs[item.id + lap * items] =
            plan->reduce_refs.at(item.id);
      }
      item.id += lap * items;
      item.tenant += lap * tenants;
      all.items.push_back(std::move(item));
    }
  }
  plan->per_tenant.assign(all.tenants.size(), {});
  for (const WorkloadItem& item : all.items) {
    plan->per_tenant[item.tenant].push_back(&item);
  }
  return Status::OK();
}

// Hands items to connections: the earliest stream item whose tenant has
// nothing in flight.
class Dispatcher {
 public:
  explicit Dispatcher(const Plan& plan)
      : plan_(plan),
        cursor_(plan.per_tenant.size(), 0),
        busy_(plan.per_tenant.size(), false) {}

  // Null once the deadline passed or the stream is exhausted.
  const WorkloadItem* Take(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (Clock::now() >= deadline) return nullptr;
      const WorkloadItem* best = nullptr;
      bool pending = false;
      for (size_t t = 0; t < cursor_.size(); ++t) {
        if (cursor_[t] >= plan_.per_tenant[t].size()) continue;
        pending = true;
        const WorkloadItem* next = plan_.per_tenant[t][cursor_[t]];
        if (busy_[t]) continue;
        if (best == nullptr || next->id < best->id) best = next;
      }
      if (!pending) {
        exhausted_ = true;
        return nullptr;
      }
      if (best != nullptr) {
        busy_[best->tenant] = true;
        ++cursor_[best->tenant];
        return best;
      }
      cv_.wait_until(lock, deadline);
    }
  }

  void Done(const WorkloadItem* item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      busy_[item->tenant] = false;
    }
    cv_.notify_all();
  }

  bool exhausted() const { return exhausted_; }

 private:
  const Plan& plan_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<size_t> cursor_;
  std::vector<bool> busy_;
  bool exhausted_ = false;
};

// One completed item of the traced run, for the decomposition.
struct Record {
  const WorkloadItem* item = nullptr;
  double rtt_ms = 0.0;
  double wire_ms = 0.0;           // the connection's median ping
  uint64_t version = 0;           // commit: acked version
  double server_checkout_ms = 0;  // checkout: tenant timer delta
  std::string checkout_bytes;
};

// Per-tenant state; touched only by the connection serving the
// tenant's one in-flight item (the dispatcher orders the hand-offs).
struct TenantState {
  uint64_t acked = 0;
  double checkout_seconds = 0.0;  // server's tenant checkout timer
};

struct Connection {
  server::Client client;
  std::vector<double> ping_ms;
  std::vector<Record> records;
  std::map<std::string, std::vector<double>> rtt_ms;  // by item type
  uint64_t completed = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

class Serve {
 public:
  Serve(const RunConfig& config, const Plan& plan, WorkloadResult* out)
      : config_(config), plan_(plan), out_(out) {}

  // Starts a server on a fresh data dir and opens every tenant. Returns
  // the elapsed seconds, or < 0 on failure.
  double Start(int index, obs::Tracer* tracer);
  void Stop();
  // Runs the closed loop for `seconds`; folds the samples into out_.
  void Loop(double seconds, bool traced);
  void Decompose();

 private:
  void Drive(Connection* conn, Dispatcher* dispatcher,
             Clock::time_point deadline, bool traced);
  void CheckHeads();

  const RunConfig& config_;
  const Plan& plan_;
  WorkloadResult* out_;
  Metrics metrics_;
  obs::Tracer* tracer_ = nullptr;
  std::unique_ptr<server::Server> server_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::vector<TenantState> tenants_;
};

double Serve::Start(int index, obs::Tracer* tracer) {
  const std::string base =
      config_.work_dir + "/serve-" + std::to_string(index);
  fs::create_directories(base);
  tracer_ = tracer;
  server::ServerOptions options;
  // Unix socket paths are short (108 bytes); name it relative to the
  // working directory.
  options.socket_path = fs::relative(base + "/s.sock").string();
  options.data_dir = base + "/data";
  options.store.fsync = store::FsyncPolicy::kAlways;
  options.metrics = &metrics_;
  options.tracer = tracer;
  metrics_.Clear();
  conns_.clear();
  tenants_.assign(plan_.workload.tenants.size(), TenantState{});
  const Clock::time_point t0 = Clock::now();
  Result<std::unique_ptr<server::Server>> started =
      server::Server::Start(options);
  if (!started.ok()) {
    out_->Fail("server start: " + started.status().ToString());
    return -1;
  }
  server_ = std::move(*started);
  // One connection per engine thread: min(2, nproc).
  for (int c = 0; c < config_.parallelism; ++c) {
    auto conn = std::make_unique<Connection>();
    Result<server::Client> client =
        server::Client::Connect(options.socket_path);
    if (!client.ok()) {
      out_->Fail("connect: " + client.status().ToString());
      return -1;
    }
    conn->client = std::move(*client);
    conns_.push_back(std::move(conn));
  }
  for (size_t t = 0; t < tenants_.size(); ++t) {
    Result<uint64_t> head = conns_[t % conns_.size()]->client.Open(
        plan_.workload.tenants[t], plan_.workload.initial_xml[t]);
    if (!head.ok() || *head != 0) {
      out_->Fail("open tenant " + plan_.workload.tenants[t] + ": " +
                 (head.ok() ? "head " + std::to_string(*head)
                            : head.status().ToString()));
      return -1;
    }
  }
  return MsBetween(t0, Clock::now()) / 1e3;
}

void Serve::Stop() {
  for (auto& conn : conns_) (void)conn->client.Close();
  if (server_ != nullptr) {
    Status stopped = server_->Stop();
    if (!stopped.ok()) out_->Fail("server stop: " + stopped.ToString());
  }
  server_.reset();
}

double TenantCheckoutSeconds(server::Client* client,
                             const std::string& tenant) {
  Result<std::string> json = client->Stat();
  if (!json.ok()) return -1;
  Result<server::StatSnapshot> stat = server::ParseStatJson(*json);
  if (!stat.ok()) return -1;
  auto t = stat->tenants.find(tenant);
  if (t == stat->tenants.end()) return 0;
  auto timer = t->second.timers.find("checkout.seconds");
  return timer == t->second.timers.end() ? 0 : timer->second.seconds;
}

void Serve::Drive(Connection* conn, Dispatcher* dispatcher,
                  Clock::time_point deadline, bool traced) {
  auto fail = [conn](const std::string& what) {
    ++conn->failed;
    if (conn->failures.size() < 4) conn->failures.push_back(what);
  };
  while (conn->failed == 0) {
    const WorkloadItem* item = dispatcher->Take(deadline);
    if (item == nullptr) break;
    const std::string& tenant = plan_.workload.tenants[item->tenant];
    TenantState& state = tenants_[item->tenant];
    ++conn->attempted;
    if (traced && conn->attempted % kPingEvery == 0) {
      const Clock::time_point p0 = Clock::now();
      if (conn->client.Ping().ok()) {
        conn->ping_ms.push_back(MsBetween(p0, Clock::now()));
      }
    }
    Record record;
    record.item = item;
    const std::string where = std::string(TypeName(item->type)) + " #" +
                              std::to_string(item->id) + " on " + tenant;
    const Clock::time_point t0 = Clock::now();
    Status status;
    std::string payload;
    server::CommitAck ack;
    switch (item->type) {
      case ItemType::kCommit: {
        Result<server::CommitAck> r =
            conn->client.Commit(tenant, item->pul_xml);
        if (r.ok()) ack = *r;
        status = r.status();
        break;
      }
      case ItemType::kCheckout: {
        Result<std::string> r = conn->client.Checkout(tenant, item->version);
        if (r.ok()) payload = std::move(*r);
        status = r.status();
        break;
      }
      case ItemType::kReduce: {
        Result<std::string> r =
            conn->client.Reduce(item->pul_xml, "deterministic", 1);
        if (r.ok()) payload = std::move(*r);
        status = r.status();
        break;
      }
      case ItemType::kStat:
        status = conn->client.Stat().status();
        break;
    }
    record.rtt_ms = MsBetween(t0, Clock::now());
    if (!status.ok()) {
      fail(where + ": " + status.ToString());
    } else if (item->type == ItemType::kCommit) {
      if (ack.busy) {
        fail(where + ": refused with kBusy");
      } else if (ack.version != item->expected_version) {
        fail(where + ": acked version " + std::to_string(ack.version) +
             ", expected " + std::to_string(item->expected_version));
      }
      state.acked = ack.version;
      record.version = ack.version;
    } else if (item->type == ItemType::kCheckout) {
      const std::map<uint64_t, uint64_t>& digests =
          plan_.checkout_digests[item->tenant];
      auto it = digests.find(item->version);
      if (it == digests.end() || it->second != Digest(payload)) {
        fail(where + ": bytes differ from the local replay");
      }
      if (traced) {
        const double total = TenantCheckoutSeconds(&conn->client, tenant);
        record.server_checkout_ms = (total - state.checkout_seconds) * 1e3;
        state.checkout_seconds = total;
        record.checkout_bytes = std::move(payload);
      }
    } else if (item->type == ItemType::kReduce) {
      auto ref = plan_.reduce_refs.find(item->id);
      if (ref == plan_.reduce_refs.end() || ref->second != payload) {
        fail(where + ": differs from the local reduction");
      }
    }
    dispatcher->Done(item);
    if (conn->failed > 0) break;
    ++conn->completed;
    conn->rtt_ms[TypeName(item->type)].push_back(record.rtt_ms);
    if (traced) conn->records.push_back(std::move(record));
  }
  const double wire = Percentile(conn->ping_ms, 0.5);
  for (Record& r : conn->records) r.wire_ms = wire;
}

void Serve::CheckHeads() {
  std::vector<uint64_t> expected(tenants_.size(), 0);
  Status replayed = ForEachTenant(tenants_.size(), [&](size_t t) -> Status {
    Result<uint64_t> d =
        Replay(plan_, t, tenants_[t].acked,
               /*wanted=*/&plan_.checkout_digests[t], nullptr);
    if (!d.ok()) return d.status();
    expected[t] = *d;
    return Status::OK();
  });
  if (!replayed.ok()) out_->Fail("head replay: " + replayed.ToString());
  for (size_t t = 0; t < tenants_.size(); ++t) {
    const std::string& tenant = plan_.workload.tenants[t];
    ++out_->attempted;
    Result<std::string> head =
        conns_[t % conns_.size()]->client.Checkout(tenant, 0, /*head=*/true);
    if (!head.ok() || Digest(*head) != expected[t]) {
      out_->Fail("head of tenant " + tenant +
                 " differs from the local replay at version " +
                 std::to_string(tenants_[t].acked));
    }
  }
}

void Serve::Loop(double seconds, bool traced) {
  Dispatcher dispatcher(plan_);
  // The loop runs in slices. Between slices the connections are idle
  // and the untraced loop runs the machine-speed probe; only the slices
  // count as wall and CPU time.
  auto ok = [this] {
    for (const auto& conn : conns_) {
      if (conn->failed > 0) return false;
    }
    return true;
  };
  auto completed = [this] {
    uint64_t n = 0;
    for (const auto& conn : conns_) n += conn->completed;
    return n;
  };
  double wall_s = 0.0;
  while (wall_s < seconds && !dispatcher.exhausted() && ok()) {
    const uint64_t items0 = completed();
    const double cpu0 = ProcessCpuMs();
    const Clock::time_point start = Clock::now();
    const Clock::time_point deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        std::min(kSliceSeconds, seconds - wall_s)));
    std::vector<std::thread> threads;
    for (auto& conn : conns_) {
      Connection* raw = conn.get();
      threads.emplace_back([this, raw, &dispatcher, deadline, traced] {
        Drive(raw, &dispatcher, deadline, traced);
      });
    }
    for (std::thread& t : threads) t.join();
    const double slice_s = MsBetween(start, Clock::now()) / 1e3;
    wall_s += slice_s;
    if (!traced) {
      out_->busy_s += slice_s;
      out_->cpu_ms += ProcessCpuMs() - cpu0;
      out_->items += completed() - items0;
      for (int i = 0; i < kProbesPerSlice; ++i) out_->pace.Probe();
    }
  }
  if (dispatcher.exhausted()) {
    std::cout << "note: the generated stream ran out after "
              << FormatNumber(wall_s) << " s\n";
  }
  for (auto& conn : conns_) {
    out_->attempted += conn->attempted;
    out_->failed += conn->failed;
    for (const std::string& f : conn->failures) {
      if (out_->errors.size() < 8) out_->errors.push_back(f);
    }
    auto& ops = traced ? out_->traced_ops : out_->ops;
    for (const auto& [type, samples] : conn->rtt_ms) {
      std::vector<double>& dst = ops[type];
      dst.insert(dst.end(), samples.begin(), samples.end());
    }
  }
  // One window: throughput dips each time the stream's round ends on
  // the hot tenant's chain, so any shorter window's mix depends on
  // where it falls.
  if (!traced) out_->EndWindow();
  CheckHeads();
}

// Server-side phases of one commit, from the server's own request spans.
struct CommitPhases {
  double admit_ms = 0, batch_wait_ms = 0, store_ms = 0, respond_ms = 0;
};

std::map<std::pair<std::string, uint64_t>, CommitPhases> ServerPhases(
    const obs::Tracer& tracer) {
  struct Raw {
    double admit_b = -1, admit_e = -1, store_b = -1, store_e = -1,
           respond_b = -1, respond_e = -1;
    std::string tenant;
    uint64_t version = 0;
  };
  std::map<uint32_t, Raw> raw;
  for (const obs::TraceEvent& e : tracer.SortedEvents()) {
    Raw& r = raw[e.phase];
    const bool begin = e.kind == obs::EventKind::kSpanBegin;
    const bool end = e.kind == obs::EventKind::kSpanEnd;
    if (e.name == "commit.admit") {
      if (begin) {
        r.admit_b = e.t_us;
        if (e.detail.rfind("tenant=", 0) == 0) r.tenant = e.detail.substr(7);
      }
      if (end) r.admit_e = e.t_us;
    } else if (e.name == "commit.store") {
      if (begin) r.store_b = e.t_us;
      if (end) r.store_e = e.t_us;
    } else if (e.name == "commit.respond") {
      if (begin) r.respond_b = e.t_us;
      if (end) r.respond_e = e.t_us;
    } else if (e.name == "commit.done" && e.result.rfind("v", 0) == 0) {
      r.version = std::strtoull(e.result.c_str() + 1, nullptr, 10);
    }
  }
  std::map<std::pair<std::string, uint64_t>, CommitPhases> out;
  for (const auto& [phase, r] : raw) {
    if (r.admit_b < 0 || r.admit_e < 0 || r.store_b < 0 || r.store_e < 0 ||
        r.respond_e < 0 || r.version == 0) {
      continue;
    }
    CommitPhases p;
    p.admit_ms = (r.admit_e - r.admit_b) / 1e3;
    p.batch_wait_ms = (r.store_b - r.admit_e) / 1e3;
    p.store_ms = (r.store_e - r.store_b) / 1e3;
    p.respond_ms = (r.respond_e - std::max(r.respond_b, r.store_e)) / 1e3;
    out[{r.tenant, r.version}] = p;
  }
  return out;
}

void Serve::Decompose() {
  Spans& spans = out_->spans;
  const auto phases = ServerPhases(*tracer_);
  std::vector<double> shards;
  std::vector<double> rule_applications;
  std::vector<double> ops_per_shard;
  // Records in stream order, so each tenant's mirror replays its chain.
  std::vector<const Record*> records;
  for (auto& conn : conns_) {
    for (const Record& r : conn->records) records.push_back(&r);
  }
  std::sort(records.begin(), records.end(),
            [](const Record* a, const Record* b) {
              return a->item->id < b->item->id;
            });
  std::vector<xml::Document> mirrors;
  for (size_t t = 0; t < plan_.workload.tenants.size(); ++t) {
    Result<xml::Document> doc =
        xml::ParseDocument(plan_.workload.initial_xml[t]);
    if (!doc.ok()) return;
    mirrors.push_back(std::move(*doc));
  }
  {
    for (const Record* rp : records) {
      const Record& rec = *rp;
      const WorkloadItem& item = *rec.item;
      const std::string& tenant = plan_.workload.tenants[item.tenant];
      xml::Document* mirror = &mirrors[item.tenant];
      const double wire_ms = rec.wire_ms;
      switch (item.type) {
        case ItemType::kCommit: {
          spans.BeginItem("commit");
          Result<pul::Pul> p = spans.Leaf(
              "pul.decode", [&] { return pul::ParsePul(item.pul_xml); });
          if (p.ok()) {
            // Re-issued CommitBatch constituents; server.store covers
            // them, so they do not count towards the attributed time.
            (void)spans.Group("pul.check", [&] {
              return pul::CheckPulApplicable(*mirror, *p);
            });
            (void)spans.Group("pul.encode",
                              [&] { return pul::SerializePul(*p); });
            (void)spans.Group("pul.apply",
                              [&] { return pul::ApplyPul(&*mirror, *p); });
          }
          auto it = phases.find({tenant, rec.version});
          if (it != phases.end()) {
            spans.AddLeaf("server.admit_wait", it->second.admit_ms);
            spans.AddLeaf("server.batch_wait", it->second.batch_wait_ms);
            spans.AddLeaf("server.store", it->second.store_ms);
            spans.AddLeaf("server.respond", it->second.respond_ms);
          }
          spans.AddLeaf("server.wire", wire_ms);
          spans.EndItem(rec.rtt_ms);
          break;
        }
        case ItemType::kCheckout: {
          spans.BeginItem("checkout");
          spans.AddLeaf("server.checkout", rec.server_checkout_ms);
          spans.AddLeaf("server.wire", wire_ms);
          // The server parses a checkpoint and serializes the result; the
          // same calls re-issued on the checked-out bytes (not counted:
          // server.checkout covers them).
          Result<xml::Document> doc = spans.Group("xml.parse", [&] {
            return xml::ParseDocument(rec.checkout_bytes);
          });
          if (doc.ok()) {
            (void)spans.Group("xml.serialize", [&] {
              return store::VersionStore::SerializeAnnotated(*doc);
            });
          }
          spans.EndItem(rec.rtt_ms);
          break;
        }
        case ItemType::kReduce: {
          spans.BeginItem("reduce");
          Result<pul::Pul> p = spans.Leaf(
              "pul.decode", [&] { return pul::ParsePul(item.pul_xml); });
          if (p.ok()) {
            core::ReduceOptions options;
            options.mode = core::ReduceMode::kDeterministic;
            core::ReduceStats stats;
            Result<pul::Pul> reduced = spans.Leaf("core.reduce", [&] {
              return core::Reduce(*p, options, &stats);
            });
            if (reduced.ok()) {
              (void)spans.Leaf("pul.encode",
                               [&] { return pul::SerializePul(*reduced); });
            }
            shards.push_back(static_cast<double>(stats.shards));
            rule_applications.push_back(
                static_cast<double>(stats.rule_applications));
            ops_per_shard.push_back(Ratio(static_cast<double>(stats.input_ops),
                                          static_cast<double>(stats.shards)));
          }
          spans.AddLeaf("server.wire", wire_ms);
          spans.EndItem(rec.rtt_ms);
          break;
        }
        case ItemType::kStat:
          break;
      }
    }
  }
  const MetricsSnapshot m = metrics_.Snapshot();
  auto counter = [&m](const char* name) {
    auto it = m.counters.find(name);
    return it == m.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  auto timer_ms = [&m](const char* name) {
    auto it = m.timers.find(name);
    return it == m.timers.end() ? 0.0 : it->second.seconds * 1e3;
  };
  std::map<std::string, double, std::less<>>& v = out_->layer_values;
  const double commits = counter("store.commit.count");
  v["store.fsyncs_per_commit"] =
      Ratio(counter("store.wal.fsync.count"), commits);
  v["store.journal_bytes_per_commit"] =
      Ratio(counter("store.wal.append.bytes"), commits);
  v["store.snapshot.bytes_per_commit"] =
      Ratio(counter("store.snapshot.write.bytes"), commits);
  v["store.checkout.replayed_frames"] =
      Ratio(counter("store.checkout.replayed_frames"),
            counter("store.checkout.count"));
  // The store's own timers, as shares of all decomposed wall time.
  v["store.wal.append_share"] =
      Ratio(timer_ms("store.wal.append.seconds"), spans.TotalWall());
  v["store.wal.fsync_share"] =
      Ratio(timer_ms("store.wal.fsync.seconds"), spans.TotalWall());
  v["store.snapshot.write_share"] =
      Ratio(timer_ms("store.snapshot.write.seconds"), spans.TotalWall());
  v["server.jobs_per_batch"] =
      Ratio(counter("server.batch.jobs"), counter("server.batch.count"));
  v["server.busy_frac"] = Ratio(counter("server.busy.count"),
                                counter("server.busy.count") + commits);
  v["core.reduce.shards"] = Percentile(shards, 0.5);
  v["core.reduce.ops_per_shard"] = Percentile(ops_per_shard, 0.5);
  v["core.reduce.rule_applications"] = Percentile(rule_applications, 0.5);
  v["commit.unattributed_frac"] = spans.Unattributed("commit");
  v["checkout.unattributed_frac"] = spans.Unattributed("checkout");
  v["reduce.unattributed_frac"] = spans.Unattributed("reduce");
}

}  // namespace

WorkloadResult RunServe(const RunConfig& config) {
  WorkloadResult out;
  out.headline_ops = {"commit", "checkout", "reduce", "stat"};
  Plan plan;
  Status made = MakePlan(config.seed, &plan);
  for (const std::string& r : plan.redraws) {
    std::cout << "workload generator redraw: " << r << "\n";
  }
  out.report_only.push_back({"workload.generator_redraws",
                             static_cast<double>(plan.redraws.size()),
                             "count"});
  if (!made.ok()) {
    ++out.attempted;
    out.Fail("generating the workload: " + made.ToString());
    return out;
  }
  Serve serve(config, plan, &out);
  for (int i = 0; i < kSetupRepeats; ++i) {
    ++out.attempted;
    const double s = serve.Start(i, nullptr);
    if (s < 0) {
      serve.Stop();
      return out;
    }
    out.setup_s.push_back(s);
    if (i + 1 < kSetupRepeats) serve.Stop();
  }
  serve.Loop(config.trace ? config.seconds / 2 : config.seconds, false);
  serve.Stop();
  if (config.trace && out.failed == 0) {
    obs::Tracer tracer;
    ++out.attempted;
    if (serve.Start(kSetupRepeats, &tracer) >= 0) {
      serve.Loop(config.seconds / 2, true);
      serve.Stop();
      serve.Decompose();
    } else {
      serve.Stop();
    }
  }
  return out;
}

}  // namespace perfbench
