// Disabled-telemetry overhead gate for the serving layer. The PR that
// added per-tenant metrics, the flight recorder and request tracing
// must not tax the hot commit path when tracing is off and nothing is
// polling: this gate drives a real in-process server over its Unix
// socket twice — once with every telemetry sink disabled, once with the
// `serve` defaults (flight recorder on, per-tenant metrics on, tracer
// null, slow-request log off) — and fails (exit 1) if the default
// configuration is more than 1% slower on a synchronous single-
// connection commit workload. fsync=never and a zero batch window keep
// the measured work CPU-bound, which is the unfavourable case for the
// telemetry branches: against real fsyncs they would vanish.
//
// The gated statistic is a ratio of two separately robust numbers:
//
//   overhead = (per-commit telemetry op cost, measured directly)
//            / (fastest end-to-end bare commit round trip)
//
// The numerator times the exact op sequence an admitted commit executes
// beyond the bare configuration — the per-tenant counter/timer updates,
// the wal-bytes gauge and the four flight-recorder events — in a tight
// loop against a registry and recorder populated like a live server's.
// The denominator is the minimum single-commit round trip over every
// commit of every bare trial. A paired end-to-end comparison cannot
// gate at 1% here: each round trip crosses three threads (client,
// session read loop, batch writer), and on a single-core box the
// run-to-run noise floor of even the per-commit minimum exceeds the
// budget with BOTH sides configured identically. The direct measurement
// is stable to well under a microsecond, and the denominator tolerates
// its own noise (a 10% swing moves a 0.5% ratio by 0.05 points). The
// end-to-end comparison still runs and lands in the artifact
// (`e2e_overhead`) for context, unguarded. If the server's telemetry
// sequence changes, kTelemetryOpsPerCommit below must follow: the
// sanity block cross-checks the live server's flight-event and
// per-tenant counts against the modelled sequence so drift fails loudly
// instead of silently gating the wrong loop.
//
// Not a Google-Benchmark binary on purpose (same rationale as
// trace_overhead_check): a hard verdict plus a repo-root JSON artifact.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "label/labeling.h"
#include "obs/flight_recorder.h"
#include "pul/pul_io.h"
#include "server/client.h"
#include "server/server.h"
#include "store/version.h"
#include "store/wal.h"
#include "workload/pul_generator.h"
#include "xmark/generator.h"
#include "xml/parser.h"

namespace {

namespace fs = std::filesystem;

constexpr size_t kDocBytes = 1 << 14;
constexpr size_t kCommits = 64;
constexpr size_t kOpsPerPul = 4;
constexpr int kTrials = 15;
constexpr double kMaxOverhead = 0.01;

// The telemetry ops an admitted commit runs beyond the bare
// configuration (server.cc): per-tenant requests counter at GetTenant,
// flight events admit/batch-seal/fsync-ok/apply, the per-tenant
// wal-bytes gauge after apply, and the per-tenant commit timer+counter
// at respond time. The sanity block below cross-checks these counts
// against the live server so the model cannot silently drift.
constexpr uint64_t kFlightEventsPerCommit = 4;
constexpr size_t kServerDefaultFlightCapacity = 1024;

using Clock = std::chrono::steady_clock;

struct Fixture {
  std::string base_xml;
  std::vector<std::string> chain;
};

Fixture BuildFixture() {
  xupdate::xmark::Config config;
  config.seed = 777;
  config.target_bytes = kDocBytes;
  auto text = xupdate::xmark::GenerateDocumentText(config);
  if (!text.ok()) {
    fprintf(stderr, "xmark generation failed: %s\n",
            text.status().ToString().c_str());
    exit(1);
  }
  auto doc = xupdate::xml::ParseDocument(*text);
  if (!doc.ok()) {
    fprintf(stderr, "parse failed: %s\n", doc.status().ToString().c_str());
    exit(1);
  }
  auto annotated = xupdate::store::VersionStore::SerializeAnnotated(*doc);
  if (!annotated.ok()) {
    fprintf(stderr, "serialize failed: %s\n",
            annotated.status().ToString().c_str());
    exit(1);
  }
  xupdate::label::Labeling labeling = xupdate::label::Labeling::Build(*doc);
  xupdate::workload::PulGenerator gen(*doc, labeling, 778);
  xupdate::workload::PulGenerator::SequenceOptions seq;
  seq.num_puls = kCommits;
  seq.ops_per_pul = kOpsPerPul;
  auto puls = gen.GenerateSequence(seq);
  if (!puls.ok()) {
    fprintf(stderr, "pul generation failed: %s\n",
            puls.status().ToString().c_str());
    exit(1);
  }
  Fixture fixture;
  fixture.base_xml = std::move(*annotated);
  for (const auto& pul : *puls) {
    auto xml = xupdate::pul::SerializePul(pul);
    if (!xml.ok()) {
      fprintf(stderr, "pul serialization failed: %s\n",
              xml.status().ToString().c_str());
      exit(1);
    }
    fixture.chain.push_back(std::move(*xml));
  }
  return fixture;
}

struct Harness {
  xupdate::Metrics metrics;
  std::unique_ptr<xupdate::server::Server> server;
  xupdate::server::Client client;
  size_t next_tenant = 0;

  // One trial: open a fresh tenant (untimed: the document parse is
  // setup, not hot path), then run the synchronous commit loop and
  // return the fastest single-commit round trip it saw.
  double RunTrial(const Fixture& fixture) {
    std::string tenant =
        std::string("t").append(std::to_string(next_tenant++));
    auto head = client.Open(tenant, fixture.base_xml);
    if (!head.ok()) {
      fprintf(stderr, "open failed: %s\n", head.status().ToString().c_str());
      exit(1);
    }
    double best = 1e300;
    for (size_t i = 0; i < fixture.chain.size(); ++i) {
      auto begin = Clock::now();
      auto ack = client.Commit(tenant, fixture.chain[i]);
      auto end = Clock::now();
      if (!ack.ok() || ack->busy || ack->version != i + 1) {
        fprintf(stderr, "commit %zu failed: %s\n", i,
                ack.ok() ? "busy/unexpected version"
                         : ack.status().ToString().c_str());
        exit(1);
      }
      best = std::min(best,
                      std::chrono::duration<double>(end - begin).count());
    }
    return best;
  }
};

void StartHarness(Harness* harness, const fs::path& root,
                  const std::string& tag, bool telemetry) {
  xupdate::server::ServerOptions options;
  options.socket_path = (root / (tag + ".sock")).string();
  options.data_dir = (root / (tag + "_data")).string();
  options.commit_window_ms = 0;
  options.metrics = &harness->metrics;
  options.store.fsync = xupdate::store::FsyncPolicy::kNever;
  options.store.snapshot_every = 0;
  options.store.snapshot_bytes = 0;
  if (!telemetry) {
    options.flight_recorder_capacity = 0;
    options.per_tenant_metrics = false;
  }
  auto server = xupdate::server::Server::Start(options);
  if (!server.ok()) {
    fprintf(stderr, "server start failed: %s\n",
            server.status().ToString().c_str());
    exit(1);
  }
  harness->server = std::move(*server);
  auto client = xupdate::server::Client::Connect(options.socket_path);
  if (!client.ok()) {
    fprintf(stderr, "connect failed: %s\n",
            client.status().ToString().c_str());
    exit(1);
  }
  harness->client = std::move(*client);
}

// Directly times the per-commit telemetry op sequence against a
// registry and flight recorder populated like a live server's (the
// global series the daemon registers plus a realistic tenant
// population, so map lookups walk trees of honest depth). Returns
// seconds per commit, minimum over repeats. Mutexes are uncontended
// here; on the serialized single-connection hot path they are on the
// server too, and a contended acquisition is a context switch —
// scheduler cost, not telemetry CPU.
double MeasureTelemetryOpsPerCommit() {
  xupdate::Metrics metrics;
  xupdate::obs::FlightRecorder flight(kServerDefaultFlightCapacity);
  for (const char* name :
       {"server.requests", "server.accept.count", "server.batch.count",
        "server.batch.jobs", "store.commit.count", "store.wal.append.count",
        "store.wal.fsync.count"}) {
    metrics.AddCounter(name, 0);
  }
  metrics.SetGauge("server.queue.depth", 0);
  metrics.SetGauge("server.batch.window.occupancy", 0);
  metrics.SetGauge("server.tenants.resident", 0);
  metrics.SetGauge("server.wal.bytes", 0);
  metrics.RecordDuration("server.commit.seconds", 0.000150);
  std::vector<std::string> requests_names;
  std::vector<std::string> commit_count_names;
  std::vector<std::string> commit_seconds_names;
  std::vector<std::string> wal_bytes_names;
  for (int t = 0; t < 16; ++t) {
    const std::string prefix = "tenant/t" + std::to_string(t) + "/";
    requests_names.push_back(prefix + "requests");
    commit_count_names.push_back(prefix + "commit.count");
    commit_seconds_names.push_back(prefix + "commit.seconds");
    wal_bytes_names.push_back(prefix + "wal.bytes");
    metrics.AddCounter(requests_names.back(), 0);
    metrics.AddCounter(commit_count_names.back(), 0);
    metrics.AddCounter(prefix + "commit.errors", 0);
    metrics.AddCounter(prefix + "shed.count", 0);
    metrics.RecordDuration(commit_seconds_names.back(), 0.000150);
    metrics.RecordDuration(prefix + "checkout.seconds", 0.000150);
    metrics.SetGauge(wal_bytes_names.back(), 0);
  }

  constexpr int kReps = 5;
  constexpr uint64_t kIters = 100000;
  const std::string tenant = "t12";
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    auto begin = Clock::now();
    for (uint64_t k = 0; k < kIters; ++k) {
      const size_t t = k % 16;
      metrics.AddCounter(requests_names[t]);
      flight.Record(xupdate::obs::FlightEventKind::kAdmit, tenant, k, 0, 1);
      flight.Record(xupdate::obs::FlightEventKind::kBatchSeal, {}, 0, k, 1);
      flight.Record(xupdate::obs::FlightEventKind::kFsyncOk, tenant, 0, k, 1);
      flight.Record(xupdate::obs::FlightEventKind::kApply, tenant, 0, k, 1);
      metrics.SetGauge(wal_bytes_names[t], static_cast<int64_t>(k));
      metrics.RecordDuration(commit_seconds_names[t], 0.000150);
      metrics.AddCounter(commit_count_names[t]);
    }
    auto end = Clock::now();
    best = std::min(best, std::chrono::duration<double>(end - begin).count() /
                              static_cast<double>(kIters));
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef NDEBUG
  const char* build_type = "release";
#else
  const char* build_type = "debug";
  if (std::getenv("XUPDATE_ALLOW_DEBUG_BENCH") == nullptr) {
    fprintf(stderr,
            "refusing to gate on a Debug build; rebuild with "
            "-DCMAKE_BUILD_TYPE=Release or set "
            "XUPDATE_ALLOW_DEBUG_BENCH=1 to override\n");
    return 1;
  }
#endif

  const char* out_path =
      argc > 1 ? argv[1] : "BENCH_telemetry_overhead.json";

  Fixture fixture = BuildFixture();
  fs::path root =
      fs::temp_directory_path() /
      ("xupdate_telemetry_overhead_" + std::to_string(::getpid()));
  fs::create_directories(root);

  Harness bare;
  Harness full;
  StartHarness(&bare, root, "bare", /*telemetry=*/false);
  StartHarness(&full, root, "full", /*telemetry=*/true);

  // Warm both paths, then interleave with alternating order so drift
  // and allocator state land on both sides equally.
  (void)bare.RunTrial(fixture);
  (void)full.RunTrial(fixture);
  double bare_min = 1e300;
  double full_min = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    if (trial % 2 == 0) {
      bare_min = std::min(bare_min, bare.RunTrial(fixture));
      full_min = std::min(full_min, full.RunTrial(fixture));
    } else {
      full_min = std::min(full_min, full.RunTrial(fixture));
      bare_min = std::min(bare_min, bare.RunTrial(fixture));
    }
  }

  // Sanity: the telemetry side actually recorded per-tenant series (the
  // gate must not pass because telemetry silently never ran), and the
  // live server's event counts match the modelled op sequence — if the
  // commit path gains or loses a flight event or per-tenant metric op,
  // this fails instead of letting the direct loop measure a stale model.
  const size_t opened_tenants = 1 + static_cast<size_t>(kTrials);  // + warm
  if (full.metrics.counter("tenant/t1/commit.count") != kCommits ||
      full.metrics.counter("tenant/t1/requests") != kCommits + 1 ||  // + open
      full.server->flight_recorder() == nullptr) {
    fprintf(stderr, "telemetry configuration did not record\n");
    return 1;
  }
  const uint64_t expected_events =
      kFlightEventsPerCommit * kCommits * opened_tenants + opened_tenants;
  const uint64_t recorded = full.server->flight_recorder()->total_recorded();
  if (recorded != expected_events) {
    fprintf(stderr,
            "flight-event count %llu != modelled %llu; update the "
            "telemetry op model in MeasureTelemetryOpsPerCommit\n",
            static_cast<unsigned long long>(recorded),
            static_cast<unsigned long long>(expected_events));
    return 1;
  }
  if (bare.metrics.counter("tenant/t1/commit.count") != 0) {
    fprintf(stderr, "bare configuration unexpectedly recorded\n");
    return 1;
  }

  if (!bare.server->Stop().ok() || !full.server->Stop().ok()) {
    fprintf(stderr, "server stop failed\n");
    return 1;
  }
  bare.server.reset();
  full.server.reset();
  std::error_code ec;
  fs::remove_all(root, ec);

  const double ops_seconds = MeasureTelemetryOpsPerCommit();
  const double e2e_overhead = full_min / bare_min - 1.0;
  const double overhead = ops_seconds / bare_min;
  const bool pass = ops_seconds <= bare_min * kMaxOverhead;

  char json[640];
  snprintf(json, sizeof(json),
           "{\"workload\":\"serve-sync-commits\",\"build_type\":\"%s\","
           "\"commits\":%zu,\"trials\":%d,"
           "\"bare_min_commit_seconds\":%.9f,"
           "\"telemetry_min_commit_seconds\":%.9f,"
           "\"e2e_overhead\":%.6f,"
           "\"telemetry_ops_seconds\":%.9f,"
           "\"overhead\":%.6f,\"budget\":%.6f,\"pass\":%s}\n",
           build_type, kCommits, kTrials, bare_min, full_min, e2e_overhead,
           ops_seconds, overhead, kMaxOverhead, pass ? "true" : "false");
  FILE* f = fopen(out_path, "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  fputs(json, f);
  fclose(f);
  fputs(json, stdout);
  if (!pass) {
    fprintf(stderr,
            "disabled-telemetry overhead %.2f%% exceeds the %.0f%% "
            "budget\n",
            overhead * 100.0, kMaxOverhead * 100.0);
    return 1;
  }
  return 0;
}
