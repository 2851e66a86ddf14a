// Replication subsystem benchmarks (DESIGN.md "Replication"):
//
//   1. Group commit: commits/s through the WAL at 8 concurrent writers
//      under each fsync policy. The claim under test: kGroup delivers
//      >= 3x the throughput of kEveryCommit while keeping per-commit
//      durability (every Append returns only after its bytes are synced
//      — as part of a leader's batch rather than its own fsync).
//   2. Follower replay lag: a primary commits rule edits at a steady
//      rate while a follower streams and applies them; the follower's
//      ship->apply wall-clock lag is sampled throughout.
//   3. Post-quiesce byte-identity: after the stream drains, the
//      follower's exported repository state must be byte-identical to
//      the primary's.
//
// Loads are sized for a small CI box; the shape (the group-commit ratio,
// lag in single-digit milliseconds, identity == true), not the magnitude,
// is the result.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/chimera/pipeline.h"
#include "src/replication/follower.h"
#include "src/replication/shipper.h"
#include "src/rules/rule.h"
#include "src/storage/codec.h"
#include "src/storage/rule_store.h"
#include "src/storage/wal.h"

namespace {

using namespace rulekit;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

const size_t kWriters = rulekit::bench::SmokeN(8, 2);
const size_t kCommitsPerWriter = rulekit::bench::SmokeN(250, 20);
const size_t kReplicationRounds = rulekit::bench::SmokeN(150, 10);

fs::path ScratchRoot() {
  return fs::temp_directory_path() / "rulekit_bench_repl";
}

fs::path ScratchDir(const std::string& name) {
  fs::path dir = ScratchRoot() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct WalRun {
  double commits_per_s = 0;
  uint64_t syncs = 0;
  uint64_t group_batches = 0;
  uint64_t max_group_batch = 0;
};

WalRun BenchWalPolicy(const char* label, storage::FsyncPolicy policy) {
  const fs::path dir = ScratchDir(std::string("wal_") + label);
  auto wal = storage::WriteAheadLog::Open((dir / "bench.wal").string(),
                                          policy);
  if (!wal.ok()) {
    std::fprintf(stderr, "wal open failed: %s\n",
                 wal.status().ToString().c_str());
    std::exit(1);
  }
  // A realistic commit-record payload size (one rule add, ~200 bytes).
  const std::string payload(200, 'r');
  std::atomic<size_t> failures{0};
  const auto start = Clock::now();
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (size_t i = 0; i < kCommitsPerWriter; ++i) {
        if (!wal->Append(payload).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : writers) t.join();
  const double elapsed = Seconds(start, Clock::now());
  wal->Close();
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu appends failed\n", failures.load());
    std::exit(1);
  }
  WalRun run;
  run.commits_per_s =
      static_cast<double>(kWriters * kCommitsPerWriter) / elapsed;
  run.syncs = wal->sync_count();
  run.group_batches = wal->group_batches();
  run.max_group_batch = wal->max_group_batch();
  std::printf("  %-12s %10.0f commits/s   %6llu fsyncs   %6llu group "
              "batches (max %llu)\n",
              label, run.commits_per_s,
              static_cast<unsigned long long>(run.syncs),
              static_cast<unsigned long long>(run.group_batches),
              static_cast<unsigned long long>(run.max_group_batch));
  return run;
}

std::string StateBytes(const rules::RuleRepository& repo) {
  Encoder enc;
  storage::EncodePersistedState(repo.ExportState(), enc);
  return enc.Release();
}

struct ReplicationRun {
  double commit_rate_per_s = 0;
  double mean_lag_ms = 0;
  double max_lag_ms = 0;
  uint64_t records_applied = 0;
  double quiesce_s = 0;
  bool byte_identical = false;
};

ReplicationRun BenchFollowerLag() {
  const fs::path dir = ScratchDir("primary");
  chimera::PipelineConfig config;
  config.use_learning = false;
  config.storage_dir = dir.string();
  chimera::ChimeraPipeline primary(config);
  if (!primary.storage_status().ok()) {
    std::fprintf(stderr, "primary storage failed: %s\n",
                 primary.storage_status().ToString().c_str());
    std::exit(1);
  }

  replication::LogShipper shipper(*primary.storage(), {});
  if (!shipper.Start().ok()) {
    std::fprintf(stderr, "shipper start failed\n");
    std::exit(1);
  }
  replication::FollowerConfig follower_config;
  follower_config.primary_port = shipper.port();
  follower_config.pipeline.use_learning = false;
  auto follower = replication::ReplicaFollower::Open(follower_config);
  if (!follower.ok()) {
    std::fprintf(stderr, "follower open failed: %s\n",
                 follower.status().ToString().c_str());
    std::exit(1);
  }
  (*follower)->Start();

  // Steady commit stream: one rule add per round, paced so the follower
  // is continuously streaming rather than bursting.
  std::vector<double> lag_samples;
  const auto start = Clock::now();
  for (size_t round = 0; round < kReplicationRounds; ++round) {
    auto rule = rules::Rule::Whitelist(
        "bench-repl-" + std::to_string(round),
        "(benchrepl)[a-z]*" + std::to_string(round), "bench type");
    if (!rule.ok() || !primary.AddRules({*rule}, "bench").ok()) {
      std::fprintf(stderr, "AddRules failed at round %zu\n", round);
      std::exit(1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    lag_samples.push_back((*follower)->stats().last_lag_ms);
  }
  const double commit_elapsed = Seconds(start, Clock::now());

  const auto quiesce_start = Clock::now();
  const bool caught_up = (*follower)->WaitForPosition(
      primary.storage()->position(), std::chrono::seconds(30));
  const double quiesce_s = Seconds(quiesce_start, Clock::now());
  (*follower)->Stop();
  shipper.Stop();

  ReplicationRun run;
  run.commit_rate_per_s =
      static_cast<double>(kReplicationRounds) / commit_elapsed;
  double sum = 0;
  for (double lag : lag_samples) {
    sum += lag;
    if (lag > run.max_lag_ms) run.max_lag_ms = lag;
  }
  run.mean_lag_ms = lag_samples.empty() ? 0 : sum / lag_samples.size();
  run.records_applied = (*follower)->stats().records_applied;
  run.quiesce_s = quiesce_s;
  run.byte_identical =
      caught_up && StateBytes(primary.repository()) ==
                       StateBytes((*follower)->pipeline().repository());
  std::printf("  commit rate      %10.0f commits/s\n", run.commit_rate_per_s);
  std::printf("  replay lag       mean %.2f ms, max %.2f ms\n",
              run.mean_lag_ms, run.max_lag_ms);
  std::printf("  records applied  %llu\n",
              static_cast<unsigned long long>(run.records_applied));
  std::printf("  quiesce          %.3f s\n", run.quiesce_s);
  std::printf("  byte-identical   %s\n", run.byte_identical ? "yes" : "NO");
  return run;
}

}  // namespace

int main() {
  bench::Header(
      "Replication: group commit, log shipping, follower replay lag",
      "the maintenance-layer scale-out story (rules served from "
      "read-only replicas)");

  bench::Section("group commit: 8 writers through one WAL");
  WalRun every = BenchWalPolicy("every", storage::FsyncPolicy::kEveryCommit);
  BenchWalPolicy("interval", storage::FsyncPolicy::kInterval);
  WalRun group = BenchWalPolicy("group", storage::FsyncPolicy::kGroup);
  const double speedup =
      every.commits_per_s > 0 ? group.commits_per_s / every.commits_per_s : 0;
  std::printf("  group vs every   %.1fx  (target >= 3x)\n", speedup);

  bench::Section("follower replay lag (streaming primary -> follower)");
  ReplicationRun repl = BenchFollowerLag();

  fs::remove_all(ScratchRoot());
  return repl.byte_identical ? 0 : 1;
}
