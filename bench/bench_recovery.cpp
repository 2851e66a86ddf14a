// Durability cost and recovery speed for the write-ahead-logged rule
// store (DESIGN.md §5). Three questions, each at the paper's "tens of
// thousands of rules" scale (20K rules, 200 types):
//
//   1. What does journaling add to a rule-management commit?
//      (no store vs kInterval vs kEveryCommit fsync)
//   2. How fast does WAL replay rebuild the repository after a crash?
//   3. How much faster is recovery from a compacted snapshot?

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/stopwatch.h"
#include "src/rules/repository.h"
#include "src/rules/rule.h"
#include "src/storage/rule_store.h"

namespace {

using namespace rulekit;
using storage::DurableRuleStore;
using storage::FsyncPolicy;
using storage::StoreOptions;

const size_t kNumRules = rulekit::bench::SmokeN(20000, 800);
constexpr size_t kNumTypes = 200;
constexpr size_t kShards = 8;

namespace fs = std::filesystem;

std::string FreshDir(const std::string& tag) {
  fs::path dir = fs::temp_directory_path() / ("rulekit_bench_" + tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

rules::Rule SyntheticRule(size_t i) {
  return *rules::Rule::Whitelist("syn-" + std::to_string(i),
                                 "prodtok" + std::to_string(i),
                                 "type-" + std::to_string(i % kNumTypes));
}

/// Adds kNumRules rules one commit at a time (the analyst edit path, not
/// a bulk import) and returns milliseconds taken.
double TimeCommits(rules::RuleRepository& repo) {
  Stopwatch watch;
  for (size_t i = 0; i < kNumRules; ++i) {
    Status st = repo.Add(SyntheticRule(i), "bench");
    if (!st.ok()) {
      std::fprintf(stderr, "add failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return watch.ElapsedMillis();
}

struct CommitResult {
  double total_ms = 0;
  double per_commit_us = 0;
};

CommitResult BenchCommits(const char* label, const std::string& dir,
                          FsyncPolicy policy) {
  CommitResult result;
  if (dir.empty()) {
    rules::RuleRepository repo(kShards);
    result.total_ms = TimeCommits(repo);
  } else {
    StoreOptions opts;
    opts.shard_count = kShards;
    opts.fsync_policy = policy;
    opts.compact_wal_bytes = size_t{1} << 30;  // no auto-compaction here
    auto store = DurableRuleStore::Open(dir, opts);
    if (!store.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   store.status().ToString().c_str());
      std::exit(1);
    }
    result.total_ms = TimeCommits(*(*store)->repository());
  }
  result.per_commit_us = result.total_ms * 1000.0 / kNumRules;
  std::printf("  %-28s %9.1f ms total   %7.2f us/commit\n", label,
              result.total_ms, result.per_commit_us);
  return result;
}

}  // namespace

int main() {
  bench::Header("Durable rule store: WAL overhead and crash recovery",
                "Sec 3.3 rule-management layer (durability extension)");
  std::printf("scale: %zu rules, %zu types, %zu shards\n", kNumRules,
              kNumTypes, kShards);

  bench::Section("per-commit WAL append overhead (20K single-op commits)");
  CommitResult in_memory = BenchCommits("in-memory (no store)", "", {});
  std::string interval_dir = FreshDir("interval");
  CommitResult interval =
      BenchCommits("wal, fsync every 64 commits", interval_dir,
                   FsyncPolicy::kInterval);
  std::string every_dir = FreshDir("every");
  CommitResult every = BenchCommits("wal, fsync every commit", every_dir,
                                    FsyncPolicy::kEveryCommit);
  std::printf("  journal overhead: +%.2f us/commit (interval), "
              "+%.2f us/commit (fsync-each)\n",
              interval.per_commit_us - in_memory.per_commit_us,
              every.per_commit_us - in_memory.per_commit_us);
  bench::PaperNote("rules are edited by humans at human rates; even the "
                   "fsync-each policy is invisible next to a rule "
                   "author's think time");

  bench::Section("WAL replay (crash recovery, no snapshot)");
  double wal_ms = 0;
  size_t wal_records = 0;
  {
    Stopwatch watch;
    auto store =
        DurableRuleStore::Open(interval_dir, StoreOptions{.shard_count = kShards});
    if (!store.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    wal_ms = watch.ElapsedMillis();
    wal_records = (*store)->recovery_stats().records_replayed;
    std::printf("  replayed %zu records -> %zu rules in %.1f ms "
                "(%.0f records/s)\n",
                wal_records, (*store)->repository()->rules().size(), wal_ms,
                wal_records / (wal_ms / 1000.0));

    bench::Section("snapshot recovery (after compaction)");
    Status st = (*store)->Compact();
    if (!st.ok()) {
      std::fprintf(stderr, "compact failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }
  double snap_ms = 0;
  {
    Stopwatch watch;
    auto store =
        DurableRuleStore::Open(interval_dir, StoreOptions{.shard_count = kShards});
    if (!store.ok()) {
      std::fprintf(stderr, "snapshot recovery failed: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
    snap_ms = watch.ElapsedMillis();
    std::printf("  recovered %zu rules from snapshot epoch %llu in %.1f ms "
                "(%.1fx faster than replay)\n",
                (*store)->repository()->rules().size(),
                static_cast<unsigned long long>(
                    (*store)->recovery_stats().snapshot_epoch),
                snap_ms, wal_ms / snap_ms);
  }

  fs::remove_all(interval_dir);
  fs::remove_all(every_dir);
  return 0;
}
