#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Shared pieces of the benchmark: arguments, the result report, sample
// statistics, the workload fixtures (built only from the seed), the
// open-loop load generators, and the rule commit stream. The untraced
// workloads (workloads.cc) and the traced layer run (traced.cc) both
// build on these, so the two runs drive identical inputs.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/chimera/pipeline.h"
#include "src/common/random.h"
#include "src/data/catalog_generator.h"
#include "src/data/product.h"
#include "src/rules/rule.h"
#include "src/serving/server.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
namespace rk = rulekit;

// ---- arguments and report --------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for durable stores and trace files.
  std::string work_dir = ".bench_build/perfbench-work";
  std::string source_digest = "unknown";
  std::string git_sha = "unknown";
};

/// What one run prints: the run record (context for whoever reads the
/// numbers later) and the result line the benchmark contract fixes.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void Record(const std::string& key, const std::string& value);
  void Record(const std::string& key, double value);
  /// A failed output check or operation: counted, and the run is no
  /// longer correct.
  void Fail(uint64_t count, const std::string& why);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  /// Set when the load generator could not keep its schedule: the run
  /// is invalid and prints no result.
  std::string invalid_reason;

  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
};

// ---- statistics ------------------------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);
/// The median, over up to 10 consecutive windows of at least 100 samples
/// (in arrival order), of each window's q-quantile: one stall moves one
/// window, not the estimate. The plain quantile below 200 samples.
double WindowedQuantile(const std::vector<double>& in_order, double q);
double Micros(Clock::duration d);
double PeakRssMb();

/// Samples the resident set size every 50 ms on its own thread while it
/// lives; the median of the samples is the run's steady-state memory
/// (the peak depends on allocator timing and swings a few MB run to run).
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  /// Stops sampling and returns the median in MB.
  double StopMedianMb();

 private:
  std::vector<double> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: started after the members it uses
};
size_t Cores();

// ---- fixtures --------------------------------------------------------------

/// Ground-truth-labelled items plus the rules a simulated analyst wrote
/// for every type of the generated catalog.
struct Catalog {
  std::unique_ptr<rk::data::CatalogGenerator> gen;
  std::vector<std::vector<rk::rules::Rule>> rules_per_type;
  size_t rule_count() const;
};
Catalog MakeCatalog(uint64_t seed, size_t num_types);

/// Items of the catalog's own types, in the generator's type popularity,
/// with the type sequence drawn from a run seed: the catalog (vocabulary,
/// rules, training data) stays fixed while the stream varies by seed.
/// Titles never repeat, nor repeat any title in `seen`.
class ItemStream {
 public:
  ItemStream(rk::data::CatalogGenerator& gen, uint64_t seed,
             std::unordered_set<std::string> seen);
  std::vector<rk::data::LabeledItem> Next(size_t n);

 private:
  rk::data::CatalogGenerator& gen_;
  rk::Rng rng_;
  std::vector<double> weights_;
  std::unordered_set<std::string> seen_;
};

std::vector<rk::data::ProductItem> ItemsOf(
    const std::vector<rk::data::LabeledItem>& labeled);

/// Adds every type's rules through the pipeline, one commit per type.
void LoadRules(rk::chimera::ChimeraPipeline& pipeline, const Catalog& catalog);

/// The paper-scale rule base of edit_churn: the analyst's rules plus
/// qualifier/material/brand x head-noun rules for every type, topped up
/// with long-tail literal rules to `target` rules in total.
std::vector<std::vector<rk::rules::Rule>> PaperScaleRules(
    const Catalog& catalog, size_t target);

/// A seed for one input stream of a run, derived from the run's seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(s) draws over [0, n), from `seed`.
std::vector<uint32_t> ZipfIndices(uint64_t seed, size_t n, size_t count,
                                  double s);

/// precision = correct / classified, coverage = classified / total.
struct Accuracy {
  uint64_t total = 0;
  uint64_t classified = 0;
  uint64_t correct = 0;
  void Add(const std::optional<std::string>& predicted,
           const std::string& label);
  double precision() const;
  double coverage() const;
};

// ---- the rule commit stream ----------------------------------------------------

/// One single-rule edit.
struct Edit {
  enum class Kind { kAdd, kDisable, kEnable } kind = Kind::kAdd;
  rk::rules::Rule rule;  // kAdd; also names the rule of the other kinds
};
rk::Status ApplyEdit(rk::chimera::ChimeraPipeline& pipeline, const Edit& edit,
                     const rk::rules::TenantId& tenant);

/// The edit stream every workload commits: fresh qualifier rules, one
/// per type in the catalog's type order, with seeded words, each added,
/// disabled and re-enabled in turn; enough edits for `seconds` at
/// kChurnCommitsPerS.
std::vector<Edit> ChurnEdits(const Catalog& catalog, uint64_t seed, double seconds);

/// Latencies of an open-loop commit stream, timed from each commit's due
/// time to Mutate returning (journaled, when the pipeline is durable, and
/// published).
struct CommitStats {
  std::vector<double> latency_ms;
  std::vector<double> lateness_us;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double attained_per_s = 0;
};

/// Runs `edits` against the pipeline at `rate_per_s` from `start` until
/// `stop` (or the edits run out) on its own thread. With `spin` the
/// thread busy-waits between commits instead of sleeping, which keeps its
/// CPU awake; only for streams that run beside no other load.
class CommitStream {
 public:
  CommitStream(rk::chimera::ChimeraPipeline& pipeline, std::vector<Edit> edits,
               rk::rules::TenantId tenant, double rate_per_s, bool spin);
  ~CommitStream();
  CommitStream(const CommitStream&) = delete;
  CommitStream& operator=(const CommitStream&) = delete;

  void Start(Clock::time_point start, Clock::time_point stop);
  CommitStats Join();

 private:
  void Run(Clock::time_point start, Clock::time_point stop);

  rk::chimera::ChimeraPipeline& pipeline_;
  const std::vector<Edit> edits_;
  const rk::rules::TenantId tenant_;
  const double rate_per_s_;
  const bool spin_;
  CommitStats stats_;
  std::thread thread_;
};

// ---- the open-loop request generator ------------------------------------------

/// One client connection's open-loop stream: single-title requests due
/// at Poisson arrivals of the given rate (independent users), titles
/// drawn Zipf(1.2) from the pool. A sender thread writes each request at its due time; a receiver
/// thread reads responses and times them from the due time, so a stall
/// also charges the requests queued behind it.
struct StreamSpec {
  std::string tenant;
  double rate_per_s = 0;
  uint64_t seed = 0;
};

struct StreamResult {
  StreamSpec spec;
  std::vector<double> due_s;          // per request, from the start
  std::vector<uint32_t> title_index;  // per request
  std::vector<uint8_t> code;          // per request (WireCode), 255 = none
  std::vector<std::optional<std::string>> prediction;  // per request
  std::vector<double> latency_us;     // per request, from due time
  std::vector<double> lateness_us;    // send time minus due time
  std::vector<double> send_us;        // time inside RuleClient::Send
  uint64_t sent = 0;
  double attained_per_s = 0;
  bool transport_error = false;

  uint64_t ok() const;
  uint64_t refused() const;
};

/// Runs all streams concurrently against the server on `port` for
/// `seconds`, each on its own connection. Blocks until every response
/// arrived.
std::vector<StreamResult> RunStreams(
    uint16_t port, const std::vector<StreamSpec>& specs,
    const std::vector<rk::data::ProductItem>& items, double seconds);

/// Marks the report invalid when a stream fell behind its schedule.
void CheckSchedule(const StreamResult& stream, Report& report);
void CheckSchedule(const CommitStats& commits, double rate_per_s,
                   double seconds, Report& report);

// ---- workload fixtures -------------------------------------------------------

inline constexpr double kZipfS = 1.2;
/// The catalogs are fixtures: their vocabulary, rules, training data and
/// title pools are the same for every run seed (the seed drives the
/// streams and the edits), so seeds measure the system, not the catalog.
inline constexpr uint64_t kIngestFixtureSeed = 2015;
inline constexpr uint64_t kServeFixtureSeed = 20150531;
inline constexpr uint64_t kChurnFixtureSeed = 2015;
/// Set-up repeats at least kMinSetups times and, while the total stays
/// under kSetupBudgetS, up to kMaxSetups times.
inline constexpr size_t kMinSetups = 3;
inline constexpr size_t kMaxSetups = 25;
inline constexpr double kSetupBudgetS = 1.5;
/// edit_churn's commit rate. The in-memory workloads commit the same
/// edit shape at the same rate in a phase of their own after the read
/// window (kCommitPhaseShare of the run), so their reads and commits
/// never contend.
inline constexpr double kChurnCommitsPerS = 20.0;
inline constexpr double kCommitPhaseShare = 0.25;

/// Each workload's system is made in two steps: its inputs, generated
/// once from the seed, and its set-up (pipeline, rules, training, store
/// recovery, server), which RepeatSetup times.

/// catalog_ingest: 48 types, ~192 analyst rules, ensemble trained on 2K
/// items, 2,000-item batches, batch_threads = nproc, hot cache on.
struct IngestSystem {
  Catalog catalog;
  std::vector<rk::data::LabeledItem> training;
  std::unique_ptr<rk::chimera::ChimeraPipeline> pipeline;
};
inline constexpr size_t kIngestTypes = 48;
inline constexpr size_t kIngestTraining = 2000;
inline constexpr size_t kIngestBatch = 2000;
rk::chimera::PipelineConfig IngestConfig();
IngestSystem IngestInputs();
void SetUpIngest(IngestSystem& system);

/// serve_*: rules-only pipeline over 24 types, hot cache of 4,096 over a
/// 4K-title pool.
struct ServeSystem {
  Catalog catalog;
  std::vector<rk::data::LabeledItem> pool;
  std::vector<rk::data::ProductItem> items;  // the pool's items
  std::unique_ptr<rk::chimera::ChimeraPipeline> pipeline;
};
inline constexpr size_t kServeTypes = 24;
inline constexpr size_t kServePool = 4000;
rk::chimera::PipelineConfig ServeConfig();
ServeSystem ServeInputs();
rk::serving::ServerConfig ServeServerConfig(bool noisy);
/// The main stream(s) first: two default-tenant streams of 1,000 req/s,
/// or (noisy) the quiet tenant at 200 req/s and the noisy one at 3,000.
std::vector<StreamSpec> ServeStreams(uint64_t seed, bool noisy);
void SetUpServe(ServeSystem& system);

/// edit_churn: durable store (fsync every commit), ~20K rules over 200
/// types, 8 shards; 1,000-item Zipf batches from an 8K-title pool.
struct ChurnSystem {
  Catalog catalog;
  std::vector<std::vector<rk::rules::Rule>> rules_per_type;
  std::vector<rk::data::LabeledItem> pool;
  std::vector<rk::data::ProductItem> items;
  std::string store_dir;
  std::unique_ptr<rk::chimera::ChimeraPipeline> pipeline;
};
inline constexpr size_t kChurnTypes = 200;
inline constexpr size_t kChurnRules = 20000;
inline constexpr size_t kChurnPool = 8000;
inline constexpr size_t kChurnBatch = 1000;
rk::chimera::PipelineConfig ChurnConfig(const std::string& store_dir);
/// Generates the inputs and writes the analysts' history to a fresh
/// durable store under `store_dir`: one journaled commit per type.
ChurnSystem ChurnInputs(const std::string& store_dir);

/// The edit_churn reader's batches: pool indices drawn Zipf(1.2), in
/// 1,000-item batches, from a run seed.
class ChurnReads {
 public:
  ChurnReads(size_t pool_size, uint64_t seed) : pool_size_(pool_size), rng_(seed) {}
  const std::vector<uint32_t>& Next();

 private:
  size_t pool_size_;
  rk::Rng rng_;
  std::vector<uint32_t> batch_;
};
/// Opens the pipeline on the store, recovering its state.
void SetUpChurn(ChurnSystem& system);

/// Runs teardown() then a timed build() repeatedly (see kMinSetups; the
/// last build is kept) and returns the median build time in seconds.
template <typename Teardown, typename Build>
double RepeatSetup(Teardown teardown, Build build) {
  std::vector<double> times;
  double total = 0;
  while (times.size() < kMinSetups ||
         (times.size() < kMaxSetups && total < kSetupBudgetS)) {
    teardown();
    const auto t0 = Clock::now();
    build();
    times.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    total += times.back();
  }
  return Median(times);
}

/// Classifies `items` in-process through the pipeline's one entry point.
rk::chimera::ClassifyResponse ClassifyItems(
    const rk::chimera::ChimeraPipeline& pipeline,
    std::span<const rk::data::ProductItem> items,
    const rk::rules::TenantId& tenant = {});

// ---- entry points --------------------------------------------------------------

void RunUntraced(const Args& args, Report& report);
void RunTraced(const Args& args, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
