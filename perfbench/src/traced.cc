// The traced run: per-layer metrics. It replays each workload's inputs
// through a standalone composition of the layers' public classes (gate
// keeper, hot-result cache, sharded rule and attribute classifiers,
// voting master, ensemble members, filter), built from the pipeline's own
// shard snapshots and the same training data, and records a span around
// every call into a layer. Serving-layer numbers come from
// RuleServer::stats() and from timing the wire codecs on the run's own
// frames; storage numbers from a standalone WAL and an unjournaled
// repository applying the run's own edits.
//
// Everything here calls layer APIs directly, so an API refactor can break
// this file alone; the untraced run (workloads.cc) uses only the stable
// entry points.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>

#include "harness.h"
#include "src/chimera/gate_keeper.h"
#include "src/chimera/voting.h"
#include "src/common/binary_codec.h"
#include "src/common/hash.h"
#include "src/common/string_util.h"
#include "src/common/thread_pool.h"
#include "src/engine/hot_cache.h"
#include "src/engine/rule_classifier.h"
#include "src/engine/sharded_classifier.h"
#include "src/ml/ensemble.h"
#include "src/ml/features.h"
#include "src/ml/knn.h"
#include "src/ml/logreg.h"
#include "src/ml/naive_bayes.h"
#include "src/serving/server.h"
#include "src/serving/wire.h"
#include "src/storage/codec.h"
#include "src/storage/rule_store.h"
#include "src/storage/wal.h"

namespace perfbench {
namespace {

// ---- spans -----------------------------------------------------------------------

constexpr uint32_t kNoSpan = UINT32_MAX;

struct Span {
  std::string name;
  uint32_t parent = kNoSpan;
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log. Spans nest through a per-thread current span;
/// work fanned out to a thread pool names its parent explicitly.
class Tracer {
 public:
  uint32_t Begin(std::string name, uint64_t request) {
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), current_, request, now, 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t id) {
    const int64_t now = Now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id].end_ns = now;
  }

  /// Per name: total span time, self time (span minus the union of its
  /// children's intervals) and span count, in microseconds.
  struct Totals {
    double total_us = 0;
    double self_us = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
  }

  /// Writes every span as one JSON line.
  void Write(const std::string& path) const;

  static thread_local uint32_t current_;

 private:
  static int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
  }
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

thread_local uint32_t Tracer::current_ = kNoSpan;

std::map<std::string, Tracer::Totals> Tracer::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<uint32_t>> children(spans_.size());
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != kNoSpan) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, Totals> out;
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::vector<std::pair<int64_t, int64_t>> kids;
    for (uint32_t c : children[i]) {
      kids.push_back({std::max(spans_[c].start_ns, s.start_ns),
                      std::min(spans_[c].end_ns, s.end_ns)});
    }
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0, reach = s.start_ns;
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    Totals& t = out[s.name];
    t.total_us += static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    t.self_us += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e3;
    ++t.count;
  }
  return out;
}

void Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (uint32_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name << "\", \"parent\": "
        << (s.parent == kNoSpan ? -1 : static_cast<int64_t>(s.parent))
        << ", \"request\": " << s.request << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

/// A span over a scope; children opened on this thread nest under it.
class Scoped {
 public:
  Scoped(Tracer& tracer, std::string name, uint64_t request = 0)
      : tracer_(tracer), id_(tracer.Begin(std::move(name), request)),
        saved_(Tracer::current_) {
    Tracer::current_ = id_;
  }
  ~Scoped() {
    Tracer::current_ = saved_;
    tracer_.End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint32_t id_;
  uint32_t saved_;
};

/// Names the parent of spans opened on a pool thread.
class ParentScope {
 public:
  explicit ParentScope(uint32_t parent) : saved_(Tracer::current_) {
    Tracer::current_ = parent;
  }
  ~ParentScope() { Tracer::current_ = saved_; }
  ParentScope(const ParentScope&) = delete;
  ParentScope& operator=(const ParentScope&) = delete;

 private:
  uint32_t saved_;
};

/// A classifier decorator that spans each call into the member it wraps.
/// With `per_item`, batch prediction runs the member item by item (the
/// default Classifier::PredictBatch shape, which is how the ensemble
/// runs) so every item gets its own span.
class Timed : public rk::ml::Classifier {
 public:
  Timed(std::shared_ptr<rk::ml::Classifier> inner, std::string span,
        Tracer& tracer, bool per_item)
      : inner_(std::move(inner)), span_(std::move(span)), tracer_(tracer),
        per_item_(per_item) {}

  std::vector<rk::ml::ScoredLabel> Predict(
      const rk::data::ProductItem& item) const override {
    Scoped s(tracer_, span_);
    return inner_->Predict(item);
  }

  std::vector<std::vector<rk::ml::ScoredLabel>> PredictBatch(
      const std::vector<const rk::data::ProductItem*>& items,
      rk::ThreadPool* pool) const override {
    Scoped batch(tracer_, span_ + ".batch");
    if (!per_item_) return inner_->PredictBatch(items, pool);
    std::vector<std::vector<rk::ml::ScoredLabel>> out(items.size());
    const uint32_t parent = batch.id();
    auto run = [&](size_t begin, size_t end) {
      ParentScope scope(parent);
      for (size_t i = begin; i < end; ++i) out[i] = Predict(*items[i]);
    };
    if (pool != nullptr && items.size() > 1) {
      pool->ParallelFor(items.size(), run);
    } else {
      run(0, items.size());
    }
    return out;
  }

  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<rk::ml::Classifier> inner_;
  std::string span_;
  Tracer& tracer_;
  bool per_item_;
};

// ---- the standalone composition ----------------------------------------------------

/// The learning ensemble trained exactly as the pipeline trains it: one
/// shared feature extractor, naive Bayes, kNN (k = 7) and logistic
/// regression, trained in that order on the same data.
struct Learners {
  std::shared_ptr<rk::ml::FeatureExtractor> features;
  std::shared_ptr<rk::ml::Classifier> ensemble;  // Timed, per item
};

Learners Train(const std::vector<rk::data::LabeledItem>& data, Tracer& tracer) {
  Learners out;
  out.features = std::make_shared<rk::ml::FeatureExtractor>();
  auto nb = std::make_shared<rk::ml::NaiveBayesClassifier>(out.features);
  nb->Train(data);
  auto knn = std::make_shared<rk::ml::KnnClassifier>(out.features, 7);
  knn->Train(data);
  auto logreg = std::make_shared<rk::ml::LogRegClassifier>(out.features);
  logreg->Train(data);
  auto ensemble = std::make_shared<rk::ml::EnsembleClassifier>();
  ensemble->AddMember(std::make_shared<Timed>(nb, "ml.naive_bayes", tracer, false));
  ensemble->AddMember(std::make_shared<Timed>(knn, "ml.knn", tracer, false));
  ensemble->AddMember(std::make_shared<Timed>(logreg, "ml.logreg", tracer, false));
  out.ensemble = std::make_shared<Timed>(ensemble, "ml.ensemble", tracer, true);
  return out;
}

/// Gate -> hot cache -> sharded rule match -> scoring -> voting ->
/// filter -> cache record, for the default tenant's view of one
/// pipeline, from the pipeline's shard snapshots. Mirrors the staged
/// batch path of ChimeraPipeline::Classify; the outputs must be equal.
class Replica {
 public:
  Replica(rk::chimera::ChimeraPipeline& pipeline,
          std::shared_ptr<rk::ml::Classifier> ensemble, Tracer& tracer,
          rk::ThreadPool* pool)
      : pipeline_(pipeline), ensemble_(std::move(ensemble)), tracer_(tracer),
        pool_(pool) {
    const size_t shards = pipeline.repository().shard_count();
    servings_.resize(shards);
    std::vector<rk::rules::ShardKey> all;
    for (size_t i = 0; i < shards; ++i) {
      all.push_back(rk::rules::ShardKey(static_cast<uint32_t>(i)));
    }
    Refresh(all);
  }

  /// Rebuilds the given shards' classifiers and filter from the
  /// repository's current shard snapshots and recomposes the view.
  void Refresh(const std::vector<rk::rules::ShardKey>& keys) {
    {
      Scoped s(tracer_, "chimera.republish");
      for (rk::rules::ShardKey key : keys) {
        rk::rules::ShardSnapshot snap =
            pipeline_.repository().ShardSnapshotOf(key);
        std::shared_ptr<const rk::rules::RuleSet> rules = snap.rules;
        bool foreign = false;
        for (const auto& rule : rules->rules()) {
          foreign |= !rule.metadata().tenant.empty();
        }
        if (foreign) {  // the default view serves the shared rules only
          auto shared = std::make_shared<rk::rules::RuleSet>();
          for (const auto& rule : rules->rules()) {
            if (rule.metadata().tenant.empty()) (void)shared->Add(rule);
          }
          rules = std::move(shared);
        }
        Serving& serving = servings_[key.index()];
        auto it = snap.tenant_versions.find("");
        serving.version = it == snap.tenant_versions.end() ? 0 : it->second;
        serving.rules = rules;
        serving.rule = std::make_shared<rk::engine::RuleBasedClassifier>(rules);
        serving.attr = std::make_shared<rk::engine::AttrValueClassifier>(rules);
        serving.filter = std::make_shared<rk::chimera::Filter>(rules);
      }
    }
    std::vector<std::shared_ptr<const rk::engine::RuleBasedClassifier>> r;
    std::vector<std::shared_ptr<const rk::engine::AttrValueClassifier>> a;
    std::vector<std::shared_ptr<const rk::chimera::Filter>> f;
    uint64_t fingerprint = 0;
    for (const Serving& serving : servings_) {
      r.push_back(serving.rule);
      a.push_back(serving.attr);
      f.push_back(serving.filter);
      fingerprint = rk::HashCombine(fingerprint, serving.version);
    }
    tag_ = {fingerprint, 0};
    rules_ = std::make_shared<rk::engine::ShardedRuleClassifier>(std::move(r));
    filter_ = std::make_shared<rk::chimera::ShardedFilter>(std::move(f));
    const auto& config = pipeline_.config();
    voting_ = std::make_shared<rk::chimera::VotingMaster>(config.voting);
    voting_->AddMember(rules_, config.rule_weight);
    voting_->AddMember(
        std::make_shared<Timed>(
            std::make_shared<rk::engine::ShardedAttrValueClassifier>(std::move(a)),
            "engine.attr", tracer_, false),
        config.attr_weight);
    if (config.use_learning && ensemble_ != nullptr) {
      voting_->AddMember(ensemble_, config.learning_weight);
    }
  }

  std::vector<std::optional<std::string>> Classify(
      std::span<const rk::data::ProductItem> items, const std::string& tenant,
      uint64_t request) {
    Scoped root(tracer_, "chimera.classify", request);
    const size_t n = items.size();
    std::vector<std::optional<std::string>> out(n);
    rk::engine::HotResultCache* cache = CacheFor(tenant);
    auto memo = pipeline_.gate_keeper().snapshot();
    const auto& suppressed = pipeline_.suppressed_types();

    std::vector<std::string> lowered(n);
    std::vector<uint8_t> pass(n, 0);
    {
      Scoped s(tracer_, "chimera.gate");
      for (size_t i = 0; i < n; ++i) {
        lowered[i] = rk::ToLowerAscii(items[i].title);
        auto d = rk::chimera::GateKeeper::DecideLowered(*memo, items[i], lowered[i]);
        if (d.kind == rk::chimera::GateDecision::Kind::kPass) {
          pass[i] = 1;
        } else if (d.kind == rk::chimera::GateDecision::Kind::kClassified &&
                   suppressed.count(d.type) == 0) {
          out[i] = std::move(d.type);
        }
      }
      counts_.gate_items += n;
    }
    if (cache != nullptr) {
      Scoped s(tracer_, "engine.hot_cache.lookup");
      for (size_t i = 0; i < n; ++i) {
        if (!pass[i]) continue;
        ++counts_.lookups;
        rk::engine::CacheLookup hit = cache->Lookup(lowered[i], tag_);
        if (hit.hit) {
          pass[i] = 0;
          out[i] = std::move(hit.type);
        }
      }
    }
    std::vector<size_t> idx;
    std::vector<const rk::data::ProductItem*> ptrs;
    for (size_t i = 0; i < n; ++i) {
      if (!pass[i]) continue;
      idx.push_back(i);
      ptrs.push_back(&items[i]);
    }
    if (ptrs.empty()) return out;
    counts_.pass_items += ptrs.size();

    rk::engine::ShardedExecution exec;
    {
      Scoped s(tracer_, "engine.rules.match");
      exec = rules_->MatchBatch(ptrs, pool_);
    }
    counts_.evaluations += exec.total_evaluations();
    std::vector<std::vector<rk::ml::ScoredLabel>> scored(ptrs.size());
    {
      Scoped s(tracer_, "engine.rules.score");
      auto run = [&](size_t begin, size_t end) {
        for (size_t j = begin; j < end; ++j) scored[j] = rules_->ScoreMatches(exec, j);
      };
      if (pool_ != nullptr && ptrs.size() > 1) {
        pool_->ParallelFor(ptrs.size(), run);
      } else {
        run(0, ptrs.size());
      }
    }
    std::vector<std::optional<rk::ml::ScoredLabel>> votes;
    {
      Scoped s(tracer_, "chimera.voting");
      votes = voting_->VoteBatch(ptrs, pool_, rules_.get(), &scored);
    }
    std::vector<size_t> winners;
    {
      Scoped s(tracer_, "chimera.filter");
      for (size_t j = 0; j < ptrs.size(); ++j) {
        if (!votes[j].has_value()) continue;
        const std::string& label = votes[j]->label;
        if (suppressed.count(label)) continue;
        if (!filter_->AdmitWithMatches(*ptrs[j], label, exec, j)) continue;
        out[idx[j]] = label;
        winners.push_back(j);
      }
    }
    if (cache != nullptr) {
      Scoped s(tracer_, "engine.hot_cache.record");
      for (size_t j : winners) {
        (void)cache->Record(lowered[idx[j]], votes[j]->label, tag_);
      }
      counts_.records += winners.size();
    }
    return out;
  }

  struct Counts {
    uint64_t gate_items = 0;
    uint64_t lookups = 0;
    uint64_t pass_items = 0;
    uint64_t evaluations = 0;
    uint64_t records = 0;
  };
  const Counts& counts() const { return counts_; }
  void ResetCounts() { counts_ = {}; }

  /// The shared rules of every shard in one set (the one-shard layout).
  std::shared_ptr<rk::rules::RuleSet> MergedRules() const {
    auto merged = std::make_shared<rk::rules::RuleSet>();
    for (const Serving& serving : servings_) {
      for (const auto& rule : serving.rules->rules()) (void)merged->Add(rule);
    }
    return merged;
  }
  const rk::engine::ShardedRuleClassifier& rules() const { return *rules_; }

 private:
  struct Serving {
    uint64_t version = 0;
    std::shared_ptr<const rk::rules::RuleSet> rules;
    std::shared_ptr<const rk::engine::RuleBasedClassifier> rule;
    std::shared_ptr<const rk::engine::AttrValueClassifier> attr;
    std::shared_ptr<const rk::chimera::Filter> filter;
  };

  rk::engine::HotResultCache* CacheFor(const std::string& tenant) {
    const auto& config = pipeline_.config().hot_cache;
    if (!config.enabled || config.capacity == 0) return nullptr;
    auto& cache = caches_[tenant];
    if (cache == nullptr) cache = std::make_unique<rk::engine::HotResultCache>(config);
    return cache.get();
  }

  rk::chimera::ChimeraPipeline& pipeline_;
  std::shared_ptr<rk::ml::Classifier> ensemble_;
  Tracer& tracer_;
  rk::ThreadPool* pool_;
  std::vector<Serving> servings_;
  std::shared_ptr<rk::engine::ShardedRuleClassifier> rules_;
  std::shared_ptr<rk::chimera::ShardedFilter> filter_;
  std::shared_ptr<rk::chimera::VotingMaster> voting_;
  rk::engine::VersionTag tag_;
  std::map<std::string, std::unique_ptr<rk::engine::HotResultCache>> caches_;
  Counts counts_;
};

// ---- per-layer metrics ------------------------------------------------------------

/// Every per-layer metric, zero until a workload measures it (a layer
/// that does no work on a workload reads 0 there).
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"serving.queue_wait_us.p50", "us"},
      {"serving.queue_wait_us.p99", "us"},
      {"serving.server_us.p50", "us"},
      {"serving.server_us.p99", "us"},
      {"serving.transport_us.p50", "us"},
      {"serving.batch_size.mean", "count"},
      {"serving.client_send_us.p50", "us"},
      {"serving.wire_decode_us", "us"},
      {"serving.wire_encode_us", "us"},
      {"serving.rate_limit_rejects", "count"},
      {"serving.queue_full_rejects", "count"},
      {"serving.deadline_sheds", "count"},
      {"load.lateness_us.p99", "us"},
      {"chimera.gate_us_per_item", "us"},
      {"chimera.voting_self_us_per_item", "us"},
      {"chimera.filter_us_per_item", "us"},
      {"chimera.classify_us_per_request", "us"},
      {"chimera.republish_ms", "ms"},
      {"engine.hot_cache.lookup_us_per_item", "us"},
      {"engine.hot_cache.record_us_per_item", "us"},
      {"engine.hot_cache.hit_ratio", "share"},
      {"engine.hot_cache.stale_drop_ratio", "share"},
      {"engine.rules.match_us_per_item", "us"},
      {"engine.rules.match_us_per_item_1shard", "us"},
      {"engine.rules.evaluations_per_item", "count"},
      {"engine.rules.score_us_per_item", "us"},
      {"engine.attr_us_per_item", "us"},
      {"ml.features_us_per_item", "us"},
      {"ml.knn_us_per_item", "us"},
      {"ml.naive_bayes_us_per_item", "us"},
      {"ml.logreg_us_per_item", "us"},
      {"ml.ensemble_self_us_per_item", "us"},
      {"ml.knn_share", "share"},
      {"ml.training_docs", "count"},
      {"ml.training_ms", "ms"},
      {"rules.txn_us", "us"},
      {"storage.wal_append_us", "us"},
      {"storage.wal_bytes_per_commit", "B"},
      {"storage.compactions", "count"},
      {"storage.recovery_records_per_s", "1/s"},
      {"trace.replica_mismatches", "count"},
      {"trace.untraced_batch_ms", "ms"},
      {"trace.traced_batch_ms", "ms"},
      {"trace.overhead_share", "share"},
      {"trace.accounted_share", "share"},
  };
  return kMetrics;
}

class LayerReport {
 public:
  explicit LayerReport(Report& report) : report_(report) {
    for (const auto& [name, unit] : LayerMetrics()) values_[name] = 0.0;
  }
  void Set(const std::string& name, double value) {
    if (values_.count(name) == 0) {
      std::fprintf(stderr, "perfbench: undeclared layer metric %s\n", name.c_str());
      std::exit(1);
    }
    values_[name] = value;
  }
  void Emit() {
    for (const auto& [name, unit] : LayerMetrics()) {
      report_.Set(name, values_[name], unit);
    }
  }

 private:
  Report& report_;
  std::map<std::string, double> values_;
};

double PerItem(double us, uint64_t items) {
  return items == 0 ? 0.0 : us / static_cast<double>(items);
}

/// The classify-path layer metrics from the replica's spans, plus the
/// breakdown table on stderr.
void ReplicaMetrics(const Tracer& tracer, const Replica& replica,
                    double untraced_batch_ms, LayerReport& layers) {
  auto totals = tracer.Summarize();
  const Replica::Counts& c = replica.counts();
  auto total = [&](const char* name) { return totals[name].total_us; };
  auto self = [&](const char* name) { return totals[name].self_us; };
  layers.Set("chimera.gate_us_per_item", PerItem(total("chimera.gate"), c.gate_items));
  layers.Set("engine.hot_cache.lookup_us_per_item",
             PerItem(total("engine.hot_cache.lookup"), c.lookups));
  layers.Set("engine.hot_cache.record_us_per_item",
             PerItem(total("engine.hot_cache.record"), c.records));
  layers.Set("engine.rules.match_us_per_item",
             PerItem(total("engine.rules.match"), c.pass_items));
  layers.Set("engine.rules.score_us_per_item",
             PerItem(total("engine.rules.score"), c.pass_items));
  layers.Set("engine.rules.evaluations_per_item",
             c.pass_items == 0 ? 0.0
                               : static_cast<double>(c.evaluations) /
                                     static_cast<double>(c.pass_items));
  layers.Set("engine.attr_us_per_item",
             PerItem(total("engine.attr.batch"), c.pass_items));
  layers.Set("chimera.voting_self_us_per_item",
             PerItem(self("chimera.voting"), c.pass_items));
  layers.Set("chimera.filter_us_per_item",
             PerItem(total("chimera.filter"), c.pass_items));
  const double knn = total("ml.knn"), nb = total("ml.naive_bayes"),
               logreg = total("ml.logreg"), ens_self = self("ml.ensemble");
  layers.Set("ml.knn_us_per_item", PerItem(knn, c.pass_items));
  layers.Set("ml.naive_bayes_us_per_item", PerItem(nb, c.pass_items));
  layers.Set("ml.logreg_us_per_item", PerItem(logreg, c.pass_items));
  layers.Set("ml.ensemble_self_us_per_item", PerItem(ens_self, c.pass_items));
  const double learning = knn + nb + logreg + ens_self;
  layers.Set("ml.knn_share", learning > 0 ? knn / learning : 0.0);

  const auto& root = totals["chimera.classify"];
  const double traced_ms = root.count == 0 ? 0.0 : root.total_us / 1e3 / root.count;
  double stages_us = 0;
  for (const char* stage :
       {"chimera.gate", "engine.hot_cache.lookup", "engine.rules.match",
        "engine.rules.score", "chimera.voting", "chimera.filter",
        "engine.hot_cache.record"}) {
    stages_us += total(stage);
  }
  layers.Set("trace.untraced_batch_ms", untraced_batch_ms);
  layers.Set("trace.traced_batch_ms", traced_ms);
  layers.Set("trace.overhead_share",
             untraced_batch_ms > 0 ? traced_ms / untraced_batch_ms - 1.0 : 0.0);
  layers.Set("trace.accounted_share",
             untraced_batch_ms > 0 && root.count > 0
                 ? stages_us / 1e3 / root.count / untraced_batch_ms
                 : 0.0);

  std::fprintf(stderr, "\nlayer breakdown (%llu replica calls, %.3f ms traced vs "
                       "%.3f ms untraced per call)\n",
               static_cast<unsigned long long>(root.count), traced_ms,
               untraced_batch_ms);
  std::fprintf(stderr, "  %-26s %12s %12s %8s\n", "span", "total ms", "self ms",
               "share");
  for (const auto& [name, t] : totals) {
    std::fprintf(stderr, "  %-26s %12.3f %12.3f %7.1f%%\n", name.c_str(),
                 t.total_us / 1e3, t.self_us / 1e3,
                 root.total_us > 0 ? 100.0 * t.self_us / root.total_us : 0.0);
  }
}

std::string TracePath(const Args& args) {
  return args.work_dir + "/trace-" + args.workload + "-" +
         std::to_string(args.seed) + ".jsonl";
}

uint64_t CountMismatches(const std::vector<std::optional<std::string>>& a,
                         const std::vector<std::optional<std::string>>& b) {
  uint64_t n = a.size() == b.size() ? 0 : 1;
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) n += a[i] != b[i];
  return n;
}

/// Times MatchBatch over one shard holding every shared rule, on the
/// given items: the headroom a flattened shard layout could reach.
double OneShardMatchUs(const Replica& replica,
                       const std::vector<std::vector<rk::data::ProductItem>>& batches,
                       rk::ThreadPool* pool) {
  rk::engine::RuleBasedClassifier one(replica.MergedRules());
  double us = 0;
  uint64_t items = 0;
  for (const auto& batch : batches) {
    std::vector<const rk::data::ProductItem*> ptrs;
    for (const auto& item : batch) ptrs.push_back(&item);
    const Clock::time_point t0 = Clock::now();
    auto exec = one.MatchBatch(ptrs, pool);
    us += Micros(Clock::now() - t0);
    items += ptrs.size();
  }
  return PerItem(us, items);
}

void CacheRatios(const rk::chimera::ChimeraPipeline& pipeline, LayerReport& layers) {
  if (pipeline.tenant_caches() == nullptr) return;
  const rk::engine::HotCacheCounters c = pipeline.tenant_caches()->TotalCounters();
  if (c.lookups == 0) return;
  layers.Set("engine.hot_cache.hit_ratio",
             static_cast<double>(c.hits) / static_cast<double>(c.lookups));
  layers.Set("engine.hot_cache.stale_drop_ratio",
             static_cast<double>(c.stale_drops) / static_cast<double>(c.lookups));
}

// ---- catalog_ingest ---------------------------------------------------------------------

void TraceIngest(const Args& args, Report& report, LayerReport& layers) {
  IngestSystem sys = IngestInputs();
  SetUpIngest(sys);
  auto& pipeline = *sys.pipeline;
  Tracer tracer;
  rk::ThreadPool pool(pipeline.config().batch_threads);
  const Clock::time_point trained = Clock::now();
  Learners learners = Train(sys.training, tracer);
  layers.Set("ml.training_ms",
             std::chrono::duration<double, std::milli>(Clock::now() - trained).count());
  Replica replica(pipeline, learners.ensemble, tracer, &pool);
  layers.Set("ml.training_docs", static_cast<double>(sys.training.size()));

  std::unordered_set<std::string> seen;
  for (const auto& labeled : sys.training) seen.insert(rk::ToLowerAscii(labeled.item.title));
  ItemStream stream(*sys.catalog.gen, SubSeed(args.seed, 1), std::move(seen));
  auto next_items = [&] { return ItemsOf(stream.Next(kIngestBatch)); };
  for (int i = 0; i < 2; ++i) {  // warm-up, as in the untraced run
    auto items = next_items();
    (void)ClassifyItems(pipeline, items);
    (void)replica.Classify(items, "", 0);
  }
  tracer.Clear();
  replica.ResetCounts();

  std::vector<double> untraced_ms;
  std::vector<std::vector<rk::data::ProductItem>> sample;
  const Clock::time_point stop =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  uint64_t request = 0;
  uint64_t mismatches = 0;
  while (Clock::now() < stop) {
    auto items = next_items();
    const Clock::time_point t0 = Clock::now();
    auto response = ClassifyItems(pipeline, items);
    untraced_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    auto replayed = replica.Classify(items, "", ++request);
    mismatches += CountMismatches(response.report.predictions, replayed);
    report.attempted += items.size();
    if (sample.size() < 3) sample.push_back(std::move(items));
  }
  report.Fail(mismatches, "replica predictions differ from the pipeline's");
  layers.Set("trace.replica_mismatches", static_cast<double>(mismatches));
  ReplicaMetrics(tracer, replica, Mean(untraced_ms), layers);
  layers.Set("engine.rules.match_us_per_item_1shard",
             OneShardMatchUs(replica, sample, &pool));

  // Feature lookup, once per item (each member repeats it internally).
  double features_us = 0;
  uint64_t featured = 0;
  for (const auto& batch : sample) {
    for (const auto& item : batch) {
      const Clock::time_point t0 = Clock::now();
      auto ids = learners.features->LookupFeatureIds(item);
      features_us += Micros(Clock::now() - t0);
      ++featured;
    }
  }
  layers.Set("ml.features_us_per_item", PerItem(features_us, featured));
  CacheRatios(pipeline, layers);
  report.Record("batch_threads", static_cast<double>(pipeline.config().batch_threads));
  report.Record("traced_batches", static_cast<double>(request));
  tracer.Write(TracePath(args));
}

// ---- serve_steady / serve_noisy_neighbour -------------------------------------------------

void TraceServe(const Args& args, Report& report, LayerReport& layers, bool noisy) {
  ServeSystem sys = ServeInputs();
  SetUpServe(sys);
  rk::serving::RuleServer server(*sys.pipeline, ServeServerConfig(noisy));
  if (!server.Start().ok()) {
    std::fprintf(stderr, "perfbench: server start failed\n");
    std::exit(1);
  }
  (void)RunStreams(server.port(), ServeStreams(SubSeed(args.seed, 99), noisy),
                   sys.items, 1.0);
  const rk::serving::ServerStats before = server.stats();
  std::vector<StreamResult> streams =
      RunStreams(server.port(), ServeStreams(args.seed, noisy), sys.items, args.seconds);
  const rk::serving::ServerStats stats = server.stats();
  server.Stop();

  // Server-side distributions cover the measured window and warm-up
  // alike; the warm-up is 1 s of the same load.
  layers.Set("serving.queue_wait_us.p50", static_cast<double>(stats.queue_wait_us.P50()));
  layers.Set("serving.queue_wait_us.p99", static_cast<double>(stats.queue_wait_us.P99()));
  layers.Set("serving.server_us.p50", static_cast<double>(stats.latency_us.P50()));
  layers.Set("serving.server_us.p99", static_cast<double>(stats.latency_us.P99()));
  layers.Set("serving.batch_size.mean", stats.batch_size.Mean());
  layers.Set("serving.rate_limit_rejects",
             static_cast<double>(stats.rate_limit_rejects - before.rate_limit_rejects));
  layers.Set("serving.queue_full_rejects",
             static_cast<double>(stats.queue_full_rejects - before.queue_full_rejects));
  layers.Set("serving.deadline_sheds",
             static_cast<double>(stats.deadline_sheds - before.deadline_sheds));

  // Client view of the main stream(s): latency from send (not due) time
  // minus the server's admission-to-written time is the transport share.
  const size_t main_streams = noisy ? 1 : streams.size();
  std::vector<double> from_send, send_us, lateness;
  for (size_t s = 0; s < streams.size(); ++s) {
    const StreamResult& stream = streams[s];
    CheckSchedule(stream, report);
    lateness.insert(lateness.end(), stream.lateness_us.begin(), stream.lateness_us.end());
    if (s >= main_streams) continue;
    send_us.insert(send_us.end(), stream.send_us.begin(), stream.send_us.end());
    for (size_t i = 0; i < stream.lateness_us.size(); ++i) {
      if (stream.code[i] != static_cast<uint8_t>(rk::serving::WireCode::kOk)) continue;
      from_send.push_back(stream.latency_us[i] - stream.lateness_us[i]);
    }
  }
  layers.Set("serving.transport_us.p50",
             Median(from_send) - static_cast<double>(stats.latency_us.P50()));
  layers.Set("serving.client_send_us.p50", Median(send_us));
  layers.Set("load.lateness_us.p99", Quantile(lateness, 0.99));

  // The wire codecs on the run's own frames.
  std::vector<std::string> payloads;
  std::vector<rk::serving::WireClassifyResponse> responses;
  for (const StreamResult& stream : streams) {
    for (size_t i = 0; i < stream.sent; ++i) {
      rk::serving::WireClassifyRequest request;
      request.request_id = i + 1;
      request.tenant = stream.spec.tenant;
      request.items.push_back(sys.items[stream.title_index[i]]);
      rk::Encoder enc;
      rk::serving::EncodeRequestPayload(request, enc);
      payloads.push_back(enc.Release());
      rk::serving::WireClassifyResponse response;
      response.request_id = i + 1;
      response.code = static_cast<rk::serving::WireCode>(
          stream.code[i] == 255 ? 0 : stream.code[i]);
      response.total = 1;
      response.predictions.push_back(stream.prediction[i]);
      responses.push_back(std::move(response));
    }
  }
  Clock::time_point t0 = Clock::now();
  uint64_t decoded = 0;
  for (const std::string& payload : payloads) {
    decoded += rk::serving::DecodeRequestPayload(payload).ok();
  }
  layers.Set("serving.wire_decode_us", PerItem(Micros(Clock::now() - t0), payloads.size()));
  report.Fail(payloads.size() - decoded, "own request frames failed to decode");
  t0 = Clock::now();
  size_t bytes = 0;
  for (const auto& response : responses) {
    rk::Encoder enc;
    rk::serving::EncodeResponsePayload(response, enc);
    bytes += enc.size();
  }
  layers.Set("serving.wire_encode_us", PerItem(Micros(Clock::now() - t0), responses.size()));
  report.Record("response_bytes", static_cast<double>(bytes));

  // In-process classify of every served request, one title per call:
  // classify's share of the request latency. Also the output check.
  std::vector<double> classify_us;
  uint64_t mismatches = 0;
  for (size_t s = 0; s < streams.size(); ++s) {
    const StreamResult& stream = streams[s];
    for (size_t i = 0; i < stream.code.size(); ++i) {
      if (stream.code[i] != static_cast<uint8_t>(rk::serving::WireCode::kOk)) continue;
      const rk::data::ProductItem& item = sys.items[stream.title_index[i]];
      const Clock::time_point c0 = Clock::now();
      auto local = ClassifyItems(*sys.pipeline, std::span(&item, 1),
                                 rk::rules::TenantId(stream.spec.tenant));
      if (s < main_streams) classify_us.push_back(Micros(Clock::now() - c0));
      mismatches += local.report.predictions[0] != stream.prediction[i];
      report.attempted += 1;
    }
  }
  layers.Set("chimera.classify_us_per_request", Mean(classify_us));

  // The replica replays every served title in arrival order (streams
  // interleaved by due time) as one-title calls, as the pipeline saw
  // most of them (coalesced batches average close to one request).
  Tracer tracer;
  Replica replica(*sys.pipeline, nullptr, tracer, nullptr);
  std::vector<std::pair<double, std::pair<size_t, size_t>>> order;
  for (size_t s = 0; s < streams.size(); ++s) {
    for (size_t i = 0; i < streams[s].code.size(); ++i) {
      if (streams[s].code[i] != static_cast<uint8_t>(rk::serving::WireCode::kOk)) continue;
      order.push_back({streams[s].due_s[i], {s, i}});
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<double> replica_us;
  uint64_t request = 0;
  for (const auto& [due, at] : order) {
    const StreamResult& stream = streams[at.first];
    const rk::data::ProductItem& item = sys.items[stream.title_index[at.second]];
    auto out = replica.Classify(std::span(&item, 1), stream.spec.tenant, ++request);
    mismatches += out[0] != stream.prediction[at.second];
  }
  report.Fail(mismatches, "served, in-process and replica predictions differ");
  layers.Set("trace.replica_mismatches", static_cast<double>(mismatches));
  ReplicaMetrics(tracer, replica, Mean(classify_us) / 1e3, layers);
  std::vector<std::vector<rk::data::ProductItem>> sample(1);
  for (size_t i = 0; i < std::min<size_t>(order.size(), 2000); ++i) {
    const auto& at = order[i].second;
    sample[0].push_back(sys.items[streams[at.first].title_index[at.second]]);
  }
  layers.Set("engine.rules.match_us_per_item_1shard",
             OneShardMatchUs(replica, sample, nullptr));
  CacheRatios(*sys.pipeline, layers);
  report.Record("requests", static_cast<double>(order.size()));
  tracer.Write(TracePath(args));
}

// ---- edit_churn -------------------------------------------------------------------------

void TraceChurn(const Args& args, Report& report, LayerReport& layers) {
  const std::string dir = args.work_dir + "/edit_churn-store";
  ChurnSystem sys = ChurnInputs(dir);
  const rk::chimera::PipelineConfig config = ChurnConfig(dir);
  rk::storage::StoreOptions options = config.storage;
  options.shard_count = config.rule_shards;
  {
    // Recovery alone: the store replays its log without serving state.
    const Clock::time_point t0 = Clock::now();
    auto store = rk::storage::DurableRuleStore::Open(dir, options);
    const double took = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!store.ok()) {
      report.Fail(1, "store open failed: " + store.status().ToString());
      return;
    }
    layers.Set("storage.recovery_records_per_s",
               static_cast<double>((*store)->recovery_stats().records_replayed) / took);
  }
  SetUpChurn(sys);
  auto& pipeline = *sys.pipeline;
  rk::storage::DurableRuleStore& store = *pipeline.storage();
  const uint64_t wal_bytes0 = store.wal_bytes();
  const uint64_t epoch0 = store.epoch();

  // The same edits on an unjournaled repository holding the same rules,
  // and their commit records on a standalone WAL in the same directory.
  rk::rules::RuleRepository bare(config.rule_shards);
  for (const auto& rules : sys.rules_per_type) {
    (void)bare.Mutate("perfbench", [&](rk::rules::RuleTransaction& txn) -> rk::Status {
      for (const auto& rule : rules) RULEKIT_RETURN_IF_ERROR(txn.Add(rule));
      return rk::Status::OK();
    });
  }
  std::vector<rk::rules::CommitRecord> captured;
  bare.SetJournal([&](const rk::rules::CommitRecord& record) {
    captured.push_back(record);
    return rk::Status::OK();
  });
  auto wal = rk::storage::WriteAheadLog::Open(dir + "/trace-wal", options.fsync_policy);
  if (!wal.ok()) {
    report.Fail(1, "standalone WAL open failed: " + wal.status().ToString());
    return;
  }

  Tracer tracer;
  rk::ThreadPool pool(config.batch_threads > 1 ? config.batch_threads : 1);
  Replica replica(pipeline, nullptr, tracer, config.batch_threads > 1 ? &pool : nullptr);
  ChurnReads reads(sys.items.size(), SubSeed(args.seed, 1));
  auto next_batch = [&] {
    std::vector<rk::data::ProductItem> items;
    for (uint32_t i : reads.Next()) items.push_back(sys.items[i]);
    return items;
  };
  for (int i = 0; i < 3; ++i) {  // warm-up, as in the untraced run
    auto items = next_batch();
    (void)ClassifyItems(pipeline, items);
    (void)replica.Classify(items, "", 0);
  }
  tracer.Clear();
  replica.ResetCounts();

  // Writes and reads interleave deterministically here (a commit, then
  // reads until the next one is due), so the replica can follow every
  // commit and must agree with the pipeline on every batch. Commits fall
  // due on the reader's own clock (its untraced batch time), which keeps
  // the untraced run's ratio of reads to commits, and so its cache hit
  // and stale-drop rates, although tracing and the probes take time.
  const auto edits = ChurnEdits(sys.catalog, args.seed, args.seconds);
  const Clock::time_point start = Clock::now();
  const double period_ms = 1000.0 / kChurnCommitsPerS;
  double reader_ms = 0;
  std::vector<double> commit_ms, txn_us, wal_us, untraced_ms;
  std::vector<std::vector<rk::data::ProductItem>> sample;
  uint64_t mismatches = 0, request = 0;
  size_t e = 0;
  while (Clock::now() - start < std::chrono::duration<double>(args.seconds)) {
    if (e < edits.size() && reader_ms >= static_cast<double>(e) * period_ms) {
      const Edit& edit = edits[e++];
      Clock::time_point t0 = Clock::now();
      report.Fail(!ApplyEdit(pipeline, edit, {}).ok(), "rule commit failed");
      commit_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
      t0 = Clock::now();
      const rk::rules::RuleId id(edit.rule.id());
      (void)bare.Mutate("perfbench-analyst", [&](rk::rules::RuleTransaction& txn) {
        switch (edit.kind) {
          case Edit::Kind::kAdd: return txn.Add(edit.rule);
          case Edit::Kind::kDisable: return txn.Disable(id, "churn");
          case Edit::Kind::kEnable: return txn.Enable(id);
        }
        return rk::Status::OK();
      });
      txn_us.push_back(Micros(Clock::now() - t0));
      if (!captured.empty()) {
        rk::Encoder enc;
        rk::storage::EncodeCommitRecord(captured.back(), enc);
        t0 = Clock::now();
        report.Fail(!wal->Append(enc.data()).ok(), "standalone WAL append failed");
        wal_us.push_back(Micros(Clock::now() - t0));
      }
      replica.Refresh({pipeline.repository().KeyForType(edit.rule.target_type())});
      report.attempted += 1;
      continue;
    }
    auto items = next_batch();
    const Clock::time_point t0 = Clock::now();
    auto response = ClassifyItems(pipeline, items);
    untraced_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
    reader_ms += untraced_ms.back();
    mismatches += CountMismatches(response.report.predictions,
                                  replica.Classify(items, "", ++request));
    report.attempted += items.size();
    if (sample.size() < 3) sample.push_back(std::move(items));
  }
  report.Fail(mismatches, "replica predictions differ from the pipeline's");
  layers.Set("trace.replica_mismatches", static_cast<double>(mismatches));
  ReplicaMetrics(tracer, replica, Mean(untraced_ms), layers);
  auto totals = tracer.Summarize();
  const auto& republish = totals["chimera.republish"];
  layers.Set("chimera.republish_ms",
             republish.count == 0 ? 0.0 : republish.total_us / 1e3 / republish.count);
  layers.Set("engine.rules.match_us_per_item_1shard",
             OneShardMatchUs(replica, sample, config.batch_threads > 1 ? &pool : nullptr));
  layers.Set("rules.txn_us", Median(txn_us));
  layers.Set("storage.wal_append_us", Median(wal_us));
  layers.Set("storage.wal_bytes_per_commit",
             commit_ms.empty() ? 0.0
                               : static_cast<double>(store.wal_bytes() - wal_bytes0) /
                                     static_cast<double>(commit_ms.size()));
  layers.Set("storage.compactions", static_cast<double>(store.epoch() - epoch0));
  CacheRatios(pipeline, layers);
  report.Record("fsync_policy", "every_commit");
  report.Record("commits", static_cast<double>(commit_ms.size()));
  report.Record("commit_p50_ms_traced", Median(commit_ms));
  report.Record("traced_batches", static_cast<double>(request));
  tracer.Write(TracePath(args));
  wal->Close();
  sys.pipeline.reset();
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunTraced(const Args& args, Report& report) {
  LayerReport layers(report);
  if (args.workload == "catalog_ingest") {
    TraceIngest(args, report, layers);
  } else if (args.workload == "serve_steady") {
    TraceServe(args, report, layers, /*noisy=*/false);
  } else if (args.workload == "serve_noisy_neighbour") {
    TraceServe(args, report, layers, /*noisy=*/true);
  } else {
    TraceChurn(args, report, layers);
  }
  layers.Emit();
}

}  // namespace perfbench
