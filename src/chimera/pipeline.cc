#include "src/chimera/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <span>

#include "src/common/hash.h"
#include "src/common/string_util.h"

namespace rulekit::chimera {

ChimeraPipeline::ChimeraPipeline(PipelineConfig config)
    : config_(std::move(config)) {
  const size_t shards = config_.rule_shards == 0 ? 1 : config_.rule_shards;
  if (config_.hot_cache.enabled && config_.hot_cache.capacity > 0) {
    caches_ = std::make_unique<engine::TenantCacheSet>(config_.hot_cache);
    for (const auto& [tenant, overrides] : config_.tenants) {
      if (overrides.hot_cache.has_value()) {
        caches_->SetConfig(tenant, *overrides.hot_cache);
      }
    }
  }
  if (!config_.storage_dir.empty()) {
    storage::StoreOptions opts = config_.storage;
    opts.shard_count = shards;
    auto store = storage::DurableRuleStore::Open(config_.storage_dir, opts);
    if (store.ok()) {
      store_ = std::move(store).value();
      repo_ = store_->repository();
    } else {
      storage_status_ = store.status();  // serve in-memory, surface why
    }
  }
  if (repo_ == nullptr) {
    repo_ = std::make_shared<rules::RuleRepository>(shards);
  }
  if (config_.batch_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.batch_threads);
  }
  shard_cache_.resize(repo_->shard_count());
  tenant_runtime_.emplace(std::string(), TenantRuntime{});
  RepublishAll();
  // Started last: the thread's run function touches the members above.
  std::map<std::string, RetrainPolicy> tenant_policies;
  for (const auto& [tenant, overrides] : config_.tenants) {
    if (overrides.retrain.has_value()) {
      tenant_policies[tenant] = *overrides.retrain;
    }
  }
  trainer_ = std::make_unique<BackgroundTrainer>(
      config_.retrain,
      [this](const std::string& tenant, size_t) { return RetrainNow(tenant); },
      std::move(tenant_policies));
}

ChimeraPipeline::~ChimeraPipeline() {
  // Explicit for emphasis (member order already guarantees it): stop the
  // trainer before any other member dies. An in-flight run completes its
  // publish; a queued run is abandoned — nothing trains or publishes
  // after this line.
  trainer_.reset();
}

void ChimeraPipeline::RepublishShards(
    const std::vector<rules::ShardKey>& dirty) {
  // Rebuild stale shards outside every pipeline lock: the index build is
  // the expensive part, and two writers refreshing disjoint shards must
  // be able to run it concurrently.
  std::vector<std::shared_ptr<const ShardServing>> built;
  for (rules::ShardKey key : dirty) {
    uint64_t cached_version = 0;
    bool have_cached = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      const auto& slot = shard_cache_[key.index()];
      if (slot != nullptr) {
        have_cached = true;
        cached_version = slot->rule_version;
      }
    }
    rules::ShardSnapshot shard_snap = repo_->ShardSnapshotOf(key);
    if (have_cached && cached_version >= shard_snap.version) continue;
    if (config_.publish_probe) config_.publish_probe(key.index());
    auto serving = std::make_shared<ShardServing>();
    serving->shard_index = key.index();
    serving->rule_version = shard_snap.version;
    serving->tenant_versions = shard_snap.tenant_versions;
    // Partition the shard's rules by owning tenant, "" always included.
    // The common case — no foreign-tenant rules — builds "" over the
    // pinned set itself, with no copy.
    const auto& shard_rules = shard_snap.rules->rules();
    const bool has_foreign =
        std::any_of(shard_rules.begin(), shard_rules.end(),
                    [](const rules::Rule& rule) {
                      return !rule.metadata().tenant.empty();
                    });
    const auto add_partition =
        [&](const std::string& tenant,
            std::shared_ptr<const rules::RuleSet> set) {
          ShardServing::TenantPartition partition;
          partition.rule_classifier =
              std::make_shared<engine::RuleBasedClassifier>(
                  set, engine::RuleClassifierOptions{
                           .index_sample = config_.index_sample_titles});
          partition.attr_classifier =
              std::make_shared<engine::AttrValueClassifier>(set);
          partition.filter = std::make_shared<Filter>(set);
          serving->partitions.emplace(tenant, std::move(partition));
        };
    if (has_foreign) {
      std::map<std::string, std::shared_ptr<rules::RuleSet>> owned;
      owned.emplace(std::string(), std::make_shared<rules::RuleSet>());
      for (const rules::Rule& rule : shard_rules) {
        auto& set = owned[rule.metadata().tenant];
        if (set == nullptr) set = std::make_shared<rules::RuleSet>();
        (void)set->Add(rule);
      }
      for (auto& [tenant, set] : owned) add_partition(tenant, std::move(set));
    } else {
      add_partition(std::string(), shard_snap.rules);
    }
    built.push_back(std::move(serving));
  }

  std::lock_guard<std::mutex> lock(state_mu_);
  for (auto& serving : built) {
    auto& slot = shard_cache_[serving->shard_index];
    // A concurrent writer may have installed a newer build; never regress.
    if (slot == nullptr || serving->rule_version > slot->rule_version) {
      slot = std::move(serving);
    }
  }
  ComposeAndSwapLocked();
}

void ChimeraPipeline::RepublishAll() {
  std::vector<rules::ShardKey> all;
  all.reserve(repo_->shard_count());
  for (size_t i = 0; i < repo_->shard_count(); ++i) {
    all.push_back(rules::ShardKey(static_cast<uint32_t>(i)));
  }
  RepublishShards(all);
}

void ChimeraPipeline::ComposeAndSwapLocked() {
  const auto tenant_version_of = [](const ShardServing& serving,
                                    const std::string& tenant) -> uint64_t {
    auto it = serving.tenant_versions.find(tenant);
    return it == serving.tenant_versions.end() ? 0 : it->second;
  };
  const TenantRuntime& shared = tenant_runtime_.at("");

  // One view per tenant with runtime state ("" always) or rules.
  std::set<std::string> view_tenants;
  for (const auto& [tenant, runtime] : tenant_runtime_) {
    view_tenants.insert(tenant);
  }
  for (const auto& serving : shard_cache_) {
    for (const auto& [tenant, partition] : serving->partitions) {
      view_tenants.insert(tenant);
    }
  }

  auto snap = std::make_shared<PipelineSnapshot>();
  for (const std::string& tenant : view_tenants) {
    // Every shard's "" partition first, then the tenant's own partitions;
    // classifier and filter share one positional order, so the batch
    // executors' per-shard results line up.
    std::vector<std::shared_ptr<const engine::RuleBasedClassifier>> rules_v;
    std::vector<std::shared_ptr<const engine::AttrValueClassifier>> attrs_v;
    std::vector<std::shared_ptr<const Filter>> filters_v;
    const auto stack = [&](const ShardServing::TenantPartition& partition) {
      rules_v.push_back(partition.rule_classifier);
      attrs_v.push_back(partition.attr_classifier);
      filters_v.push_back(partition.filter);
    };
    // Seeded with the view's key, so a tenant's own view never shares a
    // tag with the "" view it served through before it had state: the
    // winners it cached then must drop once its own rules, suppressions
    // or ensemble apply, even when every counter happens to agree.
    uint64_t fingerprint = HashBytes(tenant);
    for (const auto& serving : shard_cache_) {
      stack(serving->partitions.at(""));
      // Order-sensitive (shard index is implicit in iteration order), and
      // pairs the shared counter with the tenant's own: a shared-rule
      // commit re-tags every tenant's view, a tenant-rule commit re-tags
      // only that tenant's.
      fingerprint = HashCombine(fingerprint, tenant_version_of(*serving, ""));
      fingerprint =
          HashCombine(fingerprint, tenant_version_of(*serving, tenant));
    }
    if (!tenant.empty()) {
      for (const auto& serving : shard_cache_) {
        auto it = serving->partitions.find(tenant);
        if (it != serving->partitions.end()) stack(it->second);
      }
    }

    PipelineSnapshot::TenantView view;
    view.rule_classifier =
        std::make_shared<engine::ShardedRuleClassifier>(std::move(rules_v));
    view.attr_classifier =
        std::make_shared<engine::ShardedAttrValueClassifier>(
            std::move(attrs_v));
    view.filter = std::make_shared<ShardedFilter>(std::move(filters_v));
    view.suppressed = shared.suppressed;
    uint64_t tenant_gen = 0;
    auto rt = tenant_runtime_.find(tenant);
    if (rt != tenant_runtime_.end()) {
      view.ensemble = rt->second.ensemble;
      view.suppressed.insert(rt->second.suppressed.begin(),
                             rt->second.suppressed.end());
      tenant_gen = rt->second.semantic_gen;
    }
    if (view.ensemble == nullptr) view.ensemble = shared.ensemble;
    view.tag = {fingerprint, HashCombine(shared.semantic_gen, tenant_gen)};
    auto voting = std::make_shared<VotingMaster>(config_.voting);
    if (config_.use_rules) {
      voting->AddMember(view.rule_classifier, config_.rule_weight);
      voting->AddMember(view.attr_classifier, config_.attr_weight);
    }
    if (config_.use_learning && view.ensemble != nullptr) {
      voting->AddMember(view.ensemble, config_.learning_weight);
    }
    view.voting = std::move(voting);
    snap->tenant_views.emplace(tenant, std::move(view));
  }
  snap->semantic_generation = shared.semantic_gen;
  snap->version = ++version_;

  std::lock_guard<std::mutex> lock(snapshot_mu_);
  snapshot_ = std::move(snap);
}

std::shared_ptr<const PipelineSnapshot> ChimeraPipeline::CurrentSnapshot()
    const {
  std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

uint64_t ChimeraPipeline::snapshot_version() const {
  return CurrentSnapshot()->version;
}

Status ChimeraPipeline::AddRules(std::vector<rules::Rule> new_rules,
                                 std::string_view author,
                                 const rules::TenantId& tenant) {
  rules::RuleTransaction txn = repo_->Begin(author, tenant);
  for (auto& rule : new_rules) {
    (void)txn.Add(std::move(rule));
  }
  Status status = txn.Commit();
  // Publish whatever made it in, even on failure part-way through.
  RepublishShards(txn.touched());
  return status;
}

Status ChimeraPipeline::Mutate(
    std::string_view author,
    const std::function<Status(rules::RuleTransaction&)>& fn,
    const rules::TenantId& tenant) {
  rules::RuleTransaction txn = repo_->Begin(author, tenant);
  Status status = fn(txn);
  if (!status.ok()) return status;  // nothing applied, nothing published
  status = txn.Commit();
  RepublishShards(txn.touched());
  return status;
}

Result<uint64_t> ChimeraPipeline::Checkpoint(std::string_view author) {
  return repo_->Checkpoint(author);
}

Status ChimeraPipeline::RestoreCheckpoint(uint64_t version,
                                          std::string_view author) {
  RULEKIT_RETURN_IF_ERROR(repo_->RestoreCheckpoint(version, author));
  RepublishAll();
  return Status::OK();
}

void ChimeraPipeline::AddTrainingData(std::vector<data::LabeledItem> labeled,
                                      const rules::TenantId& tenant) {
  size_t total = 0;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    std::vector<data::LabeledItem>& pool =
        tenant_runtime_[tenant.value()].training_data;
    pool.insert(pool.end(), std::make_move_iterator(labeled.begin()),
                std::make_move_iterator(labeled.end()));
    total = pool.size();
  }
  // Outside state_mu_: the trainer's and the pipeline's lock domains
  // never nest (see trainer.h). Null only during construction.
  if (trainer_ != nullptr) trainer_->NotifyDataSize(tenant.value(), total);
}

size_t ChimeraPipeline::training_size(const rules::TenantId& tenant) const {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = tenant_runtime_.find(tenant.value());
  return it == tenant_runtime_.end() ? 0 : it->second.training_data.size();
}

std::shared_future<RetrainReport> ChimeraPipeline::RequestRetrain(
    const rules::TenantId& tenant, bool urgent) {
  return trainer_->Request(tenant.value(), urgent);
}

void ChimeraPipeline::RetrainLearning(const rules::TenantId& tenant) {
  RequestRetrain(tenant).wait();
}

RetrainReport ChimeraPipeline::RetrainNow(const std::string& tenant) {
  // Train against a copied data snapshot, outside every pipeline lock:
  // rule writers and readers proceed while the learners fit. Fresh
  // extractor + learners are the simplest correct retraining story
  // (incremental learners accumulate state across Train calls). Serving
  // keeps voting with the previous ensemble until the publish below.
  RetrainReport report;
  const auto started = std::chrono::steady_clock::now();
  std::vector<data::LabeledItem> data;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = tenant_runtime_.find(tenant);
    if (it != tenant_runtime_.end()) data = it->second.training_data;
  }
  if (data.empty()) {
    report.outcome = RetrainReport::Outcome::kNoTrainingData;
    return report;
  }
  report.trained_on = data.size();
  if (config_.retrain.train_probe) config_.retrain.train_probe();
  auto features = std::make_shared<ml::FeatureExtractor>();
  auto nb = std::make_shared<ml::NaiveBayesClassifier>(features);
  nb->Train(data);
  auto knn = std::make_shared<ml::KnnClassifier>(features, 7);
  knn->Train(data);
  auto logreg = std::make_shared<ml::LogRegClassifier>(features);
  logreg->Train(data);
  auto ensemble = std::make_shared<ml::EnsembleClassifier>();
  ensemble->AddMember(std::move(nb));
  ensemble->AddMember(std::move(knn));
  ensemble->AddMember(std::move(logreg));

  {
    std::lock_guard<std::mutex> lock(state_mu_);
    TenantRuntime& runtime = tenant_runtime_[tenant];
    runtime.ensemble = std::move(ensemble);
    // New ensemble => the tenant's cached voting winners are stale (for
    // "", every tenant voting with the default ensemble's are).
    ++runtime.semantic_gen;
    report.publish_generation = runtime.semantic_gen;
    ComposeAndSwapLocked();
  }
  report.published = true;
  report.outcome = RetrainReport::Outcome::kPublished;
  if (store_ != nullptr) {
    // The new ensemble was trained against the rule state the journal
    // should already hold; flush the WAL so a severed or failing journal
    // is surfaced in the report rather than swallowed. The publish above
    // stands either way (in-memory serving is the emergency lever — same
    // semantics as ScaleDownType's journal failures).
    report.status = store_->Sync();
  }
  report.duration_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - started)
          .count();
  return report;
}

uint64_t ChimeraPipeline::semantic_generation() const {
  return CurrentSnapshot()->semantic_generation;
}

Status ChimeraPipeline::ScaleDownType(const std::string& type,
                                      std::string_view author,
                                      std::string_view reason,
                                      const rules::TenantId& tenant) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    // Even a scale-down that disables no rules (so no shard version
    // moves) must invalidate cached winners of the suppressed type. The
    // default tenant's suppression applies to every view (emergency
    // lever); a tenant's applies to its own view only.
    TenantRuntime& runtime = tenant_runtime_[tenant.value()];
    runtime.suppressed.insert(type);
    ++runtime.semantic_gen;
  }
  auto disabled = repo_->DisableRulesForType(type, author, reason, tenant);
  if (!disabled.ok()) {
    // The disables applied and bumped their shards but (some) could not
    // be journaled; the touched set is unknown, so republish everything
    // and surface the durability failure to the operator.
    RepublishAll();
    return disabled.status();
  }
  std::vector<rules::ShardKey> touched;
  for (const rules::RuleId& id : *disabled) {
    auto shard = repo_->ShardOfRule(id);
    if (!shard.ok()) continue;
    if (std::find(touched.begin(), touched.end(), *shard) == touched.end()) {
      touched.push_back(*shard);
    }
  }
  RepublishShards(touched);  // composes the suppression in even if empty
  return Status::OK();
}

void ChimeraPipeline::ScaleUpType(const std::string& type,
                                  const rules::TenantId& tenant) {
  std::lock_guard<std::mutex> lock(state_mu_);
  auto it = tenant_runtime_.find(tenant.value());
  // Lifting a suppression that is not in place changes no view: keep
  // every cached winner and register no tenant.
  if (it == tenant_runtime_.end() || it->second.suppressed.erase(type) == 0) {
    return;
  }
  ++it->second.semantic_gen;
  ComposeAndSwapLocked();
}

void ChimeraPipeline::Memoize(const std::string& title,
                              const std::string& type) {
  gate_.Memoize(title, type);
}

void ChimeraPipeline::MemoizeAll(
    std::span<const std::pair<std::string, std::string>> pairs) {
  gate_.MemoizeAll(pairs);
}

std::vector<std::string> ChimeraPipeline::Tenants() const {
  std::set<std::string> all;
  all.insert(std::string());  // the default tenant always exists
  for (const rules::TenantId& tenant : repo_->Tenants()) {
    all.insert(tenant.value());
  }
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    for (const auto& [tenant, runtime] : tenant_runtime_) all.insert(tenant);
  }
  if (caches_ != nullptr) {
    for (const std::string& tenant : caches_->ActiveTenants()) {
      all.insert(tenant);
    }
  }
  return {all.begin(), all.end()};  // std::set order: "" sorts first
}

ClassifyResponse ChimeraPipeline::Classify(
    const ClassifyRequest& request) const {
  ClassifyResponse response;
  response.report.total = request.items.size();
  response.report.predictions.assign(request.items.size(), std::nullopt);
  if (request.options.require_durable && !durable()) {
    response.status = Status::Unavailable(
        config_.storage_dir.empty()
            ? "require_durable on an in-memory pipeline (no storage_dir)"
            : "durable journal severed; serving in-memory only");
    return response;
  }
  if (request.deadline.has_value() &&
      std::chrono::steady_clock::now() >= *request.deadline) {
    response.status =
        Status::DeadlineExceeded("deadline passed before classification");
    return response;
  }
  response.report = RunBatch(request.items, request.tenant);
  return response;
}

Status ChimeraPipeline::ApplyReplicated(const rules::CommitRecord& record) {
  return ApplyReplicated(std::span(&record, 1));
}

Status ChimeraPipeline::ApplyReplicated(
    std::span<const rules::CommitRecord> records) {
  if (records.empty()) return Status::OK();
  // Like Mutate, the repository is internally synchronized — no pipeline
  // lock wraps the applies. Replay never fires the journal hook, so a
  // follower with its own mirror WAL never double-writes what the
  // primary already made durable.
  for (const rules::CommitRecord& record : records) {
    RULEKIT_RETURN_IF_ERROR(repo_->Replay(record));
  }
  // One publish for the whole batch: a follower catching up applies at
  // shipping speed, not at snapshot-composition speed.
  RepublishAll();
  return Status::OK();
}

namespace {

/// Runs fn(begin, end) over [0, n), chunked on the pool when available.
void RunChunked(ThreadPool* pool, size_t n,
                const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    fn(0, n);
    return;
  }
  pool->ParallelFor(n, fn);
}

}  // namespace

BatchReport ChimeraPipeline::RunBatch(
    std::span<const data::ProductItem> items,
    const rules::TenantId& tenant) const {
  // Pin one snapshot (and one memo version) for the whole batch: writers
  // may publish new versions while we run, but this batch is classified
  // entirely against the state it started with — every shard at the
  // version the snapshot pinned.
  auto snap = CurrentSnapshot();
  auto memo = gate_.snapshot();
  ThreadPool* pool = pool_.get();
  // Resolve the tenant's serving view and cache partition once for the
  // whole batch.
  const PipelineSnapshot::TenantView& view = snap->ViewFor(tenant.value());
  const engine::ShardedRuleClassifier* rule_classifier =
      view.rule_classifier.get();
  engine::HotResultCache* cache =
      caches_ == nullptr ? nullptr : &caches_->For(tenant.value());

  BatchReport report;
  report.total = items.size();
  report.predictions.assign(items.size(), std::nullopt);
  if (items.empty()) return report;  // ClassifiedFraction() guards total==0

  // ---- Stage 1: gate decisions + hot-cache probes (sharded) --------------
  // The lowered title is computed once per item and reused as the cache
  // key (and later, for classified winners, as the Record key). Cache
  // lookups happen only for items the gate passed; a hit is a voting
  // winner from an earlier batch under the *same* version tag, so it is
  // served exactly as stage 4 would have served it.
  enum : uint8_t {
    kPass = 0, kRejected, kGateClassified, kGateSuppressed, kCacheHit
  };
  std::vector<uint8_t> gate_outcome(items.size(), kPass);
  std::vector<std::string> lowered(items.size());
  std::atomic<size_t> cache_hits{0}, cache_misses{0}, cache_stale{0};
  RunChunked(pool, items.size(), [&](size_t begin, size_t end) {
    size_t hits = 0, misses = 0, stale = 0;
    for (size_t i = begin; i < end; ++i) {
      std::string low = ToLowerAscii(items[i].title);
      GateDecision d = GateKeeper::DecideLowered(*memo, items[i], low);
      if (d.kind == GateDecision::Kind::kRejected) {
        gate_outcome[i] = kRejected;
        continue;
      }
      if (d.kind == GateDecision::Kind::kClassified) {
        if (view.suppressed.count(d.type)) {
          gate_outcome[i] = kGateSuppressed;
        } else {
          gate_outcome[i] = kGateClassified;
          report.predictions[i] = std::move(d.type);
        }
        continue;
      }
      if (cache != nullptr) {
        engine::CacheLookup cached = cache->Lookup(low, view.tag);
        if (cached.hit) {
          gate_outcome[i] = kCacheHit;
          report.predictions[i] = std::move(cached.type);
          ++hits;
          continue;
        }
        ++misses;
        if (cached.stale_dropped) ++stale;
      }
      lowered[i] = std::move(low);
    }
    if (cache != nullptr) {
      cache_hits.fetch_add(hits, std::memory_order_relaxed);
      cache_misses.fetch_add(misses, std::memory_order_relaxed);
      cache_stale.fetch_add(stale, std::memory_order_relaxed);
    }
  });
  report.cache_hits = cache_hits.load();
  report.cache_misses = cache_misses.load();
  report.cache_stale_drops = cache_stale.load();

  std::vector<size_t> pass_idx;
  std::vector<const data::ProductItem*> pass_ptrs;
  std::vector<std::string> pass_lowered;
  for (size_t i = 0; i < items.size(); ++i) {
    switch (gate_outcome[i]) {
      case kRejected: ++report.gate_rejected; break;
      case kGateClassified: ++report.gate_classified; break;
      case kGateSuppressed: ++report.suppressed; break;
      case kCacheHit: ++report.classified; break;
      default:
        pass_idx.push_back(i);
        pass_ptrs.push_back(&items[i]);
        if (cache != nullptr) pass_lowered.push_back(std::move(lowered[i]));
        break;
    }
  }
  if (pass_ptrs.empty()) return report;

  // ---- Stage 2: regex rule matches, once per batch per shard -------------
  engine::ShardedExecution exec = rule_classifier->MatchBatch(pass_ptrs, pool);
  report.rules_executed = exec.total_evaluations();
  report.rule_items = pass_ptrs.size();

  // ---- Stage 3: voting (rule member scored from the stage-2 matches) -----
  std::vector<std::vector<ml::ScoredLabel>> rule_scored;
  const ml::Classifier* precomputed = nullptr;
  if (config_.use_rules) {
    rule_scored.resize(pass_ptrs.size());
    RunChunked(pool, pass_ptrs.size(), [&](size_t begin, size_t end) {
      for (size_t j = begin; j < end; ++j) {
        rule_scored[j] = rule_classifier->ScoreMatches(exec, j);
      }
    });
    precomputed = rule_classifier;
  }
  auto votes =
      view.voting->VoteBatch(pass_ptrs, pool, precomputed, &rule_scored);

  // ---- Stage 4: suppression + filter + accounting ------------------------
  // Per-chunk partial reports, merged in chunk order: counters are sums,
  // predictions are written by disjoint index, so the merged result is
  // identical to the sequential path (and the counter merge never
  // divides — ratios are computed once, by BatchReport, with the
  // total==0 guard).
  struct Partial {
    size_t declined = 0, suppressed = 0, filtered = 0, classified = 0;
    size_t promotions = 0, evictions = 0;
  };
  const size_t n_pass = pass_ptrs.size();
  const size_t chunks =
      pool == nullptr ? 1 : std::min(n_pass, pool->num_threads() * 4);
  const size_t chunk_size = (n_pass + chunks - 1) / chunks;
  std::vector<Partial> partials(chunks);
  auto finalize = [&](Partial& p, size_t begin, size_t end) {
    for (size_t j = begin; j < end; ++j) {
      if (!votes[j].has_value()) {
        ++p.declined;
        continue;
      }
      const std::string& label = votes[j]->label;
      if (view.suppressed.count(label)) {
        ++p.suppressed;
        continue;
      }
      if (!view.filter->AdmitWithMatches(*pass_ptrs[j], label, exec, j)) {
        ++p.filtered;
        continue;
      }
      ++p.classified;
      report.predictions[pass_idx[j]] = label;
      // Offer the confident winner to the cache. Every stage-1 lookup
      // already completed (stage barriers), so records never change what
      // this batch serves — only future batches.
      if (cache != nullptr) {
        engine::CacheRecord rec =
            cache->Record(pass_lowered[j], label, view.tag);
        p.promotions += rec.admitted;
        p.evictions += rec.evicted;
      }
    }
  };
  if (pool == nullptr) {
    finalize(partials[0], 0, n_pass);
  } else {
    TaskGroup group;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = c * chunk_size;
      const size_t end = std::min(n_pass, begin + chunk_size);
      pool->Submit(&group,
                   [&finalize, &partials, c, begin, end] {
                     finalize(partials[c], begin, end);
                   });
    }
    group.Wait();
  }
  for (const Partial& p : partials) {
    report.declined += p.declined;
    report.suppressed += p.suppressed;
    report.filtered += p.filtered;
    report.classified += p.classified;
    report.cache_promotions += p.promotions;
    report.cache_evictions += p.evictions;
  }
  return report;
}

}  // namespace rulekit::chimera
