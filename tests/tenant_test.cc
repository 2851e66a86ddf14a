// Tenant isolation guarantees (see DESIGN.md "Multi-tenancy"): one
// tenant's cache partition cannot be evicted or stale-dropped by a noisy
// neighbour, a tenant's rules serve only its own view, cross-tenant rule
// edits are rejected, retrain gating is evaluated per tenant, the
// single-default-tenant pipeline stays byte-identical to the historical
// one, and durable recovery reproduces per-tenant shard versions exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/chimera/monitor.h"
#include "src/chimera/pipeline.h"
#include "src/crowd/estimator.h"
#include "src/data/catalog_generator.h"
#include "src/engine/hot_cache.h"
#include "src/rules/rule_parser.h"
#include "src/storage/codec.h"

#include "tests/classify_shims.h"

namespace rulekit::chimera {
namespace {

namespace fs = std::filesystem;

using rules::TenantId;

data::ProductItem MakeItem(std::string title) {
  data::ProductItem item;
  item.title = std::move(title);
  return item;
}

std::vector<data::ProductItem> Repeated(const std::string& title, size_t n) {
  std::vector<data::ProductItem> items;
  for (size_t i = 0; i < n; ++i) items.push_back(MakeItem(title));
  return items;
}

std::vector<data::LabeledItem> MakeTrainingData(size_t n,
                                                uint64_t seed = 1234) {
  data::GeneratorConfig config;
  config.seed = seed;
  config.num_types = 12;
  data::CatalogGenerator gen(config);
  return gen.GenerateMany(n);
}

void AddRules(ChimeraPipeline& pipeline, const std::string& dsl,
              const TenantId& tenant = {}) {
  auto parsed = rules::ParseRules(dsl);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_TRUE(
      pipeline.AddRules(std::move(parsed).value(), "tenant-test", tenant)
          .ok());
}

/// A pipeline with the hot cache on, first-sight admission, tiny
/// single-stripe partitions — so a flood of admissions measurably evicts.
PipelineConfig CachedConfig(size_t capacity = 64) {
  PipelineConfig config;
  config.use_learning = false;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = capacity;
  config.hot_cache.stripes = 1;
  config.hot_cache.admit_after = 1;
  return config;
}

std::string ScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("rulekit_tenant_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The canonical byte form of a repository's complete persisted state
/// (rules, audit log, per-tenant shard versions) — equality of these
/// strings is the "byte-identical recovery" check.
std::string StateBytes(const rules::RuleRepository& repo) {
  storage::Encoder enc;
  storage::EncodePersistedState(repo.ExportState(), enc);
  return enc.Release();
}

// ---------------------------------------------------- cache partitions --

// A noisy tenant flooding its own partition with first-sight admissions
// cannot evict a quiet tenant's established entries: partitions are
// independently bounded, so the quiet tenant keeps hitting.
TEST(TenantCacheSetTest, NoisyTenantCannotEvictQuietTenantsEntries) {
  engine::HotCacheConfig config;
  config.enabled = true;
  config.capacity = 8;
  config.stripes = 1;
  config.admit_after = 1;
  engine::TenantCacheSet set(config);

  const engine::VersionTag tag{1, 1};
  engine::HotResultCache& quiet = set.For("quiet");
  EXPECT_TRUE(quiet.Record("hot title", "rings", tag).admitted);
  ASSERT_TRUE(quiet.Lookup("hot title", tag).hit);

  engine::HotResultCache& noisy = set.For("noisy");
  for (int i = 0; i < 200; ++i) {
    noisy.Record("flood " + std::to_string(i), "rings", tag);
  }
  EXPECT_LE(noisy.size(), noisy.capacity());
  EXPECT_GT(noisy.TotalCounters().evictions, 0u);

  // The flood stayed inside the noisy partition.
  EXPECT_TRUE(quiet.Lookup("hot title", tag).hit);
  EXPECT_EQ(quiet.TotalCounters().evictions, 0u);

  std::vector<std::string> tenants = set.ActiveTenants();
  ASSERT_EQ(tenants.size(), 3u);
  EXPECT_EQ(tenants[0], "");  // default leads
  EXPECT_EQ(tenants[1], "noisy");
  EXPECT_EQ(tenants[2], "quiet");
}

// PipelineConfig::tenants overrides give one tenant its own cache bounds
// while everyone else inherits the pipeline-wide config.
TEST(TenantPipelineTest, PerTenantCacheConfigOverride) {
  PipelineConfig config = CachedConfig(/*capacity=*/8);
  PipelineConfig::TenantOverrides big;
  big.hot_cache = config.hot_cache;
  big.hot_cache->capacity = 64;
  config.tenants["big"] = big;

  ChimeraPipeline pipeline(config);
  ASSERT_NE(pipeline.tenant_caches(), nullptr);
  EXPECT_EQ(pipeline.tenant_caches()->For("").capacity(), 8u);
  EXPECT_EQ(pipeline.tenant_caches()->For("small").capacity(), 8u);
  EXPECT_EQ(pipeline.tenant_caches()->For("big").capacity(), 64u);
}

// End-to-end eviction isolation: a noisy tenant streams hundreds of
// distinct admitted titles through batch Classify — far past the shared
// capacity — and the quiet tenant's repeats still serve from its cache.
TEST(TenantPipelineTest, QuietTenantHitsSurviveNoisyNeighbourFlood) {
  ChimeraPipeline pipeline(CachedConfig(/*capacity=*/64));
  AddRules(pipeline, "whitelist r1: rings? => rings\n");

  const TenantId quiet("quiet");
  const TenantId noisy("noisy");
  const std::vector<data::ProductItem> hot = Repeated("gold ring", 4);

  ASSERT_GT(RunBatch(pipeline, hot, quiet).cache_promotions, 0u);
  ASSERT_GT(RunBatch(pipeline, hot, quiet).cache_hits, 0u);

  std::vector<data::ProductItem> flood;
  for (int i = 0; i < 300; ++i) {
    flood.push_back(MakeItem("ring " + std::to_string(i)));
  }
  BatchReport noise = RunBatch(pipeline, flood, noisy);
  EXPECT_GT(noise.cache_evictions, 0u);  // the flood overflows *its* bound

  BatchReport after = RunBatch(pipeline, hot, quiet);
  EXPECT_EQ(after.cache_hits, hot.size());
  EXPECT_EQ(after.cache_stale_drops, 0u);
}

// Version-tag isolation: a foreign tenant's rule commit must not
// stale-drop another tenant's (or the default's) cached winners, while a
// shared-rule commit invalidates everyone's.
TEST(TenantPipelineTest, ForeignTenantCommitDoesNotStaleDropCachedWinners) {
  ChimeraPipeline pipeline(CachedConfig());
  AddRules(pipeline, "whitelist r1: rings? => rings\n");

  const TenantId a("a");
  const TenantId b("b");
  const std::vector<data::ProductItem> hot = Repeated("gold ring", 4);

  ASSERT_GT(RunBatch(pipeline, hot, a).cache_promotions, 0u);
  ASSERT_GT(RunBatch(pipeline, hot).cache_promotions, 0u);

  // Tenant b commits a rule of its own: only b's tag moves.
  AddRules(pipeline, "whitelist b1: widgets? => widget\n", b);

  BatchReport for_a = RunBatch(pipeline, hot, a);
  EXPECT_EQ(for_a.cache_hits, hot.size());
  EXPECT_EQ(for_a.cache_stale_drops, 0u);
  BatchReport for_default = RunBatch(pipeline, hot);
  EXPECT_EQ(for_default.cache_hits, hot.size());
  EXPECT_EQ(for_default.cache_stale_drops, 0u);

  // A shared (default-tenant) commit changes the rules every view serves,
  // so every tenant's cached winners must drop on next read.
  AddRules(pipeline, "whitelist r2: necklaces? => necklaces\n");
  EXPECT_GT(RunBatch(pipeline, hot, a).cache_stale_drops, 0u);
  EXPECT_GT(RunBatch(pipeline, hot).cache_stale_drops, 0u);
}

// Which views a non-rule edit re-tags, and which it changes. Scope is the
// default tenant or tenant `a`, which owns a rule and so has a view of its
// own; `b` never has state of its own and serves the default view. A
// default-scope edit reaches every view (the default suppression set and
// ensemble are everyone's); a tenant-scope edit reaches only that
// tenant's.
TEST(TenantPipelineTest, NonRuleEditsReTagExactlyTheViewsTheyChange) {
  enum class Edit { kScaleDown, kScaleUp, kRetrain };
  struct Case {
    const char* name;
    Edit edit;
    TenantId scope;
    std::vector<std::string> changed;  // views whose predictions change
  };
  const std::vector<Case> cases = {
      {"default scale-down", Edit::kScaleDown, TenantId(), {"", "a", "b"}},
      {"tenant scale-down", Edit::kScaleDown, TenantId("a"), {"a"}},
      {"default scale-up", Edit::kScaleUp, TenantId(), {"", "a", "b"}},
      {"tenant scale-up", Edit::kScaleUp, TenantId("a"), {"a"}},
      {"default retrain", Edit::kRetrain, TenantId(), {"", "a", "b"}},
      {"tenant retrain", Edit::kRetrain, TenantId("a"), {"a"}},
  };
  const std::vector<std::string> views = {"", "a", "b"};

  // Two rule-classified titles (cached in every view) plus titles only a
  // trained ensemble labels.
  std::vector<data::ProductItem> items = {MakeItem("gold ring"),
                                          MakeItem("synthetic motor oil")};
  for (const data::LabeledItem& labeled : MakeTrainingData(20, 99)) {
    items.push_back(labeled.item);
  }

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    PipelineConfig config = CachedConfig();
    config.use_learning = true;
    ChimeraPipeline pipeline(config);
    AddRules(pipeline,
             "whitelist r1: rings? => rings\n"
             "whitelist o1: (motor | engine) oils? => motor oil\n");
    AddRules(pipeline, "whitelist a1: gizmos? => gizmo\n", TenantId("a"));
    switch (c.edit) {
      case Edit::kScaleDown:
        break;
      case Edit::kScaleUp:
        // Suppress first, then re-enable the rules the scale-down
        // disabled, so lifting the suppression is visible.
        ASSERT_TRUE(
            pipeline.ScaleDownType("rings", "oncall", "probe", c.scope).ok());
        ASSERT_TRUE(pipeline
                        .Mutate("tenant-test",
                                [](rules::RuleTransaction& txn) {
                                  return txn.Enable(rules::RuleId("r1"));
                                })
                        .ok());
        break;
      case Edit::kRetrain:
        pipeline.AddTrainingData(MakeTrainingData(200), c.scope);
        break;
    }

    std::map<std::string, std::vector<std::optional<std::string>>> before;
    for (const std::string& view : views) {
      RunBatch(pipeline, items, TenantId(view));  // admits the winners
      BatchReport warm = RunBatch(pipeline, items, TenantId(view));
      ASSERT_GT(warm.cache_hits, 0u) << "view '" << view << "'";
      before[view] = warm.predictions;
    }

    switch (c.edit) {
      case Edit::kScaleDown:
        ASSERT_TRUE(
            pipeline.ScaleDownType("rings", "oncall", "probe", c.scope).ok());
        break;
      case Edit::kScaleUp:
        pipeline.ScaleUpType("rings", c.scope);
        break;
      case Edit::kRetrain:
        pipeline.RetrainLearning(c.scope);
        break;
    }

    for (const std::string& view : views) {
      const bool expect_change =
          std::find(c.changed.begin(), c.changed.end(), view) !=
          c.changed.end();
      BatchReport after = RunBatch(pipeline, items, TenantId(view));
      EXPECT_EQ(after.predictions != before[view], expect_change)
          << "view '" << view << "'";
      EXPECT_EQ(after.cache_stale_drops > 0, expect_change)
          << "view '" << view << "'";
    }
  }
}

// Lifting a suppression that is not in place changes nothing: cached
// winners keep hitting in every view, and no phantom tenant appears.
TEST(TenantPipelineTest, ScaleUpOfUnsuppressedTypeIsANoOp) {
  ChimeraPipeline pipeline(CachedConfig());
  AddRules(pipeline, "whitelist r1: rings? => rings\n");
  const TenantId a("a");
  const std::vector<data::ProductItem> hot = Repeated("gold ring", 4);
  ASSERT_GT(RunBatch(pipeline, hot).cache_promotions, 0u);
  ASSERT_GT(RunBatch(pipeline, hot, a).cache_promotions, 0u);
  const std::vector<std::string> tenants = pipeline.Tenants();
  const uint64_t generation = pipeline.semantic_generation();

  pipeline.ScaleUpType("rings");
  pipeline.ScaleUpType("rings", a);
  pipeline.ScaleUpType("rings", TenantId("ghost"));

  for (const TenantId& tenant : {TenantId(), a}) {
    BatchReport report = RunBatch(pipeline, hot, tenant);
    EXPECT_EQ(report.cache_hits, hot.size());
    EXPECT_EQ(report.cache_stale_drops, 0u);
  }
  EXPECT_EQ(pipeline.Tenants(), tenants);
  EXPECT_EQ(pipeline.semantic_generation(), generation);
}

// A tenant with no state of its own caches winners under the default
// view's tag. Its first own rule or suppression gives it a view of its
// own, and those winners must drop even when every counter of the new
// view equals the default view's: one shard, the tenant's rule counter
// catching up with the shared one, or its generation with the default's.
TEST(TenantPipelineTest, FirstOwnStateDropsWinnersCachedThroughDefaultView) {
  const TenantId a("a");
  {
    SCOPED_TRACE("tenant blacklist commit");
    PipelineConfig config = CachedConfig();
    config.rule_shards = 1;
    ChimeraPipeline pipeline(config);
    AddRules(pipeline, "whitelist r1: rings? => rings\n");
    const std::vector<data::ProductItem> hot = Repeated("gold ring", 4);
    ASSERT_GT(RunBatch(pipeline, hot, a).cache_promotions, 0u);
    ASSERT_EQ(RunBatch(pipeline, hot, a).cache_hits, hot.size());

    AddRules(pipeline, "blacklist a1: gold rings? => rings\n", a);
    BatchReport after = RunBatch(pipeline, hot, a);
    EXPECT_GT(after.cache_stale_drops, 0u);
    EXPECT_EQ(after.cache_hits, 0u);
    for (const auto& prediction : after.predictions) {
      EXPECT_NE(prediction, std::optional<std::string>("rings"));
    }
  }
  {
    SCOPED_TRACE("tenant scale-down after a default retrain");
    PipelineConfig config = CachedConfig(/*capacity=*/256);
    config.rule_shards = 1;
    config.use_learning = true;
    ChimeraPipeline pipeline(config);
    pipeline.AddTrainingData(MakeTrainingData(200));
    pipeline.RetrainLearning();
    std::vector<data::ProductItem> items;
    for (const data::LabeledItem& labeled : MakeTrainingData(40, 77)) {
      items.push_back(labeled.item);
    }
    RunBatch(pipeline, items, a);  // admits the ensemble's winners
    BatchReport warm = RunBatch(pipeline, items, a);
    ASSERT_GT(warm.cache_hits, 0u);
    std::optional<std::string> type;
    for (const auto& prediction : warm.predictions) {
      if (prediction.has_value()) type = prediction;
    }
    ASSERT_TRUE(type.has_value());

    ASSERT_TRUE(pipeline.ScaleDownType(*type, "oncall", "probe", a).ok());
    BatchReport after = RunBatch(pipeline, items, a);
    EXPECT_GT(after.cache_stale_drops, 0u);
    for (const auto& prediction : after.predictions) {
      EXPECT_NE(prediction, type);
    }
  }
}

// ------------------------------------------------------- rule scoping --

// A tenant's rules classify only through its own view; the shared rules
// serve every view.
TEST(TenantPipelineTest, TenantRulesServeOnlyTheirOwnView) {
  PipelineConfig config;
  config.use_learning = false;
  ChimeraPipeline pipeline(config);

  const TenantId a("a");
  const TenantId b("b");
  AddRules(pipeline, "whitelist s1: rings? => rings\n");  // shared
  AddRules(pipeline, "whitelist a1: gizmos? => gizmo\n", a);

  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("brass gizmo"), a).value_or(""),
            "gizmo");
  EXPECT_FALSE(ClassifyOne(pipeline, MakeItem("brass gizmo")).has_value());
  EXPECT_FALSE(ClassifyOne(pipeline, MakeItem("brass gizmo"), b).has_value());

  // The shared rule serves everyone, including tenants with no rules.
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("gold ring")).value_or(""), "rings");
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("gold ring"), a).value_or(""),
            "rings");
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("gold ring"), b).value_or(""),
            "rings");
}

// A non-default tenant cannot edit another tenant's (or the shared)
// rules; the default tenant is administrative and can.
TEST(TenantPipelineTest, CrossTenantEditsAreRejected) {
  PipelineConfig config;
  config.use_learning = false;
  ChimeraPipeline pipeline(config);

  const TenantId a("a");
  const TenantId b("b");
  AddRules(pipeline, "whitelist a1: gizmos? => gizmo\n", a);

  auto disable = [&](const TenantId& as) {
    return pipeline.Mutate(
        "tenant-test",
        [](rules::RuleTransaction& txn) {
          return txn.Disable(rules::RuleId("a1"), "cross-tenant probe");
        },
        as);
  };

  EXPECT_FALSE(disable(b).ok());  // b may not touch a's rule
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("brass gizmo"), a).value_or(""),
            "gizmo");  // probe had no effect

  EXPECT_TRUE(disable(a).ok());  // a edits its own rule
  EXPECT_FALSE(ClassifyOne(pipeline, MakeItem("brass gizmo"), a).has_value());
}

// Tenant-scoped scale-down suppresses the type in that tenant's view
// only; the default tenant's scale-down is the platform-wide lever.
TEST(TenantPipelineTest, TenantScaleDownSuppressesOnlyItsOwnView) {
  PipelineConfig config;
  config.use_learning = false;
  ChimeraPipeline pipeline(config);

  const TenantId a("a");
  AddRules(pipeline, "whitelist s1: rings? => rings\n");

  ASSERT_TRUE(pipeline.ScaleDownType("rings", "oncall", "a only", a).ok());
  EXPECT_FALSE(ClassifyOne(pipeline, MakeItem("gold ring"), a).has_value());
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("gold ring")).value_or(""), "rings");

  // A tenant scale-down disables only the tenant's own rules (a owns
  // none), so lifting the suppression fully restores a's view.
  pipeline.ScaleUpType("rings", a);
  EXPECT_EQ(ClassifyOne(pipeline, MakeItem("gold ring"), a).value_or(""),
            "rings");
}

// ------------------------------------------------------ retrain gating --

// The min-interval gate is evaluated against each tenant's own run
// history: tenant B's first request trains even while tenant A is
// rate-limited.
TEST(TenantPipelineTest, RetrainGatesEvaluatePerTenant) {
  PipelineConfig config;
  config.retrain.min_interval = std::chrono::milliseconds(3'600'000);
  ChimeraPipeline pipeline(config);

  const TenantId a("a");
  const TenantId b("b");
  pipeline.AddTrainingData(MakeTrainingData(200, 1), a);
  pipeline.AddTrainingData(MakeTrainingData(200, 2), b);

  RetrainReport first_a = pipeline.RequestRetrain(a).get();
  EXPECT_EQ(first_a.outcome, RetrainReport::Outcome::kPublished);
  EXPECT_EQ(first_a.tenant, "a");

  RetrainReport second_a = pipeline.RequestRetrain(a).get();
  EXPECT_EQ(second_a.outcome, RetrainReport::Outcome::kSkippedMinInterval);

  // B has never trained, so A's fresh run does not gate it.
  RetrainReport first_b = pipeline.RequestRetrain(b).get();
  EXPECT_EQ(first_b.outcome, RetrainReport::Outcome::kPublished);
  EXPECT_EQ(first_b.tenant, "b");

  // Neither does it gate the default tenant.
  pipeline.AddTrainingData(MakeTrainingData(200, 3));
  RetrainReport shared = pipeline.RequestRetrain().get();
  EXPECT_EQ(shared.outcome, RetrainReport::Outcome::kPublished);
  EXPECT_EQ(shared.tenant, "");
}

// A per-tenant RetrainPolicy override gates that tenant alone.
TEST(TenantPipelineTest, PerTenantRetrainPolicyOverride) {
  PipelineConfig config;
  RetrainPolicy lazy;
  lazy.min_new_examples = 1'000'000;  // effectively never retrain
  config.tenants["lazy"].retrain = lazy;
  ChimeraPipeline pipeline(config);

  const TenantId frozen("lazy");
  pipeline.AddTrainingData(MakeTrainingData(200, 1), frozen);
  RetrainReport gated = pipeline.RequestRetrain(frozen).get();
  EXPECT_EQ(gated.outcome,
            RetrainReport::Outcome::kSkippedMinNewExamples);

  pipeline.AddTrainingData(MakeTrainingData(200, 2));
  RetrainReport shared = pipeline.RequestRetrain().get();
  EXPECT_EQ(shared.outcome, RetrainReport::Outcome::kPublished);
}

// ------------------------------------------------------- byte identity --

// A pipeline that never names a tenant is byte-identical to one driven
// through the explicit default TenantId, and the repository's default
// tenant version counter tracks each shard's version exactly.
TEST(TenantPipelineTest, SingleDefaultTenantRunIsByteIdentical) {
  auto provision = [](ChimeraPipeline& pipeline) {
    AddRules(pipeline,
             "whitelist r1: rings? => rings\n"
             "whitelist o1: (motor | engine) oils? => motor oil\n"
             "blacklist r2: toe rings? => rings\n");
    ASSERT_TRUE(pipeline
                    .Mutate("tenant-test",
                            [](rules::RuleTransaction& txn) {
                              return txn.Disable(rules::RuleId("o1"),
                                                 "byte-identity probe");
                            })
                    .ok());
  };

  PipelineConfig config;
  config.use_learning = false;
  ChimeraPipeline implicit(config);
  ChimeraPipeline explicit_default(config);
  provision(implicit);
  provision(explicit_default);

  std::vector<data::ProductItem> items = {
      MakeItem("gold ring"), MakeItem("silver toe ring"),
      MakeItem("synthetic motor oil"), MakeItem("unknown widget")};
  BatchReport a = RunBatch(implicit, items);
  BatchReport b = RunBatch(explicit_default, items, TenantId());
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.classified, b.classified);
  EXPECT_EQ(a.filtered, b.filtered);
  EXPECT_EQ(a.declined, b.declined);

  EXPECT_EQ(StateBytes(implicit.repository()),
            StateBytes(explicit_default.repository()));

  // Invariant behind the identity: with only default-tenant commits, the
  // "" tenant counter equals the shard version on every shard.
  const rules::RuleRepository& repo = implicit.repository();
  for (const std::string type : {"rings", "motor oil"}) {
    rules::ShardKey key =
        rules::ShardKey::ForType(type, repo.shard_count());
    rules::ShardSnapshot shard = repo.ShardSnapshotOf(key);
    EXPECT_EQ(repo.tenant_shard_version(key, TenantId()), shard.version);
  }
}

// A tenant with no state of its own, or with training data but no
// trained ensemble yet, serves exactly the default tenant's view: shared
// rules, the default ensemble and suppressions — with the cache on or off.
TEST(TenantPipelineTest, TenantWithoutOwnEnsembleServesTheDefaultView) {
  std::vector<data::ProductItem> items = {
      MakeItem("gold ring"), MakeItem("silver toe ring"),
      MakeItem("synthetic motor oil"), MakeItem("unknown widget")};
  for (const data::LabeledItem& labeled : MakeTrainingData(40, 77)) {
    items.push_back(labeled.item);
  }
  for (const bool cached : {false, true}) {
    SCOPED_TRACE(cached ? "cache on" : "cache off");
    PipelineConfig config = CachedConfig(/*capacity=*/256);
    config.use_learning = true;
    config.hot_cache.enabled = cached;
    ChimeraPipeline pipeline(config);
    AddRules(pipeline,
             "whitelist r1: rings? => rings\n"
             "whitelist o1: (motor | engine) oils? => motor oil\n"
             "blacklist r2: toe rings? => rings\n");
    const TenantId pending("pending");
    pipeline.AddTrainingData(MakeTrainingData(200, 5), pending);
    pipeline.AddTrainingData(MakeTrainingData(200));
    pipeline.RetrainLearning();  // publishes a view for `pending` too
    ASSERT_TRUE(pipeline.ScaleDownType("motor oil", "oncall", "probe").ok());

    // Twice per tenant: with the cache on, the second pass serves hits.
    for (int pass = 0; pass < 2; ++pass) {
      BatchReport base = RunBatch(pipeline, items);
      for (const TenantId& tenant : {TenantId("stateless"), pending}) {
        BatchReport report = RunBatch(pipeline, items, tenant);
        EXPECT_EQ(report.predictions, base.predictions) << tenant.value();
        EXPECT_EQ(report.classified, base.classified) << tenant.value();
        EXPECT_EQ(report.suppressed, base.suppressed) << tenant.value();
        EXPECT_EQ(report.filtered, base.filtered) << tenant.value();
        EXPECT_EQ(report.declined, base.declined) << tenant.value();
        EXPECT_EQ(report.cache_hits, base.cache_hits) << tenant.value();
      }
    }
  }
}

// ----------------------------------------------------------- recovery --

// Restarting a durable pipeline reproduces the complete persisted state
// — including every shard's per-tenant version counters — byte for byte.
TEST(TenantPipelineTest, RecoveryReproducesPerTenantShardVersionsExactly) {
  const std::string dir = ScratchDir();
  PipelineConfig config;
  config.use_learning = false;
  config.storage_dir = dir;

  const TenantId acme("acme");
  const TenantId beta("beta");
  std::string before;
  std::map<std::string, uint64_t> acme_versions_before;
  {
    ChimeraPipeline pipeline(config);
    ASSERT_TRUE(pipeline.storage_status().ok());
    AddRules(pipeline, "whitelist s1: rings? => rings\n");
    AddRules(pipeline,
             "whitelist a1: gizmos? => gizmo\n"
             "whitelist a2: sprockets? => sprocket\n",
             acme);
    AddRules(pipeline, "whitelist b1: widgets? => widget\n", beta);
    ASSERT_TRUE(pipeline
                    .Mutate("tenant-test",
                            [](rules::RuleTransaction& txn) {
                              return txn.Disable(rules::RuleId("a1"),
                                                 "pre-crash edit");
                            },
                            acme)
                    .ok());
    before = StateBytes(pipeline.repository());
    for (const std::string type : {"gizmo", "sprocket"}) {
      rules::ShardKey key = rules::ShardKey::ForTenantType(
          acme, type, pipeline.repository().shard_count());
      acme_versions_before[type] =
          pipeline.repository().tenant_shard_version(key, acme);
      ASSERT_GT(acme_versions_before[type], 0u);
    }
  }

  ChimeraPipeline recovered(config);
  ASSERT_TRUE(recovered.storage_status().ok());
  EXPECT_EQ(StateBytes(recovered.repository()), before);
  for (const auto& [type, version] : acme_versions_before) {
    rules::ShardKey key = rules::ShardKey::ForTenantType(
        acme, type, recovered.repository().shard_count());
    EXPECT_EQ(recovered.repository().tenant_shard_version(key, acme),
              version);
  }

  // The recovered store serves the same tenant views: a1 stayed
  // disabled, a2 and the other tenants' rules still classify.
  EXPECT_FALSE(ClassifyOne(recovered, MakeItem("brass gizmo"), acme).has_value());
  EXPECT_EQ(ClassifyOne(recovered, MakeItem("steel sprocket"), acme).value_or(""),
            "sprocket");
  EXPECT_EQ(ClassifyOne(recovered, MakeItem("odd widget"), beta).value_or(""),
            "widget");
  EXPECT_EQ(ClassifyOne(recovered, MakeItem("gold ring")).value_or(""), "rings");
}

// ---------------------------------------------------- quality monitor --

// Histories are capped ring buffers and partitioned per tenant: one
// tenant's degradation alarms without its neighbours' healthy batches
// diluting the signal.
TEST(TenantMonitorTest, CappedHistoriesAndPerTenantAlarms) {
  QualityMonitor monitor(0.92, /*max_history=*/4);
  EXPECT_EQ(monitor.max_history(), 4u);

  for (size_t i = 0; i < 6; ++i) {
    BatchQuality good;
    good.batch_index = i;
    good.precision = crowd::WilsonEstimate(95, 100);
    monitor.Record(good);
  }
  EXPECT_EQ(monitor.history().size(), 4u);
  EXPECT_EQ(monitor.history().dropped(), 2u);
  EXPECT_EQ(monitor.history()[0].batch_index, 2u);  // oldest two gone
  EXPECT_FALSE(monitor.DegradationAlarm());

  BatchQuality bad;
  bad.precision = crowd::WilsonEstimate(60, 100);
  monitor.Record(bad, "degraded");
  EXPECT_TRUE(monitor.DegradationAlarm("degraded"));
  EXPECT_TRUE(monitor.SevereDegradationAlarm("degraded"));
  EXPECT_FALSE(monitor.DegradationAlarm());  // default unaffected

  monitor.RecordCache({/*batch_index=*/0, /*lookups=*/10, /*hits=*/9}, "hot");
  monitor.RecordCache({/*batch_index=*/0, /*lookups=*/10, /*hits=*/1});
  EXPECT_DOUBLE_EQ(monitor.CacheHitRate("hot", 0), 0.9);
  EXPECT_DOUBLE_EQ(monitor.CacheHitRate(), 0.1);

  RetrainReport report;
  report.published = true;
  report.tenant = "degraded";
  monitor.RecordRetrain(report);
  EXPECT_EQ(monitor.retrains_published("degraded"), 1u);
  EXPECT_EQ(monitor.retrains_published(""), 0u);

  std::vector<std::string> tenants = monitor.Tenants();
  EXPECT_EQ(tenants.front(), "");  // default leads
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "degraded"),
            tenants.end());
  EXPECT_NE(std::find(tenants.begin(), tenants.end(), "hot"), tenants.end());
}

}  // namespace
}  // namespace rulekit::chimera
