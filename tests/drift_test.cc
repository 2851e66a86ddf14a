// The drift-response loop, end to end: the event-stream workload's
// determinism and drift-plan replay contracts, the kBleed monotonicity
// property, DriftResponder trigger/hysteresis/cooldown/escalation
// semantics, tenant isolation of alarms and retrain slots, the
// severed-journal fault-injection backoff, and the full self-healing
// scenario (drift -> alarm -> automatic retrain -> recovery) with no
// operator in the loop, beside its baseline with no responder.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/chimera/analyst.h"
#include "src/chimera/monitor.h"
#include "src/chimera/pipeline.h"
#include "src/chimera/request.h"
#include "src/chimera/stream_window.h"
#include "src/crowd/estimator.h"
#include "src/data/event_stream.h"
#include "src/maint/drift_monitor.h"
#include "src/maint/drift_responder.h"
#include "src/rules/ids.h"

#include "tests/classify_shims.h"
#include "tests/seeded_test.h"

namespace rulekit {
namespace {

namespace fs = std::filesystem;

using chimera::BatchQuality;
using chimera::BatchReport;
using chimera::CacheActivity;
using chimera::ChimeraPipeline;
using chimera::PipelineConfig;
using chimera::QualityMonitor;
using chimera::ResponderDecision;
using chimera::RetrainReport;
using chimera::StreamWindowOptions;
using chimera::StreamWindowRunner;
using chimera::WindowResult;
using chimera::WriteEventRules;
using data::EventDriftKind;
using data::EventDriftOptions;
using data::EventDriftRecord;
using data::EventStreamConfig;
using data::EventStreamGenerator;
using data::LabeledItem;
using maint::DriftResponder;
using maint::DriftResponderPolicy;
using maint::ResponderTenantStatus;
using maint::RulePrecisionMonitor;

/// A fresh, empty scratch directory unique to the running test.
std::string ScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  fs::path dir = fs::path(::testing::TempDir()) /
                 (std::string("rulekit_drift_") + info->name());
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// One synthetic crowd-verified window: `positives` of `n` sampled
/// predictions were correct.
BatchQuality Window(size_t index, size_t positives, size_t n) {
  BatchQuality q;
  q.batch_index = index;
  q.precision = crowd::WilsonEstimate(positives, n);
  q.coverage = 1.0;
  q.recall = q.precision.estimate;
  return q;
}

/// Rule precision of a pipeline over a labeled corpus: correct firings /
/// classified items (1.0 on an empty classified set).
double CorpusPrecision(const ChimeraPipeline& pipeline,
                       const std::vector<LabeledItem>& corpus) {
  std::vector<data::ProductItem> items;
  items.reserve(corpus.size());
  for (const auto& labeled : corpus) items.push_back(labeled.item);
  BatchReport report = RunBatch(pipeline, items);
  size_t classified = 0;
  size_t correct = 0;
  for (size_t i = 0; i < report.predictions.size(); ++i) {
    if (!report.predictions[i].has_value()) continue;
    ++classified;
    if (*report.predictions[i] == corpus[i].label) ++correct;
  }
  return classified == 0 ? 1.0
                         : static_cast<double>(correct) / classified;
}

/// A rules-only pipeline loaded with the stream's decoder rules.
std::unique_ptr<ChimeraPipeline> RulesOnlyPipeline(
    const EventStreamGenerator& stream) {
  PipelineConfig config;
  config.use_learning = false;
  auto pipeline = std::make_unique<ChimeraPipeline>(config);
  auto status = pipeline->AddRules(WriteEventRules(stream), "analyst");
  EXPECT_TRUE(status.ok()) << status.ToString();
  return pipeline;
}

// ---- event-stream workload ------------------------------------------------

TEST(EventStreamTest, CuratedSpecsHaveExclusiveKeywords) {
  EventStreamGenerator stream;
  ASSERT_GE(stream.specs().size(), 12u);
  std::set<std::string> seen;
  for (const auto& spec : stream.specs()) {
    EXPECT_FALSE(spec.keywords.empty()) << spec.name;
    for (const auto& keyword : spec.keywords) {
      EXPECT_TRUE(seen.insert(keyword).second)
          << "keyword shared across types: " << keyword;
    }
  }
}

TEST(EventStreamTest, RulesClassifyUndriftedCorpusPerfectly) {
  EventStreamGenerator stream;
  auto pipeline = RulesOnlyPipeline(stream);
  std::vector<LabeledItem> corpus = stream.ReferenceCorpus();
  ASSERT_FALSE(corpus.empty());
  EXPECT_DOUBLE_EQ(CorpusPrecision(*pipeline, corpus), 1.0);
  // Every keyword line classifies (variants don't exist yet).
  std::vector<data::ProductItem> items;
  for (const auto& labeled : corpus) items.push_back(labeled.item);
  BatchReport report = RunBatch(*pipeline, items);
  EXPECT_DOUBLE_EQ(report.coverage(), 1.0);
}

TEST(EventStreamTest, VocabularyDriftMakesRulesAbstain) {
  EventStreamGenerator stream;
  EventDriftOptions options;
  options.kind = EventDriftKind::kVocabulary;
  options.drift_share = 1.0;  // every line of a drifted type drifts
  std::vector<EventDriftRecord> plan = stream.InjectDrift(options, 3);
  ASSERT_EQ(plan.size(), 3u);
  auto pipeline = RulesOnlyPipeline(stream);
  for (const EventDriftRecord& record : plan) {
    // Drifted lines carry no signature keyword: the decoder rules must
    // abstain, never misfire.
    for (int i = 0; i < 8; ++i) {
      LabeledItem line = stream.GenerateOfType(record.target_spec);
      auto prediction = ClassifyOne(*pipeline, line.item);
      if (line.item.title.find(plan[0].fresh_token) != std::string::npos ||
          !prediction.has_value()) {
        continue;  // drifted shape -> abstained, as required
      }
      EXPECT_EQ(*prediction, line.label) << line.item.title;
    }
  }
}

// ---- satellite: seeded determinism + drift-plan replay --------------------

class EventStreamSeededTest : public SeedAwareTest {};

TEST_P(EventStreamSeededTest, StreamIsDeterministicPerSeed) {
  EventStreamConfig config;
  config.seed = GetParam();
  EventStreamGenerator a(config);
  EventStreamGenerator b(config);
  std::vector<LabeledItem> lines_a = a.GenerateMany(200);
  std::vector<LabeledItem> lines_b = b.GenerateMany(200);
  ASSERT_EQ(lines_a.size(), lines_b.size());
  for (size_t i = 0; i < lines_a.size(); ++i) {
    EXPECT_EQ(lines_a[i].item.title, lines_b[i].item.title) << i;
    EXPECT_EQ(lines_a[i].label, lines_b[i].label) << i;
  }
}

TEST_P(EventStreamSeededTest, DriftPlanReplaysIdentically) {
  EventStreamConfig config;
  config.seed = GetParam();
  EventDriftOptions options;
  options.seed = GetParam() ^ 0x5eed;
  options.kind = EventDriftKind::kVocabulary;

  // Same seed, same magnitude, fresh generators: identical plans and
  // identical post-drift variants.
  EventStreamGenerator a(config);
  EventStreamGenerator b(config);
  std::vector<EventDriftRecord> plan_a = a.InjectDrift(options, 4);
  std::vector<EventDriftRecord> plan_b = b.InjectDrift(options, 4);
  ASSERT_EQ(plan_a.size(), plan_b.size());
  for (size_t i = 0; i < plan_a.size(); ++i) {
    EXPECT_EQ(plan_a[i].target_spec, plan_b[i].target_spec);
    EXPECT_EQ(plan_a[i].donor_spec, plan_b[i].donor_spec);
    EXPECT_EQ(plan_a[i].fresh_token, plan_b[i].fresh_token);
  }

  // Incremental application: magnitude 2 then 4 lands exactly where a
  // fresh magnitude-4 injection does (plan prefix is a watermark).
  EventStreamGenerator c(config);
  std::vector<EventDriftRecord> first = c.InjectDrift(options, 2);
  std::vector<EventDriftRecord> rest = c.InjectDrift(options, 4);
  ASSERT_EQ(first.size(), 2u);
  ASSERT_EQ(rest.size(), 2u);  // only the new entries
  for (size_t i = 0; i < c.specs().size(); ++i) {
    const auto& va = a.specs()[i].variants;
    const auto& vc = c.specs()[i].variants;
    ASSERT_EQ(va.size(), vc.size()) << a.specs()[i].name;
    for (size_t v = 0; v < va.size(); ++v) {
      EXPECT_EQ(va[v].tokens, vc[v].tokens);
      EXPECT_DOUBLE_EQ(va[v].share, vc[v].share);
    }
  }
}

// Satellite property: more drift can never *raise* post-drift rule
// precision on the reference corpus — and under kBleed (a donor keyword
// bleeding verbatim into another type's lines) every extra drifted type
// strictly lowers it, because each poisoned variant adds exactly one
// wrong firing and zero correct ones.
TEST_P(EventStreamSeededTest, BleedDriftIsMonotoneInMagnitude) {
  EventDriftOptions options;
  options.seed = GetParam();
  options.kind = EventDriftKind::kBleed;

  double previous = 2.0;  // above any precision
  const size_t max_magnitude = 6;
  for (size_t magnitude = 0; magnitude <= max_magnitude; ++magnitude) {
    EventStreamConfig config;
    config.seed = GetParam();
    EventStreamGenerator stream(config);
    stream.InjectDrift(options, magnitude);
    auto pipeline = RulesOnlyPipeline(stream);
    double precision = CorpusPrecision(*pipeline, stream.ReferenceCorpus());
    if (magnitude == 0) {
      EXPECT_DOUBLE_EQ(precision, 1.0);
    } else {
      EXPECT_LT(precision, previous)
          << "magnitude " << magnitude << " did not lower rule precision";
    }
    previous = precision;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EventStreamSeededTest,
    ::testing::ValuesIn(SeedsOrOverride({2025, 7, 4242})));

// ---- responder: triggers, hysteresis, cooldown ----------------------------

TEST(DriftResponderTest, HysteresisThenFireThenCooldown) {
  ChimeraPipeline pipeline;  // no training data: retrains resolve fast, OK
  QualityMonitor monitor;
  DriftResponderPolicy policy;
  policy.min_alarm_windows = 2;
  policy.cooldown = std::chrono::hours(1);
  DriftResponder responder(pipeline, monitor, policy);

  // Window 0: degraded but not severe (9/10 = 0.9 point estimate, Wilson
  // upper well above threshold). One bad window never fires.
  monitor.Record(Window(0, 9, 10));
  ResponderDecision d0 = responder.EvaluateTenant("");
  EXPECT_EQ(d0.trigger, ResponderDecision::Trigger::kDegradation);
  EXPECT_FALSE(d0.fired);
  EXPECT_EQ(d0.consecutive_alarms, 1u);

  // Re-poll between windows: no new observation, no hysteresis credit,
  // and the no-op is not recorded in the audit history.
  size_t recorded = monitor.responder_history().size();
  ResponderDecision repoll = responder.EvaluateTenant("");
  EXPECT_EQ(repoll.reason, "no new window");
  EXPECT_EQ(repoll.consecutive_alarms, 1u);
  EXPECT_EQ(monitor.responder_history().size(), recorded);

  // Window 1: second consecutive degraded window -> fire (non-urgent).
  monitor.Record(Window(1, 9, 10));
  ResponderDecision d1 = responder.EvaluateTenant("");
  EXPECT_TRUE(d1.fired);
  EXPECT_FALSE(d1.urgent);
  EXPECT_EQ(responder.fires(), 1u);
  auto retrain = responder.LastRetrain("");
  ASSERT_TRUE(retrain.has_value());
  retrain->wait();

  // Windows 2-3: still degraded. Window 2 rebuilds hysteresis; window 3
  // wants to fire but the cooldown suppresses it.
  monitor.Record(Window(2, 9, 10));
  ResponderDecision d2 = responder.EvaluateTenant("");
  EXPECT_FALSE(d2.fired);
  EXPECT_EQ(d2.consecutive_alarms, 1u);
  monitor.Record(Window(3, 9, 10));
  ResponderDecision d3 = responder.EvaluateTenant("");
  EXPECT_FALSE(d3.fired);
  EXPECT_EQ(d3.reason, "suppressed by cooldown");
  EXPECT_GT(d3.cooldown_remaining_ms, 0.0);
  EXPECT_EQ(responder.fires(), 1u);

  // A healthy window resets the hysteresis counter.
  monitor.Record(Window(4, 10, 10));
  ResponderDecision d4 = responder.EvaluateTenant("");
  EXPECT_EQ(d4.trigger, ResponderDecision::Trigger::kNone);
  EXPECT_EQ(d4.consecutive_alarms, 0u);
  EXPECT_EQ(d4.reason, "healthy");

  // The audit trail recorded every window-bearing decision.
  EXPECT_EQ(monitor.responder_fires(), 1u);
  EXPECT_GE(monitor.responder_history().size(), 5u);
}

TEST(DriftResponderTest, SevereAlarmEscalatesPastGatesAndHysteresis) {
  PipelineConfig config;
  // A throttle that would gate any ordinary retrain for an hour.
  config.retrain.min_interval = std::chrono::hours(1);
  ChimeraPipeline pipeline(config);
  std::vector<LabeledItem> labeled;
  for (int i = 0; i < 8; ++i) {
    LabeledItem li;
    li.item.title = "failed password for invalid user " + std::to_string(i);
    li.label = "auth-failure";
    labeled.push_back(std::move(li));
  }
  pipeline.AddTrainingData(labeled);
  // Seed the gate history: the first run is never interval-gated...
  RetrainReport first = pipeline.RequestRetrain().get();
  ASSERT_TRUE(first.published);
  // ...but the second ordinary request is.
  RetrainReport gated = pipeline.RequestRetrain().get();
  EXPECT_EQ(gated.outcome, RetrainReport::Outcome::kSkippedMinInterval);

  QualityMonitor monitor;
  DriftResponderPolicy policy;
  policy.min_alarm_windows = 5;  // would take 5 windows the ordinary way
  policy.cooldown = std::chrono::milliseconds(0);
  DriftResponder responder(pipeline, monitor, policy);

  // One severe window (30/64: Wilson upper far below 0.92) fires
  // immediately — no hysteresis wait — and the urgent request runs even
  // though the min_interval gate would have skipped it.
  monitor.Record(Window(0, 30, 64));
  ASSERT_TRUE(monitor.SevereDegradationAlarm());
  ResponderDecision decision = responder.EvaluateTenant("");
  EXPECT_EQ(decision.trigger,
            ResponderDecision::Trigger::kSevereDegradation);
  EXPECT_TRUE(decision.fired);
  EXPECT_TRUE(decision.urgent);
  auto retrain = responder.LastRetrain("");
  ASSERT_TRUE(retrain.has_value());
  RetrainReport report = retrain->get();
  EXPECT_EQ(report.outcome, RetrainReport::Outcome::kPublished);
  EXPECT_TRUE(report.urgent);
  EXPECT_TRUE(report.published);
}

TEST(DriftResponderTest, StaleSpikeTriggersRetrain) {
  ChimeraPipeline pipeline;
  QualityMonitor monitor;
  DriftResponderPolicy policy;
  policy.min_alarm_windows = 1;
  DriftResponder responder(pipeline, monitor, policy);

  CacheActivity activity;
  activity.batch_index = 0;
  activity.lookups = 100;
  activity.hits = 20;
  activity.stale_drops = 70;  // 70% of lookups dropped stale
  monitor.RecordCache(activity);
  ResponderDecision decision = responder.EvaluateTenant("");
  EXPECT_EQ(decision.trigger, ResponderDecision::Trigger::kStaleSpike);
  EXPECT_TRUE(decision.fired);
}

TEST(DriftResponderTest, RuleFlagsTriggerRetrain) {
  ChimeraPipeline pipeline;
  QualityMonitor monitor;
  RulePrecisionMonitor rule_monitor;
  // Three rules gone imprecise (12 verdicts each, mostly wrong).
  for (const char* rule : {"r1", "r2", "r3"}) {
    for (int i = 0; i < 12; ++i) {
      rule_monitor.RecordVerdict(rule, i % 4 == 0);
    }
  }
  ASSERT_GE(rule_monitor.FlaggedRules().size(), 3u);

  DriftResponderPolicy policy;
  policy.min_alarm_windows = 1;
  DriftResponder responder(pipeline, monitor, policy, &rule_monitor);

  // The quality window itself is healthy — the rule flags alone alarm.
  monitor.Record(Window(0, 10, 10));
  ResponderDecision decision = responder.EvaluateTenant("");
  EXPECT_EQ(decision.trigger, ResponderDecision::Trigger::kRuleFlags);
  EXPECT_TRUE(decision.fired);
}

// ---- satellite: tenant isolation ------------------------------------------

TEST(DriftResponderTest, TenantAlarmsNeverCrossTenants) {
  QualityMonitor monitor;
  PipelineConfig config;
  config.retrain.report_sink = [&monitor](const RetrainReport& report) {
    monitor.RecordRetrain(report);
  };
  ChimeraPipeline pipeline(config);

  const rules::TenantId alpha("alpha");
  const rules::TenantId beta("beta");
  for (const auto& tenant : {alpha, beta}) {
    std::vector<LabeledItem> labeled;
    for (int i = 0; i < 6; ++i) {
      LabeledItem li;
      li.item.title = "connection from port " + std::to_string(7000 + i);
      li.label = "network-scan";
      labeled.push_back(std::move(li));
    }
    pipeline.AddTrainingData(labeled, tenant);
  }

  DriftResponderPolicy policy;
  policy.min_alarm_windows = 2;
  DriftResponder responder(pipeline, monitor, policy);

  // Alpha degrades for three windows; beta stays healthy throughout.
  for (size_t w = 0; w < 3; ++w) {
    monitor.Record(Window(w, 9, 10), "alpha");
    monitor.Record(Window(w, 10, 10), "beta");
    responder.EvaluateNow();
  }

  EXPECT_FALSE(monitor.DegradationAlarm("beta"));
  EXPECT_EQ(monitor.responder_fires("alpha"), 1u);
  EXPECT_EQ(monitor.responder_fires("beta"), 0u);
  EXPECT_EQ(responder.fires(), 1u);

  // The fired retrain ran in alpha's slot only: beta's retrain history
  // stays empty, and the report names alpha.
  auto retrain = responder.LastRetrain("alpha");
  ASSERT_TRUE(retrain.has_value());
  RetrainReport report = retrain->get();
  EXPECT_EQ(report.tenant, "alpha");
  EXPECT_TRUE(monitor.retrain_history("beta").empty());
  EXPECT_FALSE(responder.LastRetrain("beta").has_value());
  ASSERT_FALSE(monitor.retrain_history("alpha").empty());
}

// ---- satellite: fault injection -------------------------------------------

// Sever the journal mid-stream, then let the responder's alarm-triggered
// retrain hit it: the failure must surface in the harvested
// RetrainReport, and the responder must back off (one fire, then quiet)
// instead of hot-looping on a retrain that cannot succeed.
TEST(DriftResponderTest, BacksOffAfterJournalSeveredRetrainFailure) {
  std::string dir = ScratchDir();
  PipelineConfig config;
  config.storage_dir = dir;
  config.rule_shards = 2;
  ChimeraPipeline pipeline(config);
  ASSERT_TRUE(pipeline.storage_status().ok())
      << pipeline.storage_status().ToString();

  EventStreamGenerator stream;
  ASSERT_TRUE(pipeline.AddRules(WriteEventRules(stream), "analyst").ok());
  pipeline.AddTrainingData(stream.GenerateMany(60));
  RetrainReport healthy = pipeline.RequestRetrain().get();
  ASSERT_TRUE(healthy.published);
  ASSERT_TRUE(healthy.status.ok()) << healthy.status.ToString();

  // Sever journaling completely: squat the snapshot temp path so
  // compaction fails, and replace the epoch-0 WAL with a directory so
  // the failure-path reopen fails too. The WAL stays closed.
  fs::create_directories(dir + "/snapshot-1.tmp");
  fs::remove(dir + "/wal-0");
  fs::create_directories(dir + "/wal-0");
  ASSERT_FALSE(pipeline.storage()->Compact().ok());

  QualityMonitor monitor;
  DriftResponderPolicy policy;
  policy.min_alarm_windows = 1;
  policy.cooldown = std::chrono::milliseconds(0);
  policy.failure_cooldown = std::chrono::minutes(10);
  policy.failure_backoff = 2.0;
  DriftResponder responder(pipeline, monitor, policy);

  // First degraded window: fires, and the retrain's publish reports the
  // severed WAL.
  monitor.Record(Window(0, 30, 64));
  ResponderDecision fired = responder.EvaluateTenant("");
  ASSERT_TRUE(fired.fired);
  auto retrain = responder.LastRetrain("");
  ASSERT_TRUE(retrain.has_value());
  RetrainReport failed = retrain->get();
  EXPECT_TRUE(failed.published);  // in-memory serving still updated
  ASSERT_FALSE(failed.status.ok());
  EXPECT_NE(failed.status.message().find("WAL is closed"), std::string::npos)
      << failed.status.ToString();

  // Every further alarmed window is suppressed by the failure backoff —
  // the responder does not hot-loop on the broken journal even with a
  // zero cooldown.
  for (size_t w = 1; w <= 4; ++w) {
    monitor.Record(Window(w, 30, 64));
    ResponderDecision suppressed = responder.EvaluateTenant("");
    EXPECT_FALSE(suppressed.fired) << "window " << w;
    EXPECT_EQ(suppressed.reason, "backing off after failed retrain");
    EXPECT_GT(suppressed.cooldown_remaining_ms, 0.0);
  }
  EXPECT_EQ(responder.fires(), 1u);

  std::vector<ResponderTenantStatus> status = responder.Status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].failure_streak, 1u);
  EXPECT_GT(status[0].cooldown_remaining_ms, 0.0);
}

// ---- the stream-window runner ---------------------------------------------

TEST(StreamWindowTest, RecordsQualityAndFeedsTraining) {
  EventStreamGenerator stream;
  auto pipeline = RulesOnlyPipeline(stream);
  QualityMonitor monitor;
  StreamWindowOptions options;
  options.sample_size = 32;
  StreamWindowRunner runner(*pipeline, monitor, options);

  std::vector<LabeledItem> window = stream.GenerateMany(100);
  WindowResult result = runner.RunWindow(window);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Rules classify the undrifted stream essentially perfectly; whatever
  // was classified and sampled verifies clean.
  EXPECT_GT(result.coverage, 0.5);
  EXPECT_DOUBLE_EQ(result.true_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.quality.precision.estimate, 1.0);
  EXPECT_EQ(result.quality.batch_index, 0u);
  ASSERT_EQ(monitor.history().size(), 1u);
  EXPECT_FALSE(monitor.DegradationAlarm());

  // The verified sample (plus labeled declined items) fed the training
  // pool, and window numbering is monotone per tenant.
  EXPECT_GT(pipeline->training_size(), 0u);
  WindowResult second = runner.RunWindow(stream.GenerateMany(100));
  EXPECT_EQ(second.quality.batch_index, 1u);
  EXPECT_EQ(runner.windows(), 2u);
}

// ---- the self-healing scenario --------------------------------------------

// One seeded timeline, run in two arms that differ only in whether a
// DriftResponder watches it: a pipeline warmed on the healthy event
// stream, kHealthyWindows healthy windows, then vocabulary drift on six
// types (kVocabulary: rules abstain, the stale ensemble confidently
// mislabels), then up to kDriftWindows degraded windows and
// kRecoveryWindows more. The responder arm leaves the degraded regime as
// soon as its retrain fires; the baseline arm runs every window.
constexpr int kHealthyWindows = 3;
constexpr int kDriftWindows = 8;
constexpr int kRecoveryWindows = 4;

StreamWindowOptions SelfHealingWindowOptions() {
  StreamWindowOptions options;
  options.sample_size = 64;
  return options;
}

struct SelfHealingScenario {
  EventStreamGenerator stream;
  ChimeraPipeline pipeline;
  QualityMonitor monitor;  // default 0.92 threshold
  StreamWindowRunner runner{pipeline, monitor, SelfHealingWindowOptions()};

  SelfHealingScenario() {
    EXPECT_TRUE(pipeline.AddRules(WriteEventRules(stream), "analyst").ok());
    // Warm the learning side on the healthy stream.
    pipeline.AddTrainingData(stream.GenerateMany(400));
    pipeline.RetrainLearning();
  }

  WindowResult NextWindow() {
    return runner.RunWindow(stream.GenerateMany(150));
  }

  // Drift: half the type universe shifts vocabulary.
  void InjectDrift() {
    EventDriftOptions drift;
    drift.kind = EventDriftKind::kVocabulary;
    drift.drift_share = 0.9;
    stream.InjectDrift(drift, 6);
  }
};

// The full self-healing loop with no operator in it: the sampled
// precision collapses under drift, the responder converts the alarm into
// one automatic retrain, and the pipeline recovers above threshold —
// exactly one retrain for the whole episode.
TEST(SelfHealingTest, DriftAlarmRetrainRecoverWithoutOperator) {
  SelfHealingScenario s;
  DriftResponderPolicy policy;  // defaults: hysteresis 2, cooldown 30s
  DriftResponder responder(s.pipeline, s.monitor, policy);

  // Healthy regime: no alarm, no responder fire.
  for (int w = 0; w < kHealthyWindows; ++w) {
    WindowResult result = s.NextWindow();
    ASSERT_TRUE(result.status.ok());
    EXPECT_GE(result.quality.precision.estimate, 0.95) << "window " << w;
    responder.EvaluateNow();
  }
  EXPECT_FALSE(s.monitor.DegradationAlarm());
  EXPECT_EQ(responder.fires(), 0u);

  s.InjectDrift();

  // Degraded regime: run windows until the responder fires, then wait
  // for its retrain to land before streaming on.
  bool alarmed = false;
  int fired_window = -1;
  for (int w = 0; w < kDriftWindows && fired_window < 0; ++w) {
    WindowResult result = s.NextWindow();
    ASSERT_TRUE(result.status.ok());
    alarmed = alarmed || s.monitor.DegradationAlarm();
    responder.EvaluateNow();
    if (responder.fires() > 0) fired_window = w;
  }
  EXPECT_TRUE(alarmed) << "drift never tripped the degradation alarm";
  ASSERT_GE(fired_window, 0) << "responder never fired";
  auto retrain = responder.LastRetrain("");
  ASSERT_TRUE(retrain.has_value());
  RetrainReport report = retrain->get();
  ASSERT_TRUE(report.published) << report.status.ToString();

  // Recovery regime: the retrained ensemble has the drifted vocabulary;
  // precision climbs back above threshold and stays there.
  double recovered = 0.0;
  for (int w = 0; w < kRecoveryWindows; ++w) {
    WindowResult result = s.NextWindow();
    ASSERT_TRUE(result.status.ok());
    recovered = result.quality.precision.estimate;
    responder.EvaluateNow();
  }
  EXPECT_GE(recovered, s.monitor.threshold())
      << "pipeline did not recover after the automatic retrain";
  EXPECT_FALSE(s.monitor.DegradationAlarm());

  // Thrash freedom: the whole episode cost exactly one retrain.
  EXPECT_EQ(responder.fires(), 1u);
  EXPECT_EQ(s.monitor.responder_fires(), 1u);
}

// The baseline arm: the same timeline with no responder never recovers.
// The responder arm ends kRecoveryWindows windows after the degraded
// window its retrain fired in, so its horizon ends somewhere between
// post-drift window kRecoveryWindows and the end of its window budget.
// At every such end the baseline's alarm is still up and its sampled
// precision is still below threshold, and nothing has retrained — the
// recovery above is the responder's doing, not the stream's.
TEST(SelfHealingTest, WithoutResponderDriftStaysAlarmedAndUnrecovered) {
  SelfHealingScenario s;
  const uint64_t warmed_generation = s.pipeline.semantic_generation();

  for (int w = 0; w < kHealthyWindows; ++w) {
    ASSERT_TRUE(s.NextWindow().status.ok());
  }
  EXPECT_FALSE(s.monitor.DegradationAlarm());

  s.InjectDrift();

  for (int w = 0; w < kDriftWindows + kRecoveryWindows; ++w) {
    WindowResult result = s.NextWindow();
    ASSERT_TRUE(result.status.ok());
    if (w < kRecoveryWindows) continue;
    EXPECT_TRUE(s.monitor.DegradationAlarm()) << "post-drift window " << w;
    EXPECT_LT(result.quality.precision.estimate, s.monitor.threshold())
        << "post-drift window " << w;
  }
  EXPECT_EQ(s.monitor.responder_fires(), 0u);
  EXPECT_EQ(s.pipeline.semantic_generation(), warmed_generation)
      << "an ensemble was installed with no responder watching";
}

}  // namespace
}  // namespace rulekit
