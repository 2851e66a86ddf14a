// §4 "Rule Maintenance": detecting subsumed / equivalent / overlapping
// rules (with the paper's own examples), flagging rules whose precision
// decays under drift, and retiring rules invalidated by a taxonomy split.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chimera/pipeline.h"
#include "src/common/stopwatch.h"
#include "src/data/catalog_generator.h"
#include "src/data/drift.h"
#include "src/gen/rule_miner.h"
#include "src/maint/drift_monitor.h"
#include "src/maint/overlap.h"
#include "src/maint/subsumption.h"
#include "src/rules/rule_parser.h"

namespace {
using namespace rulekit;

/// 20K literal-pattern rules spread over 200 synthetic types — the
/// "large deployed rule base" a maintenance edit lands in.
std::vector<rules::Rule> SyntheticRuleBase(size_t num_rules,
                                           size_t num_types) {
  std::vector<rules::Rule> out;
  out.reserve(num_rules);
  for (size_t i = 0; i < num_rules; ++i) {
    auto rule = rules::Rule::Whitelist(
        "syn-" + std::to_string(i), "prodtok" + std::to_string(i),
        "type-" + std::to_string(i % num_types));
    if (rule.ok()) out.push_back(std::move(rule).value());
  }
  return out;
}

/// Average milliseconds for a single-rule AddRules (commit + republish),
/// the edit loop a rule analyst lives in.
double TimeSingleRuleEdits(chimera::ChimeraPipeline& pipeline, int rounds,
                           const char* tag) {
  Stopwatch timer;
  for (int round = 0; round < rounds; ++round) {
    auto rule = rules::Rule::Whitelist(
        std::string("edit-") + tag + "-" + std::to_string(round),
        "edittok" + std::to_string(round),
        "type-" + std::to_string(round));
    (void)pipeline.AddRules({*rule}, "bench");
  }
  return timer.ElapsedMillis() / rounds;
}

}  // namespace

int main() {
  bench::Header("bench_maintenance", "§4 Rule Maintenance challenges");

  // ---- subsumption on the paper's examples --------------------------------
  bench::Section("subsumption detection (paper examples)");
  auto hand = rules::ParseRuleSet(R"(
whitelist j1: denim.*jeans? => jeans
whitelist j2: jeans? => jeans
whitelist w1: (abrasive|sand(er|ing))[ -](wheels?|discs?) => abrasive wheels & discs
whitelist w2: abrasive.*(wheels?|discs?) => abrasive wheels & discs
whitelist r1: rings? => rings
whitelist r2: ring|rings => rings
)");
  auto report = maint::FindSubsumedRules(*hand);
  std::printf("  pairs checked %zu, findings %zu, skipped %zu\n",
              report.pairs_checked, report.findings.size(),
              report.skipped_pairs);
  for (const auto& f : report.findings) {
    std::printf("    %-4s subsumed by %-4s%s\n", f.subsumed.c_str(),
                f.by.c_str(), f.equivalent ? "  (equivalent)" : "");
  }
  bench::PaperNote("\"denim.*jeans?\" should be detected as subsumed by "
                   "\"jeans?\" and removed;");
  bench::PaperNote("the two wheels&discs rules overlap but neither "
                   "subsumes the other.");

  // ---- subsumption at mined-rule scale ------------------------------------
  bench::Section("subsumption scan over a mined rule set");
  data::GeneratorConfig config;
  config.seed = 1007;
  config.num_types = 20;
  data::CatalogGenerator gen(config);
  auto labeled = gen.GenerateMany(15000);
  gen::RuleMinerConfig miner_config;
  miner_config.min_support = 0.02;
  auto outcome = gen::MineRules(labeled, miner_config);
  auto mined_set = std::make_shared<rules::RuleSet>();
  size_t id = 0;
  for (const auto& mined : outcome.selected) {
    auto rule = mined.ToRule("m" + std::to_string(id++));
    if (rule.ok()) (void)mined_set->Add(std::move(rule).value());
  }
  Stopwatch timer;
  auto mined_report = maint::FindSubsumedRules(*mined_set);
  std::printf("  %zu mined rules -> %zu pairs in %.2fs; %zu findings "
              "(%.0f%% decided by the token fast path)\n",
              mined_set->size(), mined_report.pairs_checked,
              timer.ElapsedSeconds(), mined_report.findings.size(),
              mined_report.pairs_checked == 0
                  ? 0.0
                  : 100.0 * mined_report.fast_path_hits /
                        mined_report.pairs_checked);

  // ---- overlap -------------------------------------------------------------
  bench::Section("coverage-overlap detection (consolidation candidates)");
  std::vector<data::ProductItem> corpus;
  for (auto& li : gen.GenerateMany(6000)) corpus.push_back(li.item);
  auto overlaps = maint::FindOverlappingRules(*hand, corpus, 0.3);
  for (const auto& o : overlaps) {
    std::printf("  %-4s ~ %-4s jaccard=%.2f (|A|=%zu |B|=%zu |A∩B|=%zu)\n",
                o.rule_a.c_str(), o.rule_b.c_str(), o.jaccard, o.coverage_a,
                o.coverage_b, o.intersection);
  }

  // ---- drift-induced decay and repair -------------------------------------
  bench::Section("drift: windowed precision decay, flagging, and repair");
  // A rule keyed to one type's *current* qualifier; concept drift then
  // introduces new qualifiers it doesn't know, and distribution drift
  // changes what it sees. Track a deliberately brittle rule: qualifier of
  // another type + this type's noun appearing via confusers.
  size_t cables = gen.SpecIndexOf("computer cables");
  auto brittle = *rules::Rule::Whitelist(
      "brittle", "usb", "computer cables");  // usb anything => cables
  maint::RulePrecisionMonitor monitor({.window_size = 200,
                                       .min_verdicts = 30,
                                       .precision_floor = 0.9});
  data::DriftConfig drift_config;
  drift_config.concept_drift_types_per_era = 5;
  data::DriftInjector drift(gen, drift_config);

  std::printf("  era  matches  windowed-precision  flagged\n");
  for (size_t era = 0; era <= 4; ++era) {
    if (era > 0) {
      auto event = drift.AdvanceEra();
      // Concept drift for the brittle rule's home type: "usb" qualifiers
      // spread into other types' titles (new cross-type products).
      for (size_t other = 0; other < gen.specs().size(); ++other) {
        if (other != cables && era >= 2 && other % (6 - era) == 0) {
          gen.AddQualifier(other, "usb");
        }
      }
      (void)event;
    }
    auto batch = gen.GenerateMany(3000);
    size_t matches = 0;
    for (const auto& li : batch) {
      if (!brittle.Applies(li.item)) continue;
      ++matches;
      monitor.RecordVerdict("brittle",
                            li.label == brittle.target_type());
    }
    auto flags = monitor.FlaggedRules();
    std::printf("  %-4zu %-8zu %-19.3f %s\n", era, matches,
                monitor.WindowedPrecision("brittle"),
                flags.empty() ? "-" : "FLAGGED");
  }
  bench::PaperNote("\"monitor and remove rules that become imprecise ... "
                   "the universe of products is constantly changing\"");

  // ---- taxonomy split ------------------------------------------------------
  bench::Section("taxonomy split invalidates rules (pants -> work pants, "
                 "jeans)");
  auto pants_rules = rules::ParseRuleSet(R"(
whitelist p1: pants? => pants
whitelist p2: slacks? => pants
whitelist j9: jeans? => jeans
)");
  data::Taxonomy taxonomy;
  taxonomy.AddType("pants");
  taxonomy.AddType("jeans");
  (void)taxonomy.SplitType("pants", {"work pants", "jeans"});
  auto inapplicable = maint::FindInapplicableRules(*pants_rules, taxonomy);
  for (const auto& r : inapplicable) {
    std::printf("  rule %-4s targets retired \"%s\"; rewrite against: ",
                r.rule_id.c_str(), r.retired_type.c_str());
    for (const auto& t : r.replacements) std::printf("%s, ", t.c_str());
    std::printf("\n");
  }
  bench::PaperNote("\"when 'pants' is divided into 'work pants' and "
                   "'jeans', the rules written for 'pants' become "
                   "inapplicable\"");

  // ---- sharded vs monolithic republish ------------------------------------
  bench::Section("rule-edit latency: sharded vs monolithic republish");
  const size_t kRules = bench::SmokeN(20000, 600);
  constexpr size_t kTypes = 200;
  constexpr size_t kShards = 16;
  constexpr int kEditRounds = 5;

  chimera::PipelineConfig mono_config;
  mono_config.use_learning = false;
  mono_config.rule_shards = 1;
  chimera::ChimeraPipeline monolithic(mono_config);
  (void)monolithic.AddRules(SyntheticRuleBase(kRules, kTypes), "seed");

  chimera::PipelineConfig sharded_config;
  sharded_config.use_learning = false;
  sharded_config.rule_shards = kShards;
  chimera::ChimeraPipeline sharded(sharded_config);
  (void)sharded.AddRules(SyntheticRuleBase(kRules, kTypes), "seed");

  double mono_ms = TimeSingleRuleEdits(monolithic, kEditRounds, "mono");
  double sharded_ms = TimeSingleRuleEdits(sharded, kEditRounds, "shard");
  double speedup = sharded_ms > 0 ? mono_ms / sharded_ms : 0.0;
  std::printf("  %zu rules, %zu types; avg single-rule AddRules+republish "
              "over %d edits\n",
              kRules, kTypes, kEditRounds);
  std::printf("  monolithic (1 shard):  %8.2f ms/edit\n", mono_ms);
  std::printf("  sharded   (%zu shards): %8.2f ms/edit   -> %.1fx faster\n",
              kShards, sharded_ms, speedup);
  bench::PaperNote("an edit should pay for the rules it touches, not the "
                   "whole deployed rule base");

  // Output invariance across shard count and threading, on live titles.
  std::vector<data::ProductItem> probe_items;
  for (size_t i = 0; i < kRules; i += 97) {
    data::ProductItem item;
    item.title = "prodtok" + std::to_string(i) + " widget";
    probe_items.push_back(std::move(item));
  }
  chimera::PipelineConfig par_config = sharded_config;
  par_config.batch_threads = 4;
  chimera::ChimeraPipeline parallel(par_config);
  (void)parallel.AddRules(SyntheticRuleBase(kRules, kTypes), "seed");
  auto mono_report = bench::RunBatch(monolithic, probe_items);
  auto shard_report = bench::RunBatch(sharded, probe_items);
  auto par_report = bench::RunBatch(parallel, probe_items);
  size_t mismatches = 0;
  for (size_t i = 0; i < probe_items.size(); ++i) {
    if (mono_report.predictions[i] != shard_report.predictions[i] ||
        shard_report.predictions[i] != par_report.predictions[i]) {
      ++mismatches;
    }
  }
  std::printf("  invariance probe: %zu titles, %zu mismatches "
              "(monolithic vs sharded vs sharded+parallel)\n",
              probe_items.size(), mismatches);
  return 0;
}
