// §4 "Rule Execution and Optimization" + §5.2 scoring: the offline
// rule-set optimization pass over a large deployed rule base. Builds a
// ~20K-rule corpus with planted redundancy (subsumed qualifier variants,
// equivalent duplicates, co-firing merge pairs, zero-coverage dead
// rules), plans an optimization against a reference corpus, applies it
// through the pipeline's transactional API, and measures executed
// rules-per-item and end-to-end batch throughput before/after — the
// claim under test is a >= 20% reduction with byte-identical
// classifications.

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/chimera/pipeline.h"
#include "src/common/stopwatch.h"
#include "src/common/string_util.h"
#include "src/data/catalog_generator.h"
#include "src/maint/optimizer.h"
#include "src/rules/rule.h"

namespace {
using namespace rulekit;

const size_t kTargetRules = rulekit::bench::SmokeN(20000, 800);
constexpr size_t kNumTypes = 200;
const size_t kCorpusItems = rulekit::bench::SmokeN(8000, 500);
const size_t kDeadRules = rulekit::bench::SmokeN(500, 50);
constexpr size_t kMergeTypes = 20;
const int kThroughputReps = static_cast<int>(rulekit::bench::SmokeN(3, 1));

/// The planted rule base: per type a broad noun rule, an equivalent
/// duplicate, single-qualifier refinements (each subsumed by the broad
/// rule), and qualifier-pair refinements (subsumed twice over) — the
/// shape an analyst-plus-miner rule base converges to (§4). Merge types
/// additionally carry a co-firing token pair, and `kDeadRules` rules
/// match nothing in the catalog at low confidence (the §5.2 prune bait).
std::vector<rules::Rule> BuildRuleBase(
    const std::vector<data::TypeSpec>& specs,
    const std::set<std::string>& merge_types) {
  std::vector<rules::Rule> out;
  out.reserve(kTargetRules + kDeadRules + 2 * kMergeTypes);
  auto add = [&](std::string id, const std::string& pattern,
                 const std::string& type, double confidence = 1.0) {
    auto rule = rules::Rule::Whitelist(std::move(id), pattern, type);
    if (!rule.ok()) return;
    rule->metadata().confidence = confidence;
    out.push_back(std::move(rule).value());
  };

  for (size_t round = 0; out.size() < kTargetRules; ++round) {
    const size_t before = out.size();
    for (size_t s = 0; s < specs.size() && out.size() < kTargetRules; ++s) {
      const auto& spec = specs[s];
      if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
      const std::string noun = RegexEscape(spec.head_nouns[0]);
      const std::string tag = "t" + std::to_string(s);
      if (round == 0) {
        // Every third type gets no broad covering rule: its single-
        // qualifier rules survive the plan, so the corpus-aware
        // re-bucketing stage has multi-literal survivors to move.
        if (s % 3 == 2) continue;
        add(tag + "-broad", noun, spec.name);
        add(tag + "-dup", noun, spec.name);  // equivalent twin
      } else if (round <= spec.qualifiers.size()) {
        add(tag + "-q" + std::to_string(round - 1),
            RegexEscape(spec.qualifiers[round - 1]) + ".*" + noun, spec.name);
      } else {
        const size_t a = (round - 1) % spec.qualifiers.size();
        const size_t b = (round / 2) % spec.qualifiers.size();
        add(tag + "-p" + std::to_string(round),
            RegexEscape(spec.qualifiers[a]) + ".*" +
                RegexEscape(spec.qualifiers[b]) + ".*" + noun,
            spec.name);
      }
    }
    if (out.size() == before) break;  // vocabulary exhausted
  }

  // Co-firing merge pairs: disjoint planted tokens that always appear
  // together in the corpus (jaccard 1.0, equal confidence, neither
  // subsumes the other).
  size_t merge_index = 0;
  for (size_t s = 0; s < specs.size(); ++s) {
    if (merge_types.count(specs[s].name) == 0) continue;
    const std::string k = std::to_string(merge_index++);
    add("t" + std::to_string(s) + "-mrga", "mrgalpha" + k, specs[s].name);
    add("t" + std::to_string(s) + "-mrgb", "mrgbeta" + k, specs[s].name);
  }

  // Dead rules: zero corpus coverage at sub-ceiling confidence.
  for (size_t i = 0; i < kDeadRules; ++i) {
    add("dead-" + std::to_string(i), "deadtok" + std::to_string(i),
        specs[i % specs.size()].name, 0.5);
  }
  return out;
}

struct Measurement {
  double epi = 0.0;        // executed rules per rule-executed item
  double items_per_s = 0.0;
  chimera::BatchReport report;
};

Measurement Measure(const chimera::ChimeraPipeline& pipeline,
                    const std::vector<data::ProductItem>& corpus) {
  Measurement m;
  Stopwatch timer;
  for (int rep = 0; rep < kThroughputReps; ++rep) {
    m.report = bench::RunBatch(pipeline, corpus);
  }
  const double seconds = timer.ElapsedSeconds();
  m.epi = m.report.ExecutedRulesPerItem();
  m.items_per_s =
      seconds == 0.0 ? 0.0 : kThroughputReps * corpus.size() / seconds;
  return m;
}

size_t CountMismatches(const chimera::BatchReport& a,
                       const chimera::BatchReport& b) {
  size_t mismatches = 0;
  for (size_t i = 0; i < a.predictions.size(); ++i) {
    if (a.predictions[i] != b.predictions[i]) ++mismatches;
  }
  return mismatches;
}

}  // namespace

int main() {
  bench::Header("bench_optimizer",
                "§4 rule execution/maintenance + §5.2 scoring: offline "
                "rule-set optimization pass");

  // ---- fixture ------------------------------------------------------------
  data::GeneratorConfig config;
  config.seed = 1013;
  config.num_types = kNumTypes;
  data::CatalogGenerator gen(config);

  std::set<std::string> merge_types;
  std::map<std::string, std::string> merge_suffix;
  for (const auto& spec : gen.specs()) {
    if (merge_types.size() >= kMergeTypes) break;
    if (spec.head_nouns.empty() || spec.qualifiers.empty()) continue;
    merge_suffix[spec.name] =
        " mrgalpha" + std::to_string(merge_types.size()) + " mrgbeta" +
        std::to_string(merge_types.size());
    merge_types.insert(spec.name);
  }

  auto rule_base = BuildRuleBase(gen.specs(), merge_types);
  std::vector<data::ProductItem> corpus;
  corpus.reserve(kCorpusItems);
  size_t augmented = 0;
  for (auto& li : gen.GenerateMany(kCorpusItems)) {
    auto it = merge_suffix.find(li.label);
    // Half of each merge type's titles carry the co-firing pair, so the
    // pair's mutual jaccard (1.0) beats its jaccard against the type's
    // broad rule (~0.5) and the planner merges the right rules.
    if (it != merge_suffix.end() && (augmented++ % 2) == 0) {
      li.item.title += it->second;
    }
    corpus.push_back(std::move(li.item));
  }
  std::printf("  %zu rules over %zu types, %zu corpus items\n",
              rule_base.size(), gen.specs().size(), corpus.size());

  // ---- baseline -----------------------------------------------------------
  bench::Section("baseline batch (structural index, full rule base)");
  chimera::ChimeraPipeline pipeline;
  {
    Stopwatch timer;
    if (!pipeline.AddRules(rule_base, "bench").ok()) {
      std::printf("  FATAL: AddRules failed\n");
      return 1;
    }
    std::printf("  publish %.0f ms\n", timer.ElapsedMillis());
  }
  auto before = Measure(pipeline, corpus);
  std::printf("  executed rules/item %.2f, %.0f items/s (coverage %.2f)\n",
              before.epi, before.items_per_s, before.report.coverage());

  // ---- plan ---------------------------------------------------------------
  bench::Section("PlanOptimization");
  maint::OptimizerOptions options;
  options.merge_min_jaccard = 0.9;
  Stopwatch plan_timer;
  auto plan = maint::PlanOptimization(pipeline.rule_set(), corpus, options);
  const double plan_seconds = plan_timer.ElapsedSeconds();
  std::printf("  %s\n", plan.Summary().c_str());
  std::printf("  planned in %.2fs\n", plan_seconds);
  bench::PaperNote("the paper reports rule bases of 10K+ rules where "
                   "subsumed/overlapping/low-value rules accumulate over "
                   "years of maintenance (§4).");

  // ---- apply --------------------------------------------------------------
  bench::Section("ApplyOptimizationPlan (transactional, via pipeline)");
  Stopwatch apply_timer;
  Status applied = pipeline.Mutate(
      "optimizer", [&](rules::RuleTransaction& txn) {
        return maint::StageOptimizationPlan(txn, plan);
      });
  const double apply_ms = apply_timer.ElapsedMillis();
  if (!applied.ok()) {
    std::printf("  FATAL: apply failed: %s\n", applied.ToString().c_str());
    return 1;
  }
  std::printf("  applied %zu retires, %zu adds, %zu disables in %.0f ms\n",
              plan.drops.size() + 2 * plan.merges.size(), plan.merges.size(),
              plan.prunes.size(), apply_ms);
  std::printf("  active rules %zu -> %zu\n", rule_base.size(),
              pipeline.rule_set().CountActive());

  auto after = Measure(pipeline, corpus);
  const size_t mismatches = CountMismatches(before.report, after.report);
  std::printf("  executed rules/item %.2f, %.0f items/s\n", after.epi,
              after.items_per_s);

  // ---- optimized + corpus-aware index ------------------------------------
  bench::Section("optimized rule set + corpus-aware re-bucketed index");
  chimera::PipelineConfig rebucket_config;
  rebucket_config.index_sample_titles = plan.index_sample;
  chimera::ChimeraPipeline rebucketed(rebucket_config);
  size_t rebucket_mismatches = 0;
  Measurement reb;
  if (rebucketed.AddRules(rule_base, "bench").ok() &&
      rebucketed
          .Mutate("optimizer",
                  [&](rules::RuleTransaction& txn) {
                    return maint::StageOptimizationPlan(txn, plan);
                  })
          .ok()) {
    reb = Measure(rebucketed, corpus);
    rebucket_mismatches = CountMismatches(before.report, reb.report);
    std::printf("  executed rules/item %.2f, %.0f items/s "
                "(candidates/item %.2f -> %.2f), %zu prediction "
                "mismatches\n",
                reb.epi, reb.items_per_s,
                plan.rebucket.candidates_per_item_before,
                plan.rebucket.candidates_per_item_after,
                rebucket_mismatches);
  }

  // ---- verdict ------------------------------------------------------------
  bench::Section("verdict");
  const double reduction =
      before.epi == 0.0 ? 0.0 : 1.0 - after.epi / before.epi;
  const double speedup =
      before.items_per_s == 0.0 ? 0.0 : after.items_per_s / before.items_per_s;
  std::printf("  executed-rules-per-item: %.2f -> %.2f (%.1f%% reduction; "
              "target >= 20%%: %s)\n",
              before.epi, after.epi, 100.0 * reduction,
              reduction >= 0.2 ? "met" : "NOT met");
  std::printf("  throughput: %.0f -> %.0f items/s (%.2fx)\n",
              before.items_per_s, after.items_per_s, speedup);
  std::printf("  prediction mismatches: %zu of %zu (confidence prunes "
              "touched %zu corpus items)\n",
              mismatches, corpus.size(), plan.prune_affected_items);
  return 0;
}
