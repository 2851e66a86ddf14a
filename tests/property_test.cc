// Cross-module property tests (parameterized over seeds): invariants of
// rule selection, the rule miner, the rule index, the Chimera voting
// semantics, and repository checkpointing, all on randomized
// inputs.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "src/chimera/pipeline.h"
#include "src/common/random.h"
#include "src/data/catalog_generator.h"
#include "src/engine/executor.h"
#include "src/eval/tracker.h"
#include "src/gen/rule_miner.h"
#include "src/gen/rule_selection.h"
#include "src/mining/apriori_all.h"
#include "src/rules/dictionary_registry.h"
#include "src/rules/rule_parser.h"
#include "src/storage/codec.h"
#include "src/text/aho_corasick.h"
#include "tests/seeded_test.h"

#include "tests/classify_shims.h"

namespace rulekit {
namespace {

class SeededTest : public SeedAwareTest {};

// ---------------------------------------------------------------------------
// Greedy selection invariants.
// ---------------------------------------------------------------------------

std::vector<gen::SelectionCandidate> RandomCandidates(Rng& rng, size_t n,
                                                      size_t universe) {
  std::vector<gen::SelectionCandidate> out(n);
  for (auto& c : out) {
    c.confidence = rng.NextDouble();
    size_t k = 1 + rng.Uniform(universe / 4 + 1);
    auto items = rng.SampleWithoutReplacement(universe, k);
    c.covered.assign(items.begin(), items.end());
    std::sort(c.covered.begin(), c.covered.end());
  }
  return out;
}

TEST_P(SeededTest, GreedySelectionInvariants) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    size_t universe = 20 + rng.Uniform(60);
    auto cands = RandomCandidates(rng, 5 + rng.Uniform(30), universe);
    size_t q = 1 + rng.Uniform(10);
    for (bool biased : {false, true}) {
      auto picked = biased
                        ? gen::GreedyBiasedSelect(cands, universe, q, 0.5)
                        : gen::GreedySelect(cands, universe, q);
      // Quota respected, no duplicates.
      EXPECT_LE(picked.size(), q);
      std::set<size_t> unique(picked.begin(), picked.end());
      EXPECT_EQ(unique.size(), picked.size());
      // Every selected rule added new coverage at selection time:
      // replaying the selection must grow coverage strictly.
      std::set<uint32_t> covered;
      for (size_t i : picked) {
        size_t before = covered.size();
        covered.insert(cands[i].covered.begin(), cands[i].covered.end());
        EXPECT_GT(covered.size(), before) << "rule added no coverage";
      }
    }
  }
}

TEST_P(SeededTest, GreedyBiasedSelectsHighPoolFirst) {
  Rng rng(GetParam() + 100);
  for (int iter = 0; iter < 10; ++iter) {
    size_t universe = 30;
    auto cands = RandomCandidates(rng, 20, universe);
    auto biased = gen::GreedyBiasedSelect(cands, universe, 8, 0.5);
    // Algorithm 2's defining property: in selection order, once a
    // low-confidence rule appears, no high-confidence rule follows.
    bool seen_low = false;
    for (size_t i : biased) {
      if (cands[i].confidence < 0.5) {
        seen_low = true;
      } else {
        EXPECT_FALSE(seen_low)
            << "high-confidence rule selected after a low-confidence one";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule miner: selected rules never misfire on the training data.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, MinedRulesConsistentOnTraining) {
  data::GeneratorConfig config;
  config.seed = GetParam();
  config.num_types = 10;
  data::CatalogGenerator gen(config);
  auto labeled = gen.GenerateMany(1500);
  gen::RuleMinerConfig miner_config;
  miner_config.min_support = 0.05;
  auto outcome = gen::MineRules(labeled, miner_config);
  size_t checked = 0;
  for (const auto& mined : outcome.selected) {
    auto rule = mined.ToRule("m" + std::to_string(checked));
    ASSERT_TRUE(rule.ok());
    for (const auto& li : labeled) {
      if (li.label != mined.type) {
        EXPECT_FALSE(rule->Applies(li.item))
            << mined.Pattern() << " for " << mined.type << " matched "
            << li.label << ": " << li.item.title;
      }
    }
    if (++checked >= 25) break;  // bound test cost
  }
  EXPECT_GT(checked, 0u);
}

// ---------------------------------------------------------------------------
// Mined sequences really are frequent subsequences.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, FrequentSequencesHaveTrueSupport) {
  Rng rng(GetParam() + 300);
  std::vector<std::vector<text::TokenId>> docs;
  for (int d = 0; d < 120; ++d) {
    std::vector<text::TokenId> doc;
    size_t len = 2 + rng.Uniform(7);
    for (size_t i = 0; i < len; ++i) {
      doc.push_back(static_cast<text::TokenId>(rng.Uniform(12)));
    }
    docs.push_back(std::move(doc));
  }
  mining::SequenceMiningOptions options;
  options.min_support = 0.1;
  options.min_length = 2;
  options.max_length = 3;
  auto result = mining::MineFrequentSequences(docs, options);
  for (const auto& fs : result) {
    size_t count = 0;
    for (const auto& doc : docs) {
      if (mining::IsSubsequence(fs.tokens, doc)) ++count;
    }
    EXPECT_EQ(count, fs.support_count);
    EXPECT_GE(count, static_cast<size_t>(0.1 * docs.size()));
  }
}

// ---------------------------------------------------------------------------
// Rule index: indexed and scan execution agree on random rule sets.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, IndexedExecutionEqualsScan) {
  data::GeneratorConfig config;
  config.seed = GetParam() + 400;
  config.num_types = 15;
  data::CatalogGenerator gen(config);
  Rng rng(GetParam() + 401);

  // Random rules built from the generator vocabulary.
  auto set = std::make_shared<rules::RuleSet>();
  size_t id = 0;
  for (int r = 0; r < 40; ++r) {
    const auto& spec = gen.specs()[rng.Uniform(gen.specs().size())];
    std::string pattern;
    switch (rng.Uniform(3)) {
      case 0:
        pattern = spec.head_nouns[rng.Uniform(spec.head_nouns.size())];
        break;
      case 1:
        pattern = spec.qualifiers[rng.Uniform(spec.qualifiers.size())] +
                  ".*" + spec.head_nouns[0];
        break;
      default:
        pattern = "(" + spec.head_nouns[0] + "|" +
                  spec.qualifiers[rng.Uniform(spec.qualifiers.size())] +
                  ")s?";
    }
    auto rule = rules::Rule::Whitelist("r" + std::to_string(id++), pattern,
                                       spec.name);
    if (rule.ok()) (void)set->Add(std::move(rule).value());
  }
  std::vector<data::ProductItem> items;
  for (auto& li : gen.GenerateMany(300)) items.push_back(li.item);

  engine::RuleExecutor scan(*set, {.use_index = false});
  engine::RuleExecutor indexed(*set, {.use_index = true});
  auto a = scan.Execute(items);
  auto b = indexed.Execute(items);
  EXPECT_EQ(a.matches_per_item, b.matches_per_item);
  EXPECT_LE(b.stats.rule_evaluations, a.stats.rule_evaluations);
}

// ---------------------------------------------------------------------------
// Chimera: order of rule insertion never changes batch predictions.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, PipelinePredictionsInvariantUnderRuleOrder) {
  data::GeneratorConfig config;
  config.seed = GetParam() + 500;
  config.num_types = 8;
  data::CatalogGenerator gen(config);
  Rng rng(GetParam() + 501);

  std::vector<std::string> dsl_lines;
  for (const auto& spec : gen.specs()) {
    dsl_lines.push_back("whitelist w-" + spec.name + ": " +
                        spec.head_nouns[0] + "s? => " + spec.name);
    dsl_lines.push_back("blacklist b-" + spec.name + ": trial " +
                        spec.head_nouns[0] + " => " + spec.name);
  }
  auto batch = gen.GenerateMany(150);
  std::vector<data::ProductItem> items;
  for (const auto& li : batch) items.push_back(li.item);

  std::vector<std::optional<std::string>> reference;
  for (int perm = 0; perm < 4; ++perm) {
    chimera::ChimeraPipeline pipeline;
    std::string dsl;
    for (const auto& l : dsl_lines) dsl += l + "\n";
    auto parsed = rules::ParseRules(dsl);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    ASSERT_TRUE(pipeline.AddRules(std::move(parsed).value(), "t").ok());
    auto report = RunBatch(pipeline, items);
    if (perm == 0) {
      reference = report.predictions;
    } else {
      EXPECT_EQ(report.predictions, reference);
    }
    rng.Shuffle(dsl_lines);
  }
}

// ---------------------------------------------------------------------------
// Repository: checkpoint/restore is a faithful snapshot under random ops.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, CheckpointRestoreFaithful) {
  Rng rng(GetParam() + 700);
  rules::RuleRepository repo;
  std::vector<std::string> ids;
  for (int i = 0; i < 15; ++i) {
    std::string id = "r" + std::to_string(i);
    ASSERT_TRUE(
        repo.Add(*rules::Rule::Whitelist(id, "tok" + std::to_string(i),
                                         "t"),
                 "init")
            .ok());
    ids.push_back(id);
  }
  // Random mutations, snapshot, more mutations, restore.
  auto mutate = [&] {
    const std::string& id = ids[rng.Uniform(ids.size())];
    switch (rng.Uniform(3)) {
      case 0: (void)repo.Disable(id, "fuzz", ""); break;
      case 1: (void)repo.Enable(id, "fuzz"); break;
      default: (void)repo.SetConfidence(id, rng.NextDouble(), "fuzz");
    }
  };
  for (int i = 0; i < 20; ++i) mutate();
  // Record the state.
  std::map<std::string, std::pair<rules::RuleState, double>> expected;
  for (const auto& rule : repo.rules().rules()) {
    expected[rule.id()] = {rule.metadata().state,
                           rule.metadata().confidence};
  }
  uint64_t version = *repo.Checkpoint("fuzz");
  for (int i = 0; i < 20; ++i) mutate();
  ASSERT_TRUE(repo.RestoreCheckpoint(version, "fuzz").ok());
  for (const auto& rule : repo.rules().rules()) {
    const auto& [state, confidence] = expected[rule.id()];
    EXPECT_EQ(rule.metadata().state, state) << rule.id();
    EXPECT_DOUBLE_EQ(rule.metadata().confidence, confidence) << rule.id();
  }
}

// ---------------------------------------------------------------------------
// Budgeted evaluation plans never exceed the budget.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, EvaluationPlanRespectsBudget) {
  data::GeneratorConfig config;
  config.seed = GetParam() + 800;
  config.num_types = 10;
  data::CatalogGenerator gen(config);
  auto set_dsl = std::string();
  for (const auto& spec : gen.specs()) {
    set_dsl += "whitelist w-" + spec.name + ": " + spec.head_nouns[0] +
               "s? => " + spec.name + "\n";
  }
  auto parsed = rules::ParseRuleSet(set_dsl);
  ASSERT_TRUE(parsed.ok());
  std::vector<data::ProductItem> items;
  for (auto& li : gen.GenerateMany(1500)) items.push_back(li.item);
  eval::ImpactTracker tracker(10);
  tracker.RecordBatch(*parsed, items);

  Rng rng(GetParam() + 801);
  for (int trial = 0; trial < 10; ++trial) {
    size_t budget = rng.Uniform(200);
    size_t per_rule = 1 + rng.Uniform(40);
    auto plan = eval::PlanBudgetedEvaluation(tracker, budget, per_rule);
    EXPECT_LE(plan.estimated_questions, budget);
    // Most impactful first.
    for (size_t i = 1; i < plan.to_evaluate.size(); ++i) {
      EXPECT_GE(tracker.MatchCount(plan.to_evaluate[i - 1]),
                tracker.MatchCount(plan.to_evaluate[i]));
    }
  }
}

// ---------------------------------------------------------------------------
// Predicate DSL: ToString round-trips through the parser with identical
// semantics.
// ---------------------------------------------------------------------------

rules::PredicatePtr RandomPredicate(Rng& rng,
                                    const rules::DictionaryRegistry& dicts,
                                    int depth) {
  if (depth <= 0 || rng.Bernoulli(0.4)) {
    switch (rng.Uniform(7)) {
      case 0: return rules::TitleContains("ring");
      case 1: return rules::AttributeExists("ISBN");
      case 2: return rules::AttributeEquals("Brand", "apple");
      case 3: return rules::PriceBelow(10.0 + rng.NextDouble() * 90.0);
      case 4: return rules::PriceAbove(10.0 + rng.NextDouble() * 90.0);
      case 5:
        return rules::DictionaryContains(dicts.Find("bag words"),
                                         "bag words");
      default: {
        auto re = regex::Regex::CompileCaseFolded("(gold|silver) rings?");
        return rules::TitleMatches(std::move(re).value());
      }
    }
  }
  switch (rng.Uniform(3)) {
    case 0:
      return rules::And(RandomPredicate(rng, dicts, depth - 1),
                        RandomPredicate(rng, dicts, depth - 1));
    case 1:
      return rules::Or(RandomPredicate(rng, dicts, depth - 1),
                       RandomPredicate(rng, dicts, depth - 1));
    default:
      return rules::Not(RandomPredicate(rng, dicts, depth - 1));
  }
}

TEST_P(SeededTest, PredicateToStringRoundTrips) {
  Rng rng(GetParam() + 900);
  rules::DictionaryRegistry dicts;
  dicts.RegisterPhrases("bag words", {"satchel", "purse", "tote"});

  // Probe items covering the predicates' feature space.
  std::vector<data::ProductItem> probes;
  for (const char* title :
       {"gold ring", "silver rings deluxe", "leather satchel", "plain"}) {
    for (double price : {5.0, 50.0, 500.0}) {
      data::ProductItem item;
      item.title = title;
      item.SetAttribute("Price", std::to_string(price));
      if (price > 100) item.SetAttribute("ISBN", "978");
      if (price < 10) item.SetAttribute("Brand", "apple");
      probes.push_back(item);
    }
  }

  for (int iter = 0; iter < 25; ++iter) {
    auto original = RandomPredicate(rng, dicts, 3);
    auto reparsed = rules::ParsePredicate(original->ToString(), &dicts);
    ASSERT_TRUE(reparsed.ok())
        << original->ToString() << ": " << reparsed.status().ToString();
    for (const auto& probe : probes) {
      EXPECT_EQ(original->Eval(probe), (*reparsed)->Eval(probe))
          << original->ToString();
    }
  }
}

// ---------------------------------------------------------------------------
// Aho-Corasick agrees with naive substring search.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, AhoCorasickAgreesWithNaiveSearch) {
  Rng rng(GetParam() + 1000);
  for (int iter = 0; iter < 15; ++iter) {
    // Random patterns over a tiny alphabet maximize overlaps.
    std::vector<std::string> patterns;
    text::AhoCorasick ac;
    for (uint32_t p = 0; p < 12; ++p) {
      std::string pattern;
      size_t len = 1 + rng.Uniform(5);
      for (size_t i = 0; i < len; ++i) {
        pattern += static_cast<char>('a' + rng.Uniform(3));
      }
      patterns.push_back(pattern);
      ac.Add(pattern, p);
    }
    ac.Build();
    for (int t = 0; t < 20; ++t) {
      std::string textv;
      size_t len = rng.Uniform(25);
      for (size_t i = 0; i < len; ++i) {
        textv += static_cast<char>('a' + rng.Uniform(3));
      }
      auto hits = ac.CollectUnique(textv);
      std::set<uint32_t> expected;
      for (uint32_t p = 0; p < patterns.size(); ++p) {
        if (textv.find(patterns[p]) != std::string::npos) {
          expected.insert(p);
        }
      }
      EXPECT_EQ(std::set<uint32_t>(hits.begin(), hits.end()), expected)
          << "text=" << textv;
    }
  }
}

// ---------------------------------------------------------------------------
// FindAll: spans are in-bounds, ordered, and non-overlapping.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, FindAllSpansWellFormed) {
  Rng rng(GetParam() + 1100);
  const char* patterns[] = {"a+", "(ab|b)", "a?b", "\\w\\w", "b.*a"};
  for (const char* pattern : patterns) {
    auto re = regex::Regex::Compile(pattern);
    ASSERT_TRUE(re.ok());
    for (int t = 0; t < 30; ++t) {
      std::string textv;
      size_t len = rng.Uniform(15);
      for (size_t i = 0; i < len; ++i) {
        textv += "ab "[rng.Uniform(3)];
      }
      auto matches = re->FindAll(textv);
      size_t prev_end = 0;
      bool first = true;
      for (const auto& m : matches) {
        EXPECT_LE(m.overall.begin, m.overall.end);
        EXPECT_LE(m.overall.end, textv.size());
        if (!first) {
          EXPECT_GE(m.overall.begin, prev_end);
        }
        prev_end = std::max(prev_end, m.overall.end);
        first = false;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Storage codec: encode/decode is the identity on randomized rules.
// ---------------------------------------------------------------------------

TEST_P(SeededTest, CodecRoundTripsMinedRules) {
  data::GeneratorConfig config;
  config.seed = GetParam() + 1200;
  config.num_types = 8;
  data::CatalogGenerator gen(config);
  auto labeled = gen.GenerateMany(800);
  gen::RuleMinerConfig miner_config;
  miner_config.min_support = 0.05;
  auto outcome = gen::MineRules(labeled, miner_config);
  ASSERT_GT(outcome.selected.size(), 0u);

  Rng rng(GetParam() + 1300);
  size_t checked = 0;
  for (const auto& mined : outcome.selected) {
    auto rule = mined.ToRule("mined-" + std::to_string(checked));
    ASSERT_TRUE(rule.ok());
    // Randomized metadata so every field crosses the codec.
    rule->metadata().author = "miner-" + std::to_string(rng.Uniform(100));
    rule->metadata().origin = rules::RuleOrigin::kMined;
    rule->metadata().created_at = rng.Uniform(1 << 20);
    rule->metadata().confidence = rng.NextDouble();
    rule->metadata().state = rng.Uniform(2) == 0 ? rules::RuleState::kActive
                                                 : rules::RuleState::kDisabled;
    rule->metadata().note = rng.Uniform(2) == 0 ? "" : "note\twith tab";

    storage::Encoder enc;
    storage::EncodeRule(*rule, enc);
    storage::Decoder dec(enc.data());
    auto decoded = storage::DecodeRule(dec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_TRUE(dec.AtEnd());

    // Re-encoding the decoded rule must reproduce the exact bytes: the
    // codec is a fixed point, so byte equality is full field equality.
    storage::Encoder enc2;
    storage::EncodeRule(*decoded, enc2);
    EXPECT_EQ(enc2.data(), enc.data()) << rule->ToDsl();
    EXPECT_EQ(decoded->ToDsl(), rule->ToDsl());
    if (++checked >= 40) break;  // bound test cost
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(SeededTest, CodecRoundTripsParsedDsl) {
  // Rules arriving through the text parser (the analyst path) round-trip
  // through the binary codec with their DSL form intact.
  auto parsed = rules::ParseRules(R"(
whitelist w1: (diamond|gold) rings? => rings
blacklist b1: toe rings? => rings
attr a1: has(ISBN) => books
attrval v1: Brand = "acme" => tools | hardware
pred p1: title ~ "wrench(es)?" and not has(ISBN) => tools
)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  for (const auto& rule : *parsed) {
    storage::Encoder enc;
    storage::EncodeRule(rule, enc);
    storage::Decoder dec(enc.data());
    auto decoded = storage::DecodeRule(dec);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->ToDsl(), rule.ToDsl());
    storage::Encoder enc2;
    storage::EncodeRule(*decoded, enc2);
    EXPECT_EQ(enc2.data(), enc.data()) << rule.ToDsl();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, SeededTest,
    ::testing::ValuesIn(SeedsOrOverride({11u, 22u, 33u, 44u})));

}  // namespace
}  // namespace rulekit
