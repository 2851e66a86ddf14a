#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>

#include "src/rules/dictionary_registry.h"
#include "src/rules/predicate.h"
#include "src/rules/repository.h"
#include "src/rules/rule.h"
#include "src/rules/rule_parser.h"
#include "src/rules/rule_set.h"

namespace rulekit::rules {
namespace {

data::ProductItem MakeItem(std::string title) {
  data::ProductItem item;
  item.id = "x";
  item.title = std::move(title);
  return item;
}

// ---------------------------------------------------------------- Pattern --

TEST(NormalizePatternTest, StripsDecorativeSpaces) {
  EXPECT_EQ(Rule::NormalizePattern("(motor | engine) oils?"),
            "(motor|engine) oils?");
  EXPECT_EQ(Rule::NormalizePattern("( a | b )x"), "(a|b)x");
  // Significant spaces survive.
  EXPECT_EQ(Rule::NormalizePattern("wedding band"), "wedding band");
  EXPECT_EQ(Rule::NormalizePattern("a b|c d"), "a b|c d");
}

// ------------------------------------------------------------------- Rule --

TEST(RuleTest, WhitelistAppliesToMatchingTitle) {
  auto rule = Rule::Whitelist("r1", "rings?", "rings");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ(rule->kind(), RuleKind::kWhitelist);
  EXPECT_EQ(rule->target_type(), "rings");
  EXPECT_TRUE(rule->is_positive());
  EXPECT_TRUE(rule->Applies(MakeItem("diamond accent RING in gold")));
  EXPECT_FALSE(rule->Applies(MakeItem("gold necklace")));
}

TEST(RuleTest, PaperStylePatternParses) {
  auto rule = Rule::Whitelist("r2", "(motor | engine) oils?", "motor oil");
  ASSERT_TRUE(rule.ok());
  EXPECT_TRUE(rule->Applies(MakeItem("castrol MOTOR OIL 5qt")));
  EXPECT_TRUE(rule->Applies(MakeItem("engine oils synthetic")));
  EXPECT_FALSE(rule->Applies(MakeItem("olive oil")));
}

TEST(RuleTest, BlacklistIsNegative) {
  auto rule = Rule::Blacklist("b1", "toe rings?", "rings");
  ASSERT_TRUE(rule.ok());
  EXPECT_FALSE(rule->is_positive());
  EXPECT_TRUE(rule->Applies(MakeItem("silver toe ring")));
}

TEST(RuleTest, BadPatternFailsCompilation) {
  EXPECT_FALSE(Rule::Whitelist("bad", "(unclosed", "rings").ok());
}

TEST(RuleTest, AttributeExists) {
  Rule rule = Rule::AttributeExists("isbn1", "ISBN", "books");
  data::ProductItem book = MakeItem("some title");
  book.SetAttribute("ISBN", "9781111111111");
  EXPECT_TRUE(rule.Applies(book));
  EXPECT_FALSE(rule.Applies(MakeItem("some title")));
}

TEST(RuleTest, AttributeValueCaseInsensitive) {
  Rule rule = Rule::AttributeValue("apple1", "Brand", "Apple",
                                   {"smart phones", "laptop computers"});
  data::ProductItem item = MakeItem("device");
  item.SetAttribute("Brand", "APPLE");
  EXPECT_TRUE(rule.Applies(item));
  EXPECT_EQ(rule.candidate_types().size(), 2u);
  item.SetAttribute("Brand", "dell");
  EXPECT_FALSE(rule.Applies(item));
}

TEST(RuleTest, DslRoundTrip) {
  auto original = Rule::Whitelist("w1", "denim.*jeans?", "jeans");
  ASSERT_TRUE(original.ok());
  auto reparsed = ParseRules(original->ToDsl());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->size(), 1u);
  EXPECT_EQ((*reparsed)[0].id(), "w1");
  EXPECT_EQ((*reparsed)[0].kind(), RuleKind::kWhitelist);
  EXPECT_EQ((*reparsed)[0].pattern_text(), "denim.*jeans?");
  EXPECT_EQ((*reparsed)[0].target_type(), "jeans");
}

// -------------------------------------------------------------- Predicate --

TEST(PredicateTest, PaperApplePhoneExample) {
  // "if the title contains 'Apple' but the price is less than $100 then
  // the product is not a phone" (§4).
  auto pred = And(TitleContains("apple"), PriceBelow(100.0));
  Rule rule = Rule::FromPredicate("p1", pred, "smart phones",
                                  /*positive=*/false);
  data::ProductItem cheap = MakeItem("apple phone case");
  cheap.SetAttribute("Price", "12.99");
  EXPECT_TRUE(rule.Applies(cheap));
  EXPECT_FALSE(rule.is_positive());

  data::ProductItem pricey = MakeItem("apple iphone 6");
  pricey.SetAttribute("Price", "649.00");
  EXPECT_FALSE(rule.Applies(pricey));
}

TEST(PredicateTest, DictionaryPredicate) {
  auto dict = std::make_shared<text::Dictionary>();
  dict->AddAll({"satchel", "purse", "tote"});
  auto pred = DictionaryContains(dict, "handbag_words");
  EXPECT_TRUE(pred->Eval(MakeItem("leather satchel brown")));
  EXPECT_FALSE(pred->Eval(MakeItem("leather wallet")));
}

TEST(PredicateTest, Combinators) {
  auto p = Or(Not(AttributeExists("X")), AttributeEquals("X", "y"));
  data::ProductItem no_x = MakeItem("t");
  EXPECT_TRUE(p->Eval(no_x));
  data::ProductItem with_y = MakeItem("t");
  with_y.SetAttribute("X", "Y");
  EXPECT_TRUE(p->Eval(with_y));
  data::ProductItem with_z = MakeItem("t");
  with_z.SetAttribute("X", "z");
  EXPECT_FALSE(p->Eval(with_z));
}

TEST(PredicateTest, PriceEdgeCases) {
  auto below = PriceBelow(10.0);
  auto above = PriceAbove(10.0);
  data::ProductItem no_price = MakeItem("t");
  EXPECT_FALSE(below->Eval(no_price));
  EXPECT_FALSE(above->Eval(no_price));
  data::ProductItem exact = MakeItem("t");
  exact.SetAttribute("Price", "10.00");
  EXPECT_FALSE(below->Eval(exact));
  EXPECT_FALSE(above->Eval(exact));
}

// ----------------------------------------------------------------- Parser --

TEST(ParserTest, ParsesAllRuleKinds) {
  const char* dsl = R"(
# Chimera-style rules
whitelist rings1: rings? => rings
blacklist toe1: toe rings? => rings
attr isbn1: has(ISBN) => books
attrval apple1: Brand = "apple" => smart phones | laptop computers
pred cheap1: title has "apple" and price < 100 => not smart phones
)";
  auto rules = ParseRules(dsl);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_EQ(rules->size(), 5u);
  EXPECT_EQ((*rules)[0].kind(), RuleKind::kWhitelist);
  EXPECT_EQ((*rules)[1].kind(), RuleKind::kBlacklist);
  EXPECT_EQ((*rules)[2].kind(), RuleKind::kAttributeExists);
  EXPECT_EQ((*rules)[3].kind(), RuleKind::kAttributeValue);
  EXPECT_EQ((*rules)[3].candidate_types().size(), 2u);
  EXPECT_EQ((*rules)[4].kind(), RuleKind::kPredicate);
  EXPECT_FALSE((*rules)[4].is_positive());
}

TEST(ParserTest, ParsedPredicateRuleEvaluates) {
  auto rules = ParseRules(
      "pred p1: (title ~ \"gaming\" or title has \"ultrabook\") "
      "and price > 200 => laptop computers");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  data::ProductItem item = MakeItem("asus GAMING laptop 15.6");
  item.SetAttribute("Price", "899");
  EXPECT_TRUE((*rules)[0].Applies(item));
  item.SetAttribute("Price", "99");
  EXPECT_FALSE((*rules)[0].Applies(item));
}

TEST(ParserTest, ReportsLineNumbersOnErrors) {
  auto rules = ParseRules("whitelist ok1: rings? => rings\nbogus line\n");
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("line 2"), std::string::npos);
}

TEST(ParserTest, RejectsMalformedLines) {
  EXPECT_FALSE(ParseRules("whitelist x rings? => rings").ok());  // no colon
  EXPECT_FALSE(ParseRules("whitelist x: rings?").ok());          // no arrow
  EXPECT_FALSE(ParseRules("mystery x: a => b").ok());            // bad kind
  EXPECT_FALSE(ParseRules("attrval a: B = noquotes => t").ok());
  EXPECT_FALSE(ParseRules("pred p: price ? 4 => t").ok());
}

TEST(ParserTest, DictionaryRulesNeedRegistry) {
  const char* dsl =
      "pred bags1: title anyof dict(handbag words) => handbags";
  EXPECT_FALSE(ParseRules(dsl).ok());  // no registry supplied

  DictionaryRegistry registry;
  registry.RegisterPhrases("handbag words", {"satchel", "purse", "tote"});
  auto rules = ParseRules(dsl, &registry);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  EXPECT_TRUE((*rules)[0].Applies(MakeItem("leather satchel brown")));
  EXPECT_FALSE((*rules)[0].Applies(MakeItem("leather wallet")));

  // Unknown dictionary name is a parse error with the name in the message.
  auto bad = ParseRules("pred x: title anyof dict(nope) => t", &registry);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("nope"), std::string::npos);
}

TEST(ParserTest, DictionaryRegistryBasics) {
  DictionaryRegistry registry;
  EXPECT_EQ(registry.Find("x"), nullptr);
  registry.RegisterPhrases("brands", {"apple", "dell"});
  registry.RegisterPhrases("colors", {"red"});
  ASSERT_NE(registry.Find("brands"), nullptr);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Names(), (std::vector<std::string>{"brands",
                                                        "colors"}));
  // Re-registering replaces.
  registry.RegisterPhrases("brands", {"sony"});
  EXPECT_TRUE(registry.Find("brands")->ContainsAny("sony tv"));
  EXPECT_FALSE(registry.Find("brands")->ContainsAny("apple tv"));
}

TEST(ParserTest, PredicateParserStandalone) {
  auto p = ParsePredicate("not (has(ISBN) or price < 5)");
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  data::ProductItem item = MakeItem("t");
  item.SetAttribute("Price", "50");
  EXPECT_TRUE((*p)->Eval(item));
  item.SetAttribute("ISBN", "978");
  EXPECT_FALSE((*p)->Eval(item));
}

// ---------------------------------------------------------------- RuleSet --

TEST(RuleSetTest, RejectsDuplicateIds) {
  RuleSet set;
  ASSERT_TRUE(set.Add(*Rule::Whitelist("r1", "a+", "t")).ok());
  EXPECT_EQ(set.Add(*Rule::Whitelist("r1", "b+", "t")).code(),
            StatusCode::kAlreadyExists);
}

TEST(RuleSetTest, StateTransitions) {
  RuleSet set;
  ASSERT_TRUE(set.Add(*Rule::Whitelist("r1", "a+", "t")).ok());
  EXPECT_EQ(set.CountActive(), 1u);
  ASSERT_TRUE(set.Disable("r1").ok());
  EXPECT_EQ(set.CountActive(), 0u);
  ASSERT_TRUE(set.Enable("r1").ok());
  EXPECT_EQ(set.CountActive(), 1u);
  ASSERT_TRUE(set.Retire("r1").ok());
  EXPECT_EQ(set.Enable("r1").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(set.Disable("missing").code(), StatusCode::kNotFound);
}

TEST(RuleSetTest, QueriesByKindAndType) {
  RuleSet set;
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w1", "a", "t1")).ok());
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w2", "b", "t2")).ok());
  ASSERT_TRUE(set.Add(*Rule::Blacklist("b1", "c", "t1")).ok());
  ASSERT_TRUE(set.Add(Rule::AttributeValue("a1", "Brand", "x",
                                           {"t1", "t2"})).ok());
  EXPECT_EQ(set.ActiveOfKind(RuleKind::kWhitelist).size(), 2u);
  EXPECT_EQ(set.ActiveOfKind(RuleKind::kBlacklist).size(), 1u);
  EXPECT_EQ(set.ActiveForType("t1").size(), 3u);  // w1, b1, a1
  ASSERT_TRUE(set.Disable("w1").ok());
  EXPECT_EQ(set.ActiveForType("t1").size(), 2u);
}

TEST(RuleSetTest, DslSerializationSkipsInactive) {
  RuleSet set;
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w1", "a", "t1")).ok());
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w2", "b", "t2")).ok());
  ASSERT_TRUE(set.Disable("w2").ok());
  std::string dsl = set.ToDsl();
  EXPECT_NE(dsl.find("w1"), std::string::npos);
  EXPECT_EQ(dsl.find("w2"), std::string::npos);
}

TEST(RuleSetTest, ComputeStats) {
  RuleSet set;
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w1", "a", "t1")).ok());
  ASSERT_TRUE(set.Add(*Rule::Whitelist("w2", "b", "t2")).ok());
  ASSERT_TRUE(set.Add(*Rule::Blacklist("b1", "c", "t1")).ok());
  ASSERT_TRUE(set.Add(Rule::AttributeExists("a1", "ISBN", "t3")).ok());
  Rule mined = *Rule::Whitelist("m1", "d", "t1");
  mined.metadata().origin = RuleOrigin::kMined;
  mined.metadata().confidence = 0.5;
  ASSERT_TRUE(set.Add(std::move(mined)).ok());
  ASSERT_TRUE(set.Disable("w2").ok());
  ASSERT_TRUE(set.Retire("b1").ok());

  RuleSetStats stats = ComputeStats(set);
  EXPECT_EQ(stats.total, 5u);
  EXPECT_EQ(stats.active, 3u);     // w1, a1, m1
  EXPECT_EQ(stats.disabled, 1u);
  EXPECT_EQ(stats.retired, 1u);
  EXPECT_EQ(stats.whitelist, 2u);  // w1, m1
  EXPECT_EQ(stats.blacklist, 0u);  // b1 retired
  EXPECT_EQ(stats.attribute_rules, 1u);
  EXPECT_EQ(stats.mined_rules, 1u);
  EXPECT_EQ(stats.analyst_rules, 2u);
  EXPECT_EQ(stats.types_covered, 2u);  // t1, t3
  EXPECT_NEAR(stats.mean_confidence, (1.0 + 1.0 + 0.5) / 3.0, 1e-12);
}

// ------------------------------------------------------------- Repository --

TEST(RepositoryTest, AuditLogRecordsMutations) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "a+", "t"), "alice").ok());
  ASSERT_TRUE(repo.Disable("r1", "bob", "misfires on batch 7").ok());
  ASSERT_TRUE(repo.Enable("r1", "bob").ok());
  ASSERT_TRUE(repo.SetConfidence("r1", 0.8, "carol").ok());
  auto history = repo.HistoryOf("r1");
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].action, AuditAction::kAdd);
  EXPECT_EQ(history[0].author, "alice");
  EXPECT_EQ(history[1].action, AuditAction::kDisable);
  EXPECT_EQ(history[1].detail, "misfires on batch 7");
  EXPECT_LT(history[0].timestamp, history[3].timestamp);
  EXPECT_DOUBLE_EQ(repo.rules().Find("r1")->metadata().confidence, 0.8);
}

// A confidence is the rule's voting score: NaN, an infinity or a value
// outside [0, 1] is refused before anything is staged, so the rule, the
// versions and the audit log stay as they were.
TEST(RepositoryTest, SetConfidenceRefusesNonFiniteAndOutOfRange) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "a+", "t"), "alice").ok());
  ASSERT_TRUE(repo.SetConfidence("r1", 0.8, "carol").ok());
  const uint64_t version = repo.composite_version();
  const size_t audit_entries = repo.HistoryOf("r1").size();

  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), -0.1, 1.5,
                     inf, -inf}) {
    EXPECT_EQ(repo.SetConfidence("r1", bad, "mallory").code(),
              StatusCode::kInvalidArgument)
        << bad;
    auto txn = repo.Begin("mallory");
    EXPECT_EQ(txn.SetConfidence(RuleId("r1"), bad).code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(txn.staged(), 0u);
  }
  EXPECT_DOUBLE_EQ(repo.rules().Find("r1")->metadata().confidence, 0.8);
  EXPECT_EQ(repo.composite_version(), version);
  EXPECT_EQ(repo.HistoryOf("r1").size(), audit_entries);

  // Both ends of the scale are valid.
  EXPECT_TRUE(repo.SetConfidence("r1", 0.0, "carol").ok());
  EXPECT_TRUE(repo.SetConfidence("r1", 1.0, "carol").ok());
}

TEST(RepositoryTest, DisableRulesForTypeScalesDown) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w1", "coats?", "winter coats"),
                       "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w2", "parkas?", "winter coats"),
                       "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w3", "rings?", "rings"), "a").ok());
  auto disabled = repo.DisableRulesForType("winter coats", "oncall",
                                           "bad vendor batch");
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled->size(), 2u);
  EXPECT_EQ(repo.rules().CountActive(), 1u);
}

TEST(RepositoryTest, CheckpointRestore) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w1", "a", "t"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w2", "b", "t"), "a").ok());
  uint64_t version = *repo.Checkpoint("oncall");

  // Scale down, patch with a new rule...
  ASSERT_TRUE(repo.Disable("w1", "oncall", "incident").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("patch1", "c", "t"), "oncall").ok());
  EXPECT_EQ(repo.rules().CountActive(), 2u);  // w2 + patch1

  // ...then restore to the checkpointed state.
  ASSERT_TRUE(repo.RestoreCheckpoint(version, "oncall").ok());
  EXPECT_TRUE(repo.rules().Find("w1")->is_active());
  EXPECT_TRUE(repo.rules().Find("w2")->is_active());
  EXPECT_FALSE(repo.rules().Find("patch1")->is_active());
  EXPECT_EQ(repo.RestoreCheckpoint(9999, "x").code(),
            StatusCode::kNotFound);
}

TEST(RepositoryTest, SaveLoadRoundTrip) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w1", "rings?", "rings"),
                       "alice").ok());
  ASSERT_TRUE(repo.Add(Rule::AttributeExists("a1", "ISBN", "books"),
                       "bob").ok());
  ASSERT_TRUE(repo.SetConfidence("w1", 0.75, "alice").ok());
  ASSERT_TRUE(repo.Disable("a1", "bob", "testing").ok());

  std::string path = ::testing::TempDir() + "/rulekit_repo_test.rules";
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  auto loaded = RuleRepository::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Rule* w1 = loaded->rules().Find("w1");
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->pattern_text(), "rings?");
  EXPECT_DOUBLE_EQ(w1->metadata().confidence, 0.75);
  EXPECT_EQ(w1->metadata().author, "alice");
  const Rule* a1 = loaded->rules().Find("a1");
  ASSERT_NE(a1, nullptr);
  EXPECT_EQ(a1->metadata().state, RuleState::kDisabled);
  std::remove(path.c_str());
}

TEST(RepositoryTest, AuditLogSurvivesSaveLoad) {
  RuleRepository repo;
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("w1", "rings?", "rings"),
                       "alice").ok());
  ASSERT_TRUE(repo.Disable("w1", "bob", "precision\tdip").ok());
  ASSERT_TRUE(repo.Enable("w1", "alice").ok());
  ASSERT_TRUE(repo.SetConfidence("w1", 0.625, "carol").ok());
  auto before = repo.HistoryOf("w1");
  ASSERT_EQ(before.size(), 4u);

  std::string path = ::testing::TempDir() + "/rulekit_audit_test.rules";
  ASSERT_TRUE(repo.SaveToFile(path).ok());
  auto loaded = RuleRepository::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // The real history survives the reload — timestamps, authors and
  // details included (not a synthetic "loader" add).
  auto after = loaded->HistoryOf("w1");
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i].timestamp, before[i].timestamp);
    EXPECT_EQ(after[i].action, before[i].action);
    EXPECT_EQ(after[i].rule_id, before[i].rule_id);
    EXPECT_EQ(after[i].author, before[i].author);
    EXPECT_EQ(after[i].detail, before[i].detail);  // tab was escaped
  }
  // The logical clock resumes past every loaded timestamp, so new edits
  // never reuse an old timestamp.
  EXPECT_EQ(loaded->clock(), repo.clock());
  std::remove(path.c_str());
}

TEST(RepositoryTest, LoadFromFileRejectsDuplicateIds) {
  std::string path = ::testing::TempDir() + "/rulekit_dup_test.rules";
  {
    std::ofstream out(path);
    out << "whitelist dup1: rings? => rings\n"
        << "whitelist other: oils? => motor oil\n"
        << "whitelist dup1: bands? => rings\n";
  }
  auto loaded = RuleRepository::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kAlreadyExists);
  // The error pinpoints the offending file and line.
  EXPECT_NE(loaded.status().message().find(":3: duplicate rule id: dup1"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(RepositoryTest, LoadFromFileRejectsNaNConfidence) {
  std::string path = ::testing::TempDir() + "/rulekit_nan_conf_test.rules";
  {
    std::ofstream out(path);
    out << "whitelist ok1: oils? => motor oil\n"
        << "#meta alice\tanalyst\t1\tnan\tactive\n"
        << "whitelist w1: rings? => rings\n";
  }
  auto loaded = RuleRepository::LoadFromFile(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find(":2: #meta confidence 'nan'"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// ----------------------------------------------------- Sharded repository --

TEST(ShardedRepositoryTest, RoutesRulesByTargetType) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "rings?", "rings"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r2", "coats?", "coats"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r3", "bands?", "rings"), "a").ok());

  // Same target type -> same shard; routing agrees with the hash.
  auto s1 = repo.ShardOfRule(RuleId("r1"));
  auto s3 = repo.ShardOfRule(RuleId("r3"));
  ASSERT_TRUE(s1.ok() && s3.ok());
  EXPECT_EQ(*s1, *s3);
  EXPECT_EQ(*s1, repo.KeyForType("rings"));
  EXPECT_EQ(repo.ShardOfRule(RuleId("ghost")).status().code(),
            StatusCode::kNotFound);

  // The merged view spans all shards.
  EXPECT_EQ(repo.rules().size(), 3u);
  EXPECT_NE(repo.rules().Find("r2"), nullptr);
}

TEST(ShardedRepositoryTest, MutationBumpsOnlyItsShard) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "rings?", "rings"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r2", "coats?", "coats"), "a").ok());
  ShardKey rings_shard = *repo.ShardOfRule(RuleId("r1"));
  ShardKey coats_shard = *repo.ShardOfRule(RuleId("r2"));
  ASSERT_FALSE(rings_shard == coats_shard) << "hash collision; pick types";

  uint64_t rings_before = repo.shard_version(rings_shard);
  uint64_t coats_before = repo.shard_version(coats_shard);
  uint64_t composite_before = repo.composite_version();
  ASSERT_TRUE(repo.Disable(RuleId("r1"), "a", "test").ok());
  EXPECT_EQ(repo.shard_version(rings_shard), rings_before + 1);
  EXPECT_EQ(repo.shard_version(coats_shard), coats_before);
  EXPECT_EQ(repo.composite_version(), composite_before + 1);
}

TEST(ShardedRepositoryTest, UntouchedShardSnapshotIsPointerStable) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "rings?", "rings"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r2", "coats?", "coats"), "a").ok());
  ShardKey rings_shard = repo.KeyForType("rings");
  ShardKey coats_shard = repo.KeyForType("coats");
  ASSERT_FALSE(rings_shard == coats_shard);

  ShardSnapshot coats_pin = repo.ShardSnapshotOf(coats_shard);
  ASSERT_TRUE(repo.Disable(RuleId("r1"), "a", "test").ok());

  // The untouched shard republishes the same immutable RuleSet...
  ShardSnapshot coats_again = repo.ShardSnapshotOf(coats_shard);
  EXPECT_EQ(coats_pin.rules.get(), coats_again.rules.get());
  EXPECT_EQ(coats_pin.version, coats_again.version);
  // ...while the touched shard publishes a fresh copy, and the pinned old
  // copy still shows the pre-mutation state.
  ShardSnapshot rings_now = repo.ShardSnapshotOf(rings_shard);
  EXPECT_FALSE(rings_now.rules->Find("r1")->is_active());
}

TEST(ShardedRepositoryTest, SnapshotAllIsCoherent) {
  RuleRepository repo(/*shard_count=*/4);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "a+", "t1"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r2", "b+", "t2"), "a").ok());
  RepositorySnapshot snap = repo.SnapshotAll();
  ASSERT_EQ(snap.shards.size(), 4u);
  size_t total = 0;
  uint64_t version_sum = 0;
  for (const auto& shard : snap.shards) {
    total += shard.rules->size();
    version_sum += shard.version;
  }
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(snap.composite_version, version_sum);
}

TEST(ShardedRepositoryTest, SingleShardPreservesMonolithicBehaviour) {
  RuleRepository repo;  // default shard_count = 1
  EXPECT_EQ(repo.shard_count(), 1u);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "a+", "t1"), "a").ok());
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r2", "b+", "t2"), "a").ok());
  EXPECT_EQ(repo.KeyForType("t1"), repo.KeyForType("t2"));
  EXPECT_EQ(repo.rules().size(), 2u);
  EXPECT_EQ(repo.composite_version(), 2u);
}

// ------------------------------------------------------------ Transactions --

TEST(TransactionTest, CommitPublishesEachTouchedShardOnce) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("old", "x+", "rings"), "a").ok());
  ShardKey rings_shard = repo.KeyForType("rings");
  uint64_t rings_before = repo.shard_version(rings_shard);

  auto txn = repo.Begin("alice");
  (void)txn.Add(*Rule::Whitelist("n1", "rings?", "rings"));
  (void)txn.Add(*Rule::Whitelist("n2", "bands?", "rings"));
  (void)txn.Disable(RuleId("old"), "superseded");
  (void)txn.Add(*Rule::Whitelist("n3", "coats?", "coats"));
  ASSERT_TRUE(txn.Commit().ok());

  // Three edits to the rings shard, one publish.
  EXPECT_EQ(repo.shard_version(rings_shard), rings_before + 1);
  ASSERT_EQ(txn.touched().size(), 2u);
  EXPECT_EQ(repo.rules().CountActive(), 3u);  // n1 n2 n3; old disabled
  // Audit still records every edit individually.
  EXPECT_EQ(repo.HistoryOf("n1").size(), 1u);
  EXPECT_EQ(repo.HistoryOf("old").size(), 2u);
}

TEST(TransactionTest, UnknownIdFailsCommitAtomically) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("r1", "a+", "t1"), "a").ok());
  uint64_t composite_before = repo.composite_version();

  auto txn = repo.Begin("alice");
  (void)txn.Add(*Rule::Whitelist("n1", "b+", "t2"));
  (void)txn.Disable(RuleId("ghost"), "no such rule");
  Status status = txn.Commit();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  // Nothing applied, nothing published: validation precedes application.
  EXPECT_EQ(repo.composite_version(), composite_before);
  EXPECT_EQ(repo.rules().Find("n1"), nullptr);
  EXPECT_TRUE(txn.touched().empty());
}

TEST(TransactionTest, OpsMayReferenceEarlierStagedAdds) {
  RuleRepository repo(/*shard_count=*/8);
  auto txn = repo.Begin("alice");
  (void)txn.Add(*Rule::Whitelist("fresh", "a+", "t1"));
  (void)txn.SetConfidence(RuleId("fresh"), 0.42);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_DOUBLE_EQ(repo.rules().Find("fresh")->metadata().confidence, 0.42);
}

TEST(TransactionTest, DuplicateAddAcrossShardsIsRejected) {
  RuleRepository repo(/*shard_count=*/8);
  ASSERT_TRUE(repo.Add(*Rule::Whitelist("dup", "a+", "rings"), "a").ok());
  // Same id, different target type -> different shard; the routing map
  // still catches it.
  Status status = repo.Add(*Rule::Whitelist("dup", "b+", "coats"), "a");
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(repo.rules().size(), 1u);
}

TEST(TransactionTest, MutateConvenienceCommits) {
  RuleRepository repo(/*shard_count=*/4);
  Status status = repo.Mutate("alice", [](RuleTransaction& txn) {
    (void)txn.Add(*Rule::Whitelist("m1", "a+", "t1"));
    (void)txn.Add(*Rule::Whitelist("m2", "b+", "t2"));
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(repo.rules().size(), 2u);

  // An fn error drops the transaction without applying anything.
  status = repo.Mutate("alice", [](RuleTransaction& txn) {
    (void)txn.Add(*Rule::Whitelist("m3", "c+", "t3"));
    return Status::InvalidArgument("changed my mind");
  });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(repo.rules().Find("m3"), nullptr);
}

}  // namespace
}  // namespace rulekit::rules
