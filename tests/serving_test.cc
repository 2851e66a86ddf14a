// The serving front-end: wire-format round trips, the server's
// coalescing / admission-control / shutdown behaviour, and the unified
// ClassifyRequest entry point's error surface. The headline guarantee —
// responses byte-identical to a direct in-process Classify of the same
// items — is asserted directly (CoalescedResponsesMatchDirectClassify).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/chimera/monitor.h"
#include "src/chimera/pipeline.h"
#include "src/chimera/request.h"
#include "src/common/random.h"
#include "src/rules/rule_parser.h"
#include "src/serving/client.h"
#include "src/serving/server.h"
#include "src/serving/wire.h"
#include "tests/seeded_test.h"

namespace rulekit::serving {
namespace {

data::ProductItem MakeItem(std::string title) {
  data::ProductItem item;
  item.title = std::move(title);
  return item;
}

/// A pipeline with enough rules that titles resolve deterministically.
chimera::ChimeraPipeline& SharedPipeline() {
  static chimera::ChimeraPipeline* pipeline = [] {
    auto* p = new chimera::ChimeraPipeline();
    auto rules = rules::ParseRules(R"(
whitelist rings1: (diamond | gold | silver) rings? => rings
whitelist oil1: (motor | engine) oils? => motor oil
whitelist books1: (novel | paperback | hardcover) => books
blacklist rings2: toe rings? => rings
)");
    EXPECT_TRUE(rules.ok()) << rules.status().ToString();
    EXPECT_TRUE(p->AddRules(std::move(rules).value(), "test").ok());
    return p;
  }();
  return *pipeline;
}

WireClassifyRequest OneTitle(uint64_t id, std::string title) {
  WireClassifyRequest request;
  request.request_id = id;
  request.items.push_back(MakeItem(std::move(title)));
  return request;
}

// ------------------------------------------------------------ wire format --

TEST(WireFormatTest, StatusCodeMappingIsPinned) {
  // These numeric values are the wire format; a renumbering is a
  // protocol break, not a refactor.
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kOk), 0);
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kInvalidArgument), 1);
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kOverloaded), 2);
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kDeadlineExceeded), 3);
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kUnavailable), 4);
  EXPECT_EQ(static_cast<uint8_t>(WireCode::kInternal), 5);

  EXPECT_EQ(CodeFor(Status::OK()), WireCode::kOk);
  EXPECT_EQ(CodeFor(Status::ResourceExhausted("x")), WireCode::kOverloaded);
  EXPECT_EQ(CodeFor(Status::DeadlineExceeded("x")),
            WireCode::kDeadlineExceeded);
  EXPECT_EQ(CodeFor(Status::Unavailable("x")), WireCode::kUnavailable);
  EXPECT_EQ(CodeFor(Status::InvalidArgument("x")),
            WireCode::kInvalidArgument);
  EXPECT_EQ(CodeFor(Status::Internal("x")), WireCode::kInternal);
  EXPECT_EQ(CodeFor(Status::IOError("x")), WireCode::kInternal);

  // StatusFor round-trips every pinned code through CodeFor.
  for (uint8_t c = 0; c <= 5; ++c) {
    const WireCode code = static_cast<WireCode>(c);
    EXPECT_EQ(CodeFor(StatusFor(code, "msg")), code);
  }
}

TEST(WireFormatTest, RejectsUnknownFlagsAndTrailingBytes) {
  WireClassifyRequest request = OneTitle(1, "gold ring");
  Encoder enc;
  EncodeRequestPayload(request, enc);

  std::string with_trailing = enc.data() + "x";
  EXPECT_FALSE(DecodeRequestPayload(with_trailing).ok());

  // Flip an unknown flag bit (flags live after request_id varint,
  // tenant string, deadline varint — easier to just re-encode by hand).
  Encoder bad;
  bad.PutVarint(1);
  bad.PutString("");
  bad.PutVarint(0);
  bad.PutU8(0x80);  // unknown flag
  bad.PutVarint(0);
  EXPECT_FALSE(DecodeRequestPayload(bad.data()).ok());
}

TEST(WireFormatTest, RejectsCorruptCounts) {
  Encoder enc;
  enc.PutVarint(7);
  enc.PutString("tenant");
  enc.PutVarint(0);
  enc.PutU8(0);
  enc.PutVarint(1u << 30);  // item count far beyond the payload
  EXPECT_FALSE(DecodeRequestPayload(enc.data()).ok());
}

class WireRoundTripTest : public SeedAwareTest {};

TEST_P(WireRoundTripTest, RequestAndResponseSurviveEncodeDecode) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    WireClassifyRequest request;
    request.request_id = rng.Next();
    if (rng.Bernoulli(0.5)) {
      request.tenant = "tenant-" + std::to_string(rng.Uniform(5));
    }
    request.deadline_ms = rng.Bernoulli(0.3) ? rng.Uniform(10000) : 0;
    request.no_coalesce = rng.Bernoulli(0.2);
    request.require_durable = rng.Bernoulli(0.2);
    const size_t items = rng.Uniform(4) + 1;
    for (size_t i = 0; i < items; ++i) {
      data::ProductItem item;
      item.id = "id-" + std::to_string(rng.Next() % 1000);
      item.title = "title " + std::to_string(rng.Zipf(50, 1.1));
      const size_t attrs = rng.Uniform(3);
      for (size_t a = 0; a < attrs; ++a) {
        item.attributes.emplace_back("k" + std::to_string(a),
                                     "v" + std::to_string(rng.Uniform(9)));
      }
      request.items.push_back(std::move(item));
    }

    Encoder enc;
    EncodeRequestPayload(request, enc);
    auto decoded = DecodeRequestPayload(enc.data());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->request_id, request.request_id);
    EXPECT_EQ(decoded->tenant, request.tenant);
    EXPECT_EQ(decoded->deadline_ms, request.deadline_ms);
    EXPECT_EQ(decoded->no_coalesce, request.no_coalesce);
    EXPECT_EQ(decoded->require_durable, request.require_durable);
    ASSERT_EQ(decoded->items.size(), request.items.size());
    for (size_t i = 0; i < request.items.size(); ++i) {
      EXPECT_EQ(decoded->items[i].id, request.items[i].id);
      EXPECT_EQ(decoded->items[i].title, request.items[i].title);
      EXPECT_EQ(decoded->items[i].attributes, request.items[i].attributes);
    }

    WireClassifyResponse response;
    response.request_id = rng.Next();
    response.code = static_cast<WireCode>(rng.Uniform(6));
    if (response.code != WireCode::kOk) response.message = "because";
    response.total = rng.Uniform(100);
    response.classified = rng.Uniform(50);
    response.cache_hits = rng.Uniform(20);
    const size_t predictions = rng.Uniform(5);
    for (size_t i = 0; i < predictions; ++i) {
      if (rng.Bernoulli(0.6)) {
        response.predictions.emplace_back("type-" +
                                          std::to_string(rng.Uniform(9)));
      } else {
        response.predictions.push_back(std::nullopt);
      }
    }

    Encoder renc;
    EncodeResponsePayload(response, renc);
    auto rdecoded = DecodeResponsePayload(renc.data());
    ASSERT_TRUE(rdecoded.ok()) << rdecoded.status().ToString();
    EXPECT_EQ(rdecoded->request_id, response.request_id);
    EXPECT_EQ(rdecoded->code, response.code);
    EXPECT_EQ(rdecoded->message, response.message);
    EXPECT_EQ(rdecoded->total, response.total);
    EXPECT_EQ(rdecoded->classified, response.classified);
    EXPECT_EQ(rdecoded->cache_hits, response.cache_hits);
    EXPECT_EQ(rdecoded->predictions, response.predictions);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTripTest,
                         ::testing::ValuesIn(SeedsOrOverride(
                             {11, 2026, 777777})));

// ----------------------------------------------------- unified entry point --

TEST(ClassifyRequestApiTest, DeadlineAlreadyPassedIsRefused) {
  auto& pipeline = SharedPipeline();
  std::vector<data::ProductItem> items = {MakeItem("gold ring")};
  chimera::ClassifyRequest request;
  request.items = items;
  request.deadline = std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1);
  auto response = pipeline.Classify(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.report.total, 1u);
  ASSERT_EQ(response.report.predictions.size(), 1u);
  EXPECT_FALSE(response.report.predictions[0].has_value());
}

TEST(ClassifyRequestApiTest, RequireDurableRefusedWithoutStorage) {
  auto& pipeline = SharedPipeline();  // in-memory: no storage_dir
  ASSERT_FALSE(pipeline.durable());
  std::vector<data::ProductItem> items = {MakeItem("gold ring")};
  chimera::ClassifyRequest request;
  request.items = items;
  request.options.require_durable = true;
  auto response = pipeline.Classify(request);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.status.code(), StatusCode::kUnavailable);

  request.options.require_durable = false;
  EXPECT_TRUE(pipeline.Classify(request).ok());
}

// ------------------------------------------------------------------ server --

TEST(RuleServerTest, ServesSingleRequests) {
  auto& pipeline = SharedPipeline();
  RuleServer server(pipeline, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto response = client->Call(OneTitle(42, "diamond ring"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, 42u);
  EXPECT_EQ(response->code, WireCode::kOk);
  EXPECT_EQ(response->total, 1u);
  ASSERT_EQ(response->predictions.size(), 1u);
  EXPECT_EQ(response->predictions[0].value_or(""), "rings");

  // Multi-item batches pass through undivided with full counters.
  WireClassifyRequest batch;
  batch.request_id = 43;
  batch.items.push_back(MakeItem("motor oil 5w30"));
  batch.items.push_back(MakeItem("paperback novel"));
  batch.items.push_back(MakeItem("qzx unknowable widget"));
  auto batch_response = client->Call(batch);
  ASSERT_TRUE(batch_response.ok());
  EXPECT_EQ(batch_response->total, 3u);
  ASSERT_EQ(batch_response->predictions.size(), 3u);
  EXPECT_EQ(batch_response->predictions[0].value_or(""), "motor oil");
  EXPECT_EQ(batch_response->predictions[1].value_or(""), "books");
  EXPECT_FALSE(batch_response->predictions[2].has_value());

  server.Stop();
}

TEST(RuleServerTest, RejectsMalformedRequests) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.max_items_per_request = 2;
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  WireClassifyRequest empty;
  empty.request_id = 1;
  auto response = client->Call(empty);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kInvalidArgument);

  WireClassifyRequest oversized;
  oversized.request_id = 2;
  for (int i = 0; i < 3; ++i) oversized.items.push_back(MakeItem("x"));
  response = client->Call(oversized);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kInvalidArgument);

  EXPECT_EQ(server.stats().invalid_requests, 2u);
  server.Stop();
}

// A rule confidence is the voting score, in [0, 1]: a wire edit that
// carries NaN is refused with kInvalidArgument and leaves the rule as it
// was, while a valid confidence on the same connection still applies.
TEST(RuleServerTest, EditRefusesNaNConfidence) {
  chimera::ChimeraPipeline pipeline;
  auto rules = rules::ParseRules("whitelist conf1: rings? => rings\n");
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_TRUE(pipeline.AddRules(std::move(rules).value(), "test").ok());
  ServerConfig config;
  config.writer = &pipeline;
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  WireRuleEditRequest edit;
  edit.request_id = 1;
  edit.author = "analyst";
  edit.op = EditOp::kSetConfidence;
  edit.rule_id = "conf1";
  edit.confidence = std::numeric_limits<double>::quiet_NaN();
  auto response = client->CallEdit(edit);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, WireCode::kInvalidArgument) << response->message;
  EXPECT_DOUBLE_EQ(
      pipeline.rule_set().Find("conf1")->metadata().confidence, 1.0);
  EXPECT_EQ(server.stats().edit_failures, 1u);
  EXPECT_EQ(server.stats().edits_applied, 0u);

  edit.request_id = 2;
  edit.confidence = 0.5;
  response = client->CallEdit(edit);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, WireCode::kOk) << response->message;
  EXPECT_DOUBLE_EQ(
      pipeline.rule_set().Find("conf1")->metadata().confidence, 0.5);
  server.Stop();
}

// The acceptance-criteria test: N concurrent single-title clients get
// responses byte-identical to a direct in-process Classify of the same
// titles, and at least some of them actually shared a coalesced batch.
TEST(RuleServerTest, CoalescedResponsesMatchDirectClassify) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.io_threads = 8;
  config.coalesce_window = std::chrono::microseconds(10000);
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> titles = {
      "diamond ring",  "motor oil 5w30", "paperback novel", "gold ring",
      "engine oil 1l", "hardcover",      "toe ring",        "silver ring"};

  std::vector<std::optional<std::string>> direct(titles.size());
  for (size_t i = 0; i < titles.size(); ++i) {
    std::vector<data::ProductItem> one = {MakeItem(titles[i])};
    chimera::ClassifyRequest request;
    request.items = one;
    direct[i] = pipeline.Classify(request).report.predictions[0];
  }

  // Several rounds so the dispatcher's window reliably sees concurrent
  // arrivals at least once, even on a single-core machine.
  constexpr int kRounds = 5;
  std::vector<std::optional<std::string>> served(titles.size());
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::thread> clients;
    clients.reserve(titles.size());
    for (size_t i = 0; i < titles.size(); ++i) {
      clients.emplace_back([&, i] {
        auto client = RuleClient::Connect(server.port());
        if (!client.ok()) {
          ++failures;
          return;
        }
        auto response = client->Call(OneTitle(i + 1, titles[i]));
        if (!response.ok() || response->code != WireCode::kOk ||
            response->predictions.size() != 1) {
          ++failures;
          return;
        }
        served[i] = response->predictions[0];
      });
    }
    for (auto& t : clients) t.join();
    ASSERT_EQ(failures.load(), 0);
    for (size_t i = 0; i < titles.size(); ++i) {
      EXPECT_EQ(served[i], direct[i]) << "title: " << titles[i];
    }
  }

  // Coalescing must have merged at least once across the rounds; the
  // batch-size histogram's mean is > 1 exactly when any merge happened.
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests_admitted, titles.size() * kRounds);
  EXPECT_GT(stats.coalesced_requests, 0u)
      << "no two concurrent single-title requests ever shared a batch";
  EXPECT_GT(stats.batch_size.Mean(), 1.0);
  EXPECT_LT(stats.batches_dispatched, titles.size() * kRounds);
  server.Stop();
}

// With the default config a lone request dispatches at once: 200
// sequential round trips on one connection together stay under what a
// 500us coalescing timer alone would cost them, and nothing merges. A
// timer fails every trial; the best of a few trials absorbs a loaded
// (or sanitizer-slowed) machine.
TEST(RuleServerTest, LoneRequestWaitsForNoTimer) {
  auto& pipeline = SharedPipeline();
  RuleServer server(pipeline, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Call(OneTitle(1, "gold ring")).ok());  // warm up

  constexpr int kRequests = 200;
  constexpr int kTrials = 5;
  const auto timer_cost = kRequests * std::chrono::microseconds(500);
  auto best = std::chrono::steady_clock::duration::max();
  for (int trial = 0; trial < kTrials && best >= timer_cost; ++trial) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRequests; ++i) {
      auto response = client->Call(OneTitle(i + 2, "gold ring"));
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      ASSERT_EQ(response->code, WireCode::kOk);
    }
    best = std::min(best, std::chrono::steady_clock::now() - start);
  }
  EXPECT_LT(best, timer_cost)
      << "best of " << kTrials << " trials took "
      << std::chrono::duration_cast<std::chrono::microseconds>(best).count()
      << "us for " << kRequests << " requests";

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.coalesced_requests, 0u);
  EXPECT_EQ(stats.batch_size.Mean(), 1.0);  // every dispatch a batch of 1
  EXPECT_EQ(stats.batches_dispatched, stats.requests_admitted);
  server.Stop();
}

// Concurrent clients under the default (zero-window) config: requests
// merge or not depending on timing, and either way every response equals
// a direct in-process Classify of the same title.
TEST(RuleServerTest, DefaultConfigResponsesMatchDirectClassify) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.io_threads = 8;
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> titles = {
      "diamond ring",  "motor oil 5w30", "paperback novel", "gold ring",
      "engine oil 1l", "hardcover",      "toe ring",        "silver ring"};
  std::vector<std::optional<std::string>> direct(titles.size());
  for (size_t i = 0; i < titles.size(); ++i) {
    std::vector<data::ProductItem> one = {MakeItem(titles[i])};
    chimera::ClassifyRequest request;
    request.items = one;
    direct[i] = pipeline.Classify(request).report.predictions[0];
  }

  constexpr int kCallsPerClient = 25;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (size_t i = 0; i < titles.size(); ++i) {
    clients.emplace_back([&, i] {
      auto client = RuleClient::Connect(server.port());
      for (int call = 0; client.ok() && call < kCallsPerClient; ++call) {
        auto response = client->Call(OneTitle(call + 1, titles[i]));
        if (!response.ok() || response->code != WireCode::kOk ||
            response->predictions.size() != 1 ||
            response->predictions[0] != direct[i]) {
          ++mismatches;
        }
      }
      if (!client.ok()) ++mismatches;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().requests_admitted,
            titles.size() * kCallsPerClient);
  server.Stop();
}

TEST(RuleServerTest, NoCoalesceFlagDispatchesAlone) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.coalesce_window = std::chrono::microseconds(2000);
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 4; ++i) {
    WireClassifyRequest request = OneTitle(i + 1, "gold ring");
    request.no_coalesce = true;
    auto response = client->Call(request);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->code, WireCode::kOk);
  }
  ServerStats stats = server.stats();
  EXPECT_EQ(stats.batches_dispatched, 4u);
  EXPECT_EQ(stats.coalesced_requests, 0u);
  server.Stop();
}

TEST(RuleServerTest, RateLimitRejectsNoisyClientOnly) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  // A tiny bucket: 4 requests of burst, then ~0 refill within the test.
  config.rate_limit_per_sec = 0.001;
  config.rate_limit_burst = 4;
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());

  auto noisy = RuleClient::Connect(server.port());
  ASSERT_TRUE(noisy.ok());
  int ok = 0, overloaded = 0;
  for (int i = 0; i < 10; ++i) {
    WireClassifyRequest request = OneTitle(i + 1, "gold ring");
    request.tenant = "noisy";
    auto response = noisy->Call(request);
    ASSERT_TRUE(response.ok());
    if (response->code == WireCode::kOk) ++ok;
    if (response->code == WireCode::kOverloaded) ++overloaded;
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(overloaded, 6);

  // The quiet tenant's own bucket is untouched by the noisy flood.
  auto quiet = RuleClient::Connect(server.port());
  ASSERT_TRUE(quiet.ok());
  WireClassifyRequest request = OneTitle(99, "diamond ring");
  request.tenant = "quiet";
  auto response = quiet->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kOk);

  EXPECT_EQ(server.stats().rate_limit_rejects, 6u);
  server.Stop();
}

TEST(RuleServerTest, ShedsRequestsWhoseDeadlineExpiredInQueue) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  // A long window so a second request reliably queues behind the first
  // dispatch long enough for its 1ms deadline to lapse.
  config.coalesce_window = std::chrono::microseconds(50000);
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  WireClassifyRequest doomed = OneTitle(7, "gold ring");
  doomed.deadline_ms = 1;
  doomed.no_coalesce = true;  // must not merge into an earlier batch
  ASSERT_TRUE(client->Send(doomed).ok());
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  // The dispatcher picked it up after >= 1ms (single dispatcher thread,
  // wakeup latency) — either outcome is legal in principle, but with a
  // 1ms budget on a loaded test machine the shed path is the expected
  // one; assert the code matches whichever happened.
  if (response->code == WireCode::kDeadlineExceeded) {
    EXPECT_EQ(server.stats().deadline_sheds, 1u);
  } else {
    EXPECT_EQ(response->code, WireCode::kOk);
  }

  // Deterministic shed: park the dispatcher inside the 50ms coalesce
  // window with a coalescable request FIRST, then queue a request whose
  // 1ms budget lapses while the dispatcher is still parked.
  ASSERT_TRUE(client->Send(OneTitle(9, "motor oil")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  WireClassifyRequest expired = OneTitle(8, "gold ring");
  expired.deadline_ms = 1;
  expired.no_coalesce = true;  // must not merge into the parked batch
  ASSERT_TRUE(client->Send(expired).ok());
  for (int i = 0; i < 2; ++i) {
    auto r = client->Receive();
    ASSERT_TRUE(r.ok());
    if (r->request_id == 9) {
      EXPECT_EQ(r->code, WireCode::kOk);
    } else {
      ASSERT_EQ(r->request_id, 8u);
      EXPECT_EQ(r->code, WireCode::kDeadlineExceeded);
    }
  }
  EXPECT_GE(server.stats().deadline_sheds, 1u);
  server.Stop();
}

TEST(RuleServerTest, BoundedQueueRefusesFloodWithOverloaded) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.max_pending = 2;
  // Stall the dispatcher: a huge coalesce window holds the first
  // single-item request open, so later arrivals pile into the queue.
  config.coalesce_window = std::chrono::microseconds(200000);
  config.max_coalesce_batch = 1000;  // the window, not the cap, gates
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // no_coalesce requests queue behind the window-parked dispatcher
  // without being absorbed into its batch.
  ASSERT_TRUE(client->Send(OneTitle(1, "gold ring")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (int i = 0; i < 6; ++i) {
    WireClassifyRequest request = OneTitle(i + 2, "motor oil");
    request.no_coalesce = true;
    ASSERT_TRUE(client->Send(request).ok());
  }

  int ok = 0, overloaded = 0;
  for (int i = 0; i < 7; ++i) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (response->code == WireCode::kOk) ++ok;
    if (response->code == WireCode::kOverloaded) ++overloaded;
  }
  // The dispatcher was parked on request 1; of the 6 no_coalesce
  // followers at most max_pending=2 fit the queue (a dispatch cycle can
  // free a slot mid-flood, so allow a little slack), and the rest were
  // refused as kOverloaded — backpressure, not buffering.
  EXPECT_GE(overloaded, 3);
  EXPECT_EQ(ok + overloaded, 7);
  EXPECT_EQ(server.stats().queue_full_rejects,
            static_cast<uint64_t>(overloaded));
  server.Stop();
}

TEST(RuleServerTest, CleanShutdownAnswersInFlightRequests) {
  auto& pipeline = SharedPipeline();
  ServerConfig config;
  config.coalesce_window = std::chrono::microseconds(100000);
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());

  // Park several admitted requests behind the coalesce window, then
  // Stop() while they are in flight: every one must still be answered
  // (the drain), and the sockets must close cleanly afterwards.
  auto a = RuleClient::Connect(server.port());
  auto b = RuleClient::Connect(server.port());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a->Send(OneTitle(1, "gold ring")).ok());
  ASSERT_TRUE(b->Send(OneTitle(2, "motor oil")).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(10));

  std::thread stopper([&] { server.Stop(); });
  auto ra = a->Receive();
  auto rb = b->Receive();
  stopper.join();
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok()) << rb.status().ToString();
  EXPECT_EQ(ra->code, WireCode::kOk);
  EXPECT_EQ(rb->code, WireCode::kOk);
  EXPECT_EQ(ra->predictions[0].value_or(""), "rings");
  EXPECT_EQ(rb->predictions[0].value_or(""), "motor oil");

  // After Stop the connection is gone: the next read sees EOF.
  auto after = a->Receive();
  EXPECT_FALSE(after.ok());
  EXPECT_FALSE(server.running());
}

TEST(RuleServerTest, StopIsIdempotentAndRestartable) {
  auto& pipeline = SharedPipeline();
  RuleServer server(pipeline, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  const uint16_t first_port = server.port();
  EXPECT_GT(first_port, 0);
  server.Stop();
  server.Stop();  // idempotent

  ASSERT_TRUE(server.Start().ok());  // restart on a fresh socket
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto response = client->Call(OneTitle(1, "gold ring"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, WireCode::kOk);
  server.Stop();
}

TEST(RuleServerTest, RecordsServingActivityInMonitor) {
  auto& pipeline = SharedPipeline();
  chimera::QualityMonitor monitor;
  ServerConfig config;
  config.monitor = &monitor;
  RuleServer server(pipeline, config);
  ASSERT_TRUE(server.Start().ok());
  auto client = RuleClient::Connect(server.port());
  ASSERT_TRUE(client.ok());
  WireClassifyRequest request = OneTitle(5, "gold ring");
  request.tenant = "acme";
  ASSERT_TRUE(client->Call(request).ok());
  server.Stop();

  auto history = monitor.serving_history("acme");
  ASSERT_EQ(history.size(), 1u);
  EXPECT_EQ(history[0].requests, 1u);
  EXPECT_EQ(history[0].batch_size, 1u);
  EXPECT_TRUE(monitor.serving_history().empty());  // default tenant clean
}

}  // namespace
}  // namespace rulekit::serving
