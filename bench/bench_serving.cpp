// The serving front-end under open-loop load (DESIGN.md "Serving
// front-end"): a client fires single-title ClassifyRequest frames over
// loopback at a fixed offered rate regardless of completions — the
// arrival process a production front-end actually faces — and a second
// thread drains responses and clocks end-to-end latency. Four questions:
//
//   1. How do p50/p95/p99 move as offered load rises toward saturation,
//      and how much does request coalescing amortize per-call overhead?
//   2. At saturation, does admission control refuse (kOverloaded) rather
//      than buffer without bound?
//   3. Does per-tenant rate limiting keep a noisy flood from wrecking a
//      quiet tenant's tail (target: quiet p99 degrades < 2x)?
//   4. What hot-cache hit rate does a Zipf title stream sustain through
//      the network path?
//
// Writes BENCH_serving.json next to the binary. Loads are sized for a
// small (even single-core) CI box; the shape, not the magnitude, is the
// result.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "src/chimera/analyst.h"
#include "src/chimera/pipeline.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/data/catalog_generator.h"
#include "src/serving/client.h"
#include "src/serving/server.h"
#include "src/serving/wire.h"

namespace {

using namespace rulekit;
using Clock = std::chrono::steady_clock;

const size_t kNumItems = rulekit::bench::SmokeN(4000, 300);
constexpr size_t kNumTypes = 24;
constexpr double kZipfS = 1.2;

struct Fixture {
  std::unique_ptr<data::CatalogGenerator> gen;
  std::vector<data::ProductItem> items;
  std::unique_ptr<chimera::ChimeraPipeline> pipeline;
};

Fixture BuildFixture() {
  Fixture f;
  data::GeneratorConfig config;
  config.seed = 20150531;  // the paper's SIGMOD
  config.num_types = kNumTypes;
  f.gen = std::make_unique<data::CatalogGenerator>(config);
  for (auto& li : f.gen->GenerateMany(kNumItems)) {
    f.items.push_back(std::move(li.item));
  }

  chimera::PipelineConfig pipeline_config;
  pipeline_config.hot_cache.enabled = true;
  pipeline_config.hot_cache.capacity = 4096;
  pipeline_config.hot_cache.admit_after = 1;
  f.pipeline = std::make_unique<chimera::ChimeraPipeline>(pipeline_config);
  chimera::SimulatedAnalyst analyst(*f.gen);
  for (const auto& spec : f.gen->specs()) {
    Status st =
        f.pipeline->AddRules(analyst.WriteRulesForType(spec.name), "bench");
    if (!st.ok()) {
      std::fprintf(stderr, "AddRules failed: %s\n", st.ToString().c_str());
      std::exit(1);
    }
  }
  return f;
}

/// One open-loop run: `count` single-title requests offered at
/// `rate_per_sec` (send times are scheduled from the start instant, so a
/// slow server cannot slow the arrival process down), titles drawn
/// Zipf(kZipfS) from the fixture pool.
struct LoadResult {
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t other = 0;
  LogHistogram::Snapshot latency_us;
  double actual_rate = 0.0;  // attained send rate, req/s
};

LoadResult RunOpenLoopLoad(serving::RuleClient& client,
                           const std::vector<data::ProductItem>& pool,
                           double rate_per_sec, size_t count,
                           const std::string& tenant, uint64_t seed) {
  LoadResult result;
  LogHistogram latency;
  std::mutex mu;
  std::unordered_map<uint64_t, Clock::time_point> in_flight;

  std::thread receiver([&] {
    for (size_t i = 0; i < count; ++i) {
      auto response = client.Receive();
      if (!response.ok()) break;
      const Clock::time_point now = Clock::now();
      Clock::time_point sent;
      {
        std::lock_guard<std::mutex> lock(mu);
        auto it = in_flight.find(response->request_id);
        if (it == in_flight.end()) continue;  // should not happen
        sent = it->second;
        in_flight.erase(it);
      }
      switch (response->code) {
        case serving::WireCode::kOk:
          ++result.ok;
          latency.Record(static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                    sent)
                  .count()));
          break;
        case serving::WireCode::kOverloaded:
          ++result.overloaded;
          break;
        default:
          ++result.other;
          break;
      }
    }
  });

  Rng rng(seed);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_sec));
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) {
    std::this_thread::sleep_until(start + static_cast<int64_t>(i) * period);
    serving::WireClassifyRequest request;
    request.request_id = i + 1;
    request.tenant = tenant;
    request.items.push_back(
        pool[static_cast<size_t>(rng.Zipf(pool.size(), kZipfS))]);
    {
      std::lock_guard<std::mutex> lock(mu);
      in_flight.emplace(request.request_id, Clock::now());
    }
    Status st = client.Send(request);
    if (!st.ok()) {
      std::fprintf(stderr, "send failed: %s\n", st.ToString().c_str());
      break;
    }
  }
  const double send_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  receiver.join();
  result.latency_us = latency.TakeSnapshot();
  result.actual_rate =
      send_seconds > 0 ? static_cast<double>(count) / send_seconds : 0.0;
  return result;
}

struct SweepPoint {
  double offered = 0.0;
  LoadResult load;
  double batch_mean = 0.0;
  uint64_t coalesced = 0;
  uint64_t rejects = 0;
};

}  // namespace

int main() {
  bench::Header("Serving front-end: open-loop load over loopback",
                "the serving-system shape of paper §3.3 (Chimera serves "
                "classification as a service behind admission control)");

  Fixture f = BuildFixture();

  // ---- 1+2: offered-load sweep, saturation on the last point ----------
  bench::Section("latency vs offered load (open loop, Zipf titles)");
  const std::vector<double> kRates = {250, 500, 1000, 2000, 4000};
  const double kSecondsPerRate = rulekit::bench::SmokeMode() ? 0.2 : 1.2;
  std::vector<SweepPoint> sweep;
  for (double rate : kRates) {
    serving::ServerConfig server_config;
    server_config.max_pending = 128;  // bounded: saturation must refuse
    serving::RuleServer server(*f.pipeline, server_config);
    Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    auto client = serving::RuleClient::Connect(server.port());
    if (!client.ok()) {
      std::fprintf(stderr, "connect failed: %s\n",
                   client.status().ToString().c_str());
      return 1;
    }
    const size_t count = static_cast<size_t>(rate * kSecondsPerRate);
    SweepPoint point;
    point.offered = rate;
    point.load = RunOpenLoopLoad(*client, f.items, rate, count, "", 99);
    serving::ServerStats stats = server.stats();
    point.batch_mean = stats.batch_size.Mean();
    point.coalesced = stats.coalesced_requests;
    point.rejects = stats.overload_rejects();
    server.Stop();
    sweep.push_back(point);

    std::printf("  %6.0f req/s offered: p50 %6llu us  p95 %6llu us  "
                "p99 %6llu us  batch mean %.2f  rejected %llu/%zu\n",
                rate,
                static_cast<unsigned long long>(point.load.latency_us.P50()),
                static_cast<unsigned long long>(point.load.latency_us.P95()),
                static_cast<unsigned long long>(point.load.latency_us.P99()),
                point.batch_mean,
                static_cast<unsigned long long>(point.load.overloaded),
                count);
  }
  // Forced saturation: coalescing is what keeps the sweep ahead of the
  // offered load, so saturate the uncoalesced path — a tiny pending
  // queue and no_coalesce requests (each one a full dispatch) at an
  // offered rate the dispatcher cannot match. Admission control must
  // refuse the overflow with kOverloaded instead of queueing it.
  double saturation_reject_rate = 0.0;
  {
    serving::ServerConfig choke_config;
    choke_config.max_pending = 8;
    serving::RuleServer server(*f.pipeline, choke_config);
    if (!server.Start().ok()) return 1;
    auto client = serving::RuleClient::Connect(server.port());
    if (!client.ok()) return 1;
    const size_t kBurst = bench::SmokeN(3000, 200);
    LogHistogram unused;
    uint64_t ok = 0, overloaded = 0;
    std::thread receiver([&] {
      for (size_t i = 0; i < kBurst; ++i) {
        auto response = client->Receive();
        if (!response.ok()) break;
        if (response->code == serving::WireCode::kOk) ++ok;
        if (response->code == serving::WireCode::kOverloaded) ++overloaded;
      }
    });
    Rng rng(31);
    for (size_t i = 0; i < kBurst; ++i) {
      serving::WireClassifyRequest request;
      request.request_id = i + 1;
      request.no_coalesce = true;
      request.items.push_back(
          f.items[static_cast<size_t>(rng.Zipf(f.items.size(), kZipfS))]);
      if (!client->Send(request).ok()) break;
    }
    receiver.join();
    server.Stop();
    saturation_reject_rate =
        static_cast<double>(overloaded) / static_cast<double>(kBurst);
    std::printf("\n  forced saturation (no_coalesce burst, queue of %zu): "
                "%llu served, %llu refused\n",
                choke_config.max_pending,
                static_cast<unsigned long long>(ok),
                static_cast<unsigned long long>(overloaded));
  }
  bench::PaperNote("admission control refuses at saturation instead of "
                   "buffering: reject rate %.2f", saturation_reject_rate);

  // ---- 4: hot-cache hit rate through the network path -----------------
  double hit_rate = 0.0;
  if (f.pipeline->hot_cache() != nullptr) {
    const auto counters = f.pipeline->hot_cache()->TotalCounters();
    hit_rate = counters.lookups == 0
                   ? 0.0
                   : static_cast<double>(counters.hits) /
                         static_cast<double>(counters.lookups);
    std::printf("\n  hot-cache hit rate over the Zipf stream: %.2f "
                "(%llu hits / %llu lookups)\n",
                hit_rate, static_cast<unsigned long long>(counters.hits),
                static_cast<unsigned long long>(counters.lookups));
  }

  // ---- 3: noisy neighbor vs per-tenant rate limiting ------------------
  // Solo baseline: the quiet tenant alone at a gentle rate. Then the
  // same quiet load while a noisy tenant offers 10x over its budget.
  // The token bucket rejects the flood at admission (before the
  // dispatcher), so the quiet tenant's tail should hold near its solo
  // shape — the "< 2x p99 degradation" criterion.
  bench::Section("noisy neighbor: per-tenant token bucket");
  constexpr double kQuietRate = 150;
  constexpr double kNoisyRate = 3000;
  const double kNoisySeconds = bench::SmokeMode() ? 0.3 : 1.5;
  serving::ServerConfig fair_config;
  fair_config.rate_limit_per_sec = 300;  // each tenant's budget
  fair_config.rate_limit_burst = 32;
  serving::RuleServer server(*f.pipeline, fair_config);
  if (!server.Start().ok()) return 1;

  auto quiet_solo = serving::RuleClient::Connect(server.port());
  if (!quiet_solo.ok()) return 1;
  LoadResult solo =
      RunOpenLoopLoad(*quiet_solo, f.items, kQuietRate,
                      static_cast<size_t>(kQuietRate * kNoisySeconds),
                      "quiet", 7);

  auto quiet_conn = serving::RuleClient::Connect(server.port());
  auto noisy_conn = serving::RuleClient::Connect(server.port());
  if (!quiet_conn.ok() || !noisy_conn.ok()) return 1;
  LoadResult noisy_result;
  std::thread noisy([&] {
    noisy_result =
        RunOpenLoopLoad(*noisy_conn, f.items, kNoisyRate,
                        static_cast<size_t>(kNoisyRate * kNoisySeconds),
                        "noisy", 13);
  });
  LoadResult contended =
      RunOpenLoopLoad(*quiet_conn, f.items, kQuietRate,
                      static_cast<size_t>(kQuietRate * kNoisySeconds),
                      "quiet", 21);
  noisy.join();
  serving::ServerStats fair_stats = server.stats();
  server.Stop();

  const double solo_p99 = static_cast<double>(solo.latency_us.P99());
  const double contended_p99 =
      static_cast<double>(contended.latency_us.P99());
  const double degradation =
      solo_p99 > 0 ? contended_p99 / solo_p99 : 0.0;
  const double noisy_reject_rate =
      static_cast<double>(noisy_result.overloaded) /
      static_cast<double>(noisy_result.ok + noisy_result.overloaded +
                          noisy_result.other);
  std::printf("  quiet solo:      p50 %6llu us  p99 %6llu us\n",
              static_cast<unsigned long long>(solo.latency_us.P50()),
              static_cast<unsigned long long>(solo.latency_us.P99()));
  std::printf("  quiet + flood:   p50 %6llu us  p99 %6llu us  "
              "(%.2fx p99)\n",
              static_cast<unsigned long long>(contended.latency_us.P50()),
              static_cast<unsigned long long>(contended.latency_us.P99()),
              degradation);
  std::printf("  noisy tenant:    %.0f%% rejected (%llu rate-limit "
              "rejects server-wide)\n",
              100.0 * noisy_reject_rate,
              static_cast<unsigned long long>(
                  fair_stats.rate_limit_rejects));
  bench::PaperNote("target: quiet p99 degrades < 2x under a 10x-budget "
                   "flood; measured %.2fx", degradation);

  // ---- artifact -------------------------------------------------------
  std::ofstream json("BENCH_serving.json");
  json << "{\n"
       << "  \"benchmark\": \"bench_serving/open_loop_loopback\",\n"
       << "  \"zipf_s\": " << kZipfS << ",\n"
       << "  \"pool_size\": " << kNumItems << ",\n"
       << "  \"sweep\": [\n";
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    json << "    {\"offered_per_s\": " << p.offered
         << ", \"attained_per_s\": " << p.load.actual_rate
         << ", \"p50_us\": " << p.load.latency_us.P50()
         << ", \"p95_us\": " << p.load.latency_us.P95()
         << ", \"p99_us\": " << p.load.latency_us.P99()
         << ", \"ok\": " << p.load.ok
         << ", \"overloaded\": " << p.load.overloaded
         << ", \"coalesced_batch_mean\": " << p.batch_mean
         << ", \"coalesced_requests\": " << p.coalesced << "}"
         << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"saturation_reject_rate\": " << saturation_reject_rate
       << ",\n"
       << "  \"hot_cache_hit_rate\": " << hit_rate << ",\n"
       << "  \"quiet_solo_p99_us\": " << solo.latency_us.P99() << ",\n"
       << "  \"quiet_contended_p99_us\": " << contended.latency_us.P99()
       << ",\n"
       << "  \"quiet_p99_degradation\": " << degradation << ",\n"
       << "  \"noisy_reject_rate\": " << noisy_reject_rate << "\n"
       << "}\n";
  std::printf("\nwrote BENCH_serving.json\n");
  return 0;
}
