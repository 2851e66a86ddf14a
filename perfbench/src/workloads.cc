// The untraced runs: every end-to-end metric of every workload, measured
// through the stable entry points only (ChimeraPipeline::Classify /
// AddRules / Mutate, serving::RuleServer / RuleClient, and the durable
// store behind PipelineConfig::storage_dir).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>

#include "harness.h"
#include "src/common/binary_codec.h"
#include "src/common/string_util.h"
#include "src/serving/server.h"
#include "src/storage/codec.h"
#include "src/storage/rule_store.h"

namespace perfbench {
namespace {

/// The end-to-end metrics; every workload reports all of them (see
/// perfbench/README.md for what each means on each workload).
struct EndToEnd {
  double setup_s = 0;
  double rss_mb = 0;
  double items_per_s = 0;
  double batch_p95_ms = 0;
  double precision = 0;
  double coverage = 0;
  double p50_us = 0;
  double p95_us = 0;
  double commit_p50_ms = 0;
  double commit_p95_ms = 0;
};

void Emit(const EndToEnd& e, Report& report) {
  const double attempted = static_cast<double>(report.attempted);
  report.Record("peak_rss_mb", PeakRssMb());
  report.Set("setup_s", e.setup_s, "s");
  report.Set("rss_mb", e.rss_mb, "MB");
  report.Set("ok_share",
             attempted == 0 ? 0.0
                            : (attempted - static_cast<double>(report.failed)) /
                                  attempted,
             "share");
  report.Set("items_per_s", e.items_per_s, "1/s");
  report.Set("batch_p95_ms", e.batch_p95_ms, "ms");
  report.Set("precision", e.precision, "share");
  report.Set("coverage", e.coverage, "share");
  report.Set("p50_us", e.p50_us, "us");
  report.Set("p95_us", e.p95_us, "us");
  report.Set("commit_p50_ms", e.commit_p50_ms, "ms");
  report.Set("commit_p95_ms", e.commit_p95_ms, "ms");
}

void AddCommits(const CommitStats& commits, double rate, double seconds,
                EndToEnd& e, Report& report) {
  CheckSchedule(commits, rate, seconds, report);
  report.attempted += commits.attempted;
  report.Fail(commits.failed, "rule commits failed");
  e.commit_p50_ms = Median(commits.latency_ms);
  e.commit_p95_ms = WindowedQuantile(commits.latency_ms, 0.95);
  report.Record("commit_p99_ms", WindowedQuantile(commits.latency_ms, 0.99));
  report.Record("commits", static_cast<double>(commits.attempted));
  report.Record("commit_attained_per_s", commits.attained_per_s);
  report.Record("commit_lateness_us_p99", Quantile(commits.lateness_us, 0.99));
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// The read window of the in-memory workloads: the run less its commit
/// phase.
double ReadSeconds(const Args& args) { return args.seconds * (1.0 - kCommitPhaseShare); }

/// The commit phase of the in-memory workloads: edit_churn's edit shape
/// (add, disable, re-enable shared rules) at its rate, after the read
/// window and its checks, so the commits run beside no other load and
/// cannot change an answer the checks compare.
void RunCommitPhase(rk::chimera::ChimeraPipeline& pipeline, const Catalog& catalog,
                    const Args& args, EndToEnd& e, Report& report) {
  const double seconds = args.seconds * kCommitPhaseShare;
  CommitStream commits(pipeline, ChurnEdits(catalog, args.seed, seconds),
                       rk::rules::TenantId(), kChurnCommitsPerS, /*spin=*/true);
  const Clock::time_point start = Clock::now();
  commits.Start(start, start + Seconds(seconds));
  AddCommits(commits.Join(), kChurnCommitsPerS, seconds, e, report);
}

/// A closed loop of Classify calls, each timed from the moment the
/// previous one returned (its due time) to its own return.
struct ClosedLoop {
  std::vector<double> batch_ms;
  uint64_t items = 0;
  Accuracy accuracy;

  void Add(Clock::duration took, size_t n) {
    batch_ms.push_back(std::chrono::duration<double, std::milli>(took).count());
    items += n;
  }
  /// items_per_s is the items over the summed batch time of each of up to
  /// 10 consecutive windows of at least 100 batches, and the median of
  /// those. On edit_churn the batch times mix cache-hit batches with
  /// batches after a commit re-tagged the cache: the sum weighs the mix as
  /// it ran, and the median over windows ignores a stall of one window.
  void Fill(EndToEnd& e) const {
    const size_t windows = std::max<size_t>(1, std::min<size_t>(10, batch_ms.size() / 100));
    const double per_batch = batch_ms.empty() ? 0.0
                                              : static_cast<double>(items) /
                                                    static_cast<double>(batch_ms.size());
    std::vector<double> rates;
    for (size_t w = 0; w < windows; ++w) {
      const size_t begin = batch_ms.size() * w / windows;
      const size_t end = batch_ms.size() * (w + 1) / windows;
      double busy_ms = 0;
      for (size_t i = begin; i < end; ++i) busy_ms += batch_ms[i];
      if (busy_ms > 0) {
        rates.push_back(per_batch * static_cast<double>(end - begin) / (busy_ms / 1000.0));
      }
    }
    e.items_per_s = Median(rates);
    e.batch_p95_ms = WindowedQuantile(batch_ms, 0.95);
    e.p50_us = WindowedQuantile(batch_ms, 0.5) * 1000.0;
    e.p95_us = e.batch_p95_ms * 1000.0;
    e.precision = accuracy.precision();
    e.coverage = accuracy.coverage();
  }
};

// ---- catalog_ingest ---------------------------------------------------------------

void RunIngest(const Args& args, Report& report) {
  EndToEnd e;
  IngestSystem sys = IngestInputs();
  e.setup_s = RepeatSetup([&] { sys.pipeline.reset(); },
                          [&] { SetUpIngest(sys); });
  auto& pipeline = *sys.pipeline;
  report.Record("batch_threads", static_cast<double>(pipeline.config().batch_threads));
  report.Record("rules", static_cast<double>(sys.catalog.rule_count()));
  report.Record("training_docs", static_cast<double>(sys.training.size()));

  std::unordered_set<std::string> seen;
  for (const auto& labeled : sys.training) seen.insert(rk::ToLowerAscii(labeled.item.title));
  ItemStream stream(*sys.catalog.gen, SubSeed(args.seed, 1), std::move(seen));

  // Warm-up: the thread pool, the allocator and the lazily built
  // per-tenant state see work before the clock starts.
  for (int i = 0; i < 2; ++i) {
    (void)ClassifyItems(pipeline, ItemsOf(stream.Next(kIngestBatch)));
  }

  const Clock::time_point stop = Clock::now() + Seconds(ReadSeconds(args));
  RssSampler rss;
  ClosedLoop loop;
  std::vector<rk::data::ProductItem> first_items;
  std::vector<std::optional<std::string>> first_predictions;
  while (Clock::now() < stop) {
    auto batch = stream.Next(kIngestBatch);
    auto items = ItemsOf(batch);
    const Clock::time_point t0 = Clock::now();
    rk::chimera::ClassifyResponse response = ClassifyItems(pipeline, items);
    loop.Add(Clock::now() - t0, items.size());
    report.attempted += items.size();
    if (!response.ok()) {
      report.Fail(items.size(), "classify: " + response.status.ToString());
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      loop.accuracy.Add(response.report.predictions[i], batch[i].label);
    }
    if (first_items.empty()) {
      first_items = std::move(items);
      first_predictions = response.report.predictions;
    }
  }
  e.rss_mb = rss.StopMedianMb();
  loop.Fill(e);

  // Output check: the pipeline is deterministic, so the first batch must
  // classify the same again.
  rk::chimera::ClassifyResponse again = ClassifyItems(pipeline, first_items);
  uint64_t mismatches = 0;
  for (size_t i = 0; i < first_items.size(); ++i) {
    mismatches += again.report.predictions[i] != first_predictions[i];
  }
  report.Fail(mismatches, "re-classified batch differs");
  report.attempted += 1;
  report.Record("batches", static_cast<double>(loop.batch_ms.size()));
  report.Record("items", static_cast<double>(loop.items));
  RunCommitPhase(pipeline, sys.catalog, args, e, report);
  Emit(e, report);
}

// ---- serve_steady / serve_noisy_neighbour ---------------------------------------

struct ServeFixture {
  ServeSystem sys;
  std::unique_ptr<rk::serving::RuleServer> server;  // stops before sys dies

  void TearDown() {
    server.reset();
    sys.pipeline.reset();
  }
  void SetUp(const rk::serving::ServerConfig& config) {
    SetUpServe(sys);
    server = std::make_unique<rk::serving::RuleServer>(*sys.pipeline, config);
    rk::Status st = server->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: server start failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
};

/// Compares every served prediction with an in-process Classify of the
/// same title for the same tenant; returns the number of mismatches.
uint64_t CheckServed(const ServeSystem& sys, const StreamResult& stream) {
  std::map<uint32_t, std::optional<std::string>> served;
  uint64_t mismatches = 0;
  for (size_t i = 0; i < stream.code.size(); ++i) {
    if (stream.code[i] != static_cast<uint8_t>(rk::serving::WireCode::kOk)) continue;
    auto [it, fresh] = served.emplace(stream.title_index[i], stream.prediction[i]);
    if (!fresh && it->second != stream.prediction[i]) ++mismatches;
  }
  std::vector<rk::data::ProductItem> items;
  for (const auto& [index, prediction] : served) items.push_back(sys.items[index]);
  rk::chimera::ClassifyResponse local = ClassifyItems(
      *sys.pipeline, items, rk::rules::TenantId(stream.spec.tenant));
  size_t k = 0;
  for (const auto& [index, prediction] : served) {
    mismatches += local.report.predictions[k++] != prediction;
  }
  return mismatches;
}

void ServeMetrics(const ServeSystem& sys, const std::vector<const StreamResult*>& main,
                  double seconds, EndToEnd& e, Report& report) {
  std::vector<std::pair<double, double>> timed;  // (due, latency) of OK requests
  Accuracy accuracy;
  uint64_t ok = 0;
  for (const StreamResult* stream : main) {
    CheckSchedule(*stream, report);
    report.attempted += stream->code.size();
    const uint64_t stream_ok = stream->ok();
    report.Fail(stream->code.size() - stream_ok,
                "requests of " + (stream->spec.tenant.empty() ? std::string("default")
                                                              : stream->spec.tenant) +
                    " not answered OK");
    ok += stream_ok;
    for (size_t i = 0; i < stream->code.size(); ++i) {
      if (stream->code[i] != static_cast<uint8_t>(rk::serving::WireCode::kOk)) continue;
      timed.push_back({stream->due_s[i], stream->latency_us[i]});
    }
  }
  // Precision and coverage over the whole title pool, classified
  // in-process after the run: the served answers must equal these (see
  // CheckServed), and the pool does not depend on the run's Zipf draws.
  rk::chimera::ClassifyResponse pool = ClassifyItems(*sys.pipeline, sys.items);
  for (size_t i = 0; i < sys.pool.size(); ++i) {
    accuracy.Add(pool.report.predictions[i], sys.pool[i].label);
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> latencies;
  for (const auto& [due, latency] : timed) latencies.push_back(latency);
  e.p50_us = Median(latencies);
  e.p95_us = WindowedQuantile(latencies, 0.95);
  e.batch_p95_ms = e.p95_us / 1000.0;
  report.Record("p99_us", WindowedQuantile(latencies, 0.99));
  e.items_per_s = static_cast<double>(ok) / seconds;
  e.precision = accuracy.precision();
  e.coverage = accuracy.coverage();
  report.Record("requests", static_cast<double>(latencies.size()));
}

void RunServe(const Args& args, Report& report, bool noisy) {
  EndToEnd e;
  const rk::serving::ServerConfig config = ServeServerConfig(noisy);
  ServeFixture f{ServeInputs(), nullptr};
  e.setup_s = RepeatSetup([&] { f.TearDown(); }, [&] { f.SetUp(config); });
  report.Record("rate_limit_per_s", config.rate_limit_per_sec);
  report.Record("coalesce_window_us",
                static_cast<double>(config.coalesce_window.count()));

  // Warm-up: connections, reader pool, cache and per-tenant state.
  (void)RunStreams(f.server->port(), ServeStreams(SubSeed(args.seed, 99), noisy),
                   f.sys.items, 1.0);

  RssSampler rss;
  std::vector<StreamResult> streams = RunStreams(
      f.server->port(), ServeStreams(args.seed, noisy), f.sys.items, ReadSeconds(args));
  e.rss_mb = rss.StopMedianMb();

  std::vector<const StreamResult*> main;
  if (noisy) {
    main.push_back(&streams[0]);
    CheckSchedule(streams[1], report);
    report.Record("noisy_refused", static_cast<double>(streams[1].refused()));
    report.Record("noisy_ok", static_cast<double>(streams[1].ok()));
  } else {
    main = {&streams[0], &streams[1]};
  }
  ServeMetrics(f.sys, main, ReadSeconds(args), e, report);
  for (const StreamResult& stream : streams) {
    report.Record("attained_per_s." +
                      (stream.spec.tenant.empty() ? std::string("default")
                                                  : stream.spec.tenant),
                  stream.attained_per_s);
    report.Fail(CheckServed(f.sys, stream),
                "served prediction differs from in-process Classify");
  }
  RunCommitPhase(*f.sys.pipeline, f.sys.catalog, args, e, report);
  f.server->Stop();
  Emit(e, report);
}

// ---- edit_churn -------------------------------------------------------------------------

std::string EncodedState(const rk::rules::RuleRepository& repo) {
  rk::Encoder enc;
  rk::storage::EncodePersistedState(repo.ExportState(), enc);
  return enc.Release();
}

void RunChurn(const Args& args, Report& report) {
  EndToEnd e;
  const std::string dir = args.work_dir + "/edit_churn-store";
  ChurnSystem sys = ChurnInputs(dir);
  e.setup_s = RepeatSetup([&] { sys.pipeline.reset(); },
                          [&] { SetUpChurn(sys); });
  auto& pipeline = *sys.pipeline;
  const rk::storage::RecoveryStats& recovery =
      pipeline.storage()->recovery_stats();
  report.Record("fsync_policy", "every_commit");
  report.Record("batch_threads", static_cast<double>(pipeline.config().batch_threads));
  report.Record("rules", static_cast<double>(pipeline.repository().rules().size()));
  report.Record("recovered_records",
                static_cast<double>(recovery.records_replayed));

  ChurnReads reads(sys.items.size(), SubSeed(args.seed, 1));
  auto items_of = [&](const std::vector<uint32_t>& index) {
    std::vector<rk::data::ProductItem> items;
    items.reserve(index.size());
    for (uint32_t i : index) items.push_back(sys.items[i]);
    return items;
  };
  for (int i = 0; i < 3; ++i) {  // warm-up: pool, cache admission, allocator
    (void)ClassifyItems(pipeline, items_of(reads.Next()));
  }

  CommitStream commits(pipeline, ChurnEdits(sys.catalog, args.seed, args.seconds),
                       rk::rules::TenantId(), kChurnCommitsPerS, /*spin=*/false);
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop = start + Seconds(args.seconds);
  commits.Start(start, stop);
  RssSampler rss;
  ClosedLoop loop;
  while (Clock::now() < stop) {
    const std::vector<uint32_t>& index = reads.Next();
    const std::vector<rk::data::ProductItem> items = items_of(index);
    const Clock::time_point t0 = Clock::now();
    rk::chimera::ClassifyResponse response = ClassifyItems(pipeline, items);
    loop.Add(Clock::now() - t0, items.size());
    report.attempted += items.size();
    if (!response.ok()) {
      report.Fail(items.size(), "classify: " + response.status.ToString());
      continue;
    }
    for (size_t i = 0; i < items.size(); ++i) {
      loop.accuracy.Add(response.report.predictions[i], sys.pool[index[i]].label);
    }
  }
  AddCommits(commits.Join(), kChurnCommitsPerS, args.seconds, e, report);
  e.rss_mb = rss.StopMedianMb();
  loop.Fill(e);
  report.Record("batches", static_cast<double>(loop.batch_ms.size()));

  // Output check: every acknowledged commit survives a reopen, byte for
  // byte.
  const std::string live = EncodedState(pipeline.repository());
  rk::storage::StoreOptions options = pipeline.config().storage;
  options.shard_count = pipeline.config().rule_shards;
  sys.pipeline.reset();
  {
    auto reopened = rk::storage::DurableRuleStore::Open(dir, options);
    if (!reopened.ok()) {
      report.Fail(1, "reopen failed: " + reopened.status().ToString());
    } else {
      report.Fail(EncodedState(*(*reopened)->repository()) != live,
                  "reopened store differs from the live repository");
    }
  }
  report.attempted += 1;
  Emit(e, report);
  std::filesystem::remove_all(dir);
}

}  // namespace

void RunUntraced(const Args& args, Report& report) {
  if (args.workload == "catalog_ingest") {
    RunIngest(args, report);
  } else if (args.workload == "serve_steady") {
    RunServe(args, report, /*noisy=*/false);
  } else if (args.workload == "serve_noisy_neighbour") {
    RunServe(args, report, /*noisy=*/true);
  } else {
    RunChurn(args, report);
  }
}

}  // namespace perfbench
