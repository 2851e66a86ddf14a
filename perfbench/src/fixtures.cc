#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "harness.h"
#include "src/chimera/analyst.h"
#include "src/common/random.h"
#include "src/common/string_util.h"
#include "src/serving/client.h"
#include "src/serving/wire.h"
#include "src/storage/rule_store.h"

namespace perfbench {

// ---- report ------------------------------------------------------------------

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Record(const std::string& key, const std::string& value) {
  record_.push_back({key, "\"" + value + "\""});
}

void Report::Record(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  record_.push_back({key, buf});
}

void Report::Fail(uint64_t count, const std::string& why) {
  if (count == 0) return;
  failed += count;
  correct = false;
  std::fprintf(stderr, "perfbench: check failed (%llu): %s\n",
               static_cast<unsigned long long>(count), why.c_str());
}

void Report::Print() const {
  std::printf("{\"run_record\": {");
  for (size_t i = 0; i < record_.size(); ++i) {
    std::printf("%s\"%s\": %s", i == 0 ? "" : ", ", record_[i].first.c_str(),
                record_[i].second.c_str());
  }
  std::printf("}}\n");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, metric] = metrics_[i];
    const double value = std::isfinite(metric.first) ? metric.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", name.c_str(), value,
                metric.second.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- statistics ---------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double WindowedQuantile(const std::vector<double>& in_order, double q) {
  const size_t windows = std::min<size_t>(10, in_order.size() / 100);
  if (windows < 2) return Quantile(in_order, q);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const size_t begin = in_order.size() * w / windows;
    const size_t end = in_order.size() * (w + 1) / windows;
    per_window.push_back(
        Quantile({in_order.begin() + begin, in_order.begin() + end}, q));
  }
  return Median(per_window);
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

RssSampler::RssSampler()
    : thread_([this] {
        const double page_mb =
            static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
        while (!stop_.load()) {
          std::ifstream statm("/proc/self/statm");
          double size = 0, resident = 0;
          if (statm >> size >> resident) samples_.push_back(resident * page_mb);
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      }) {}

RssSampler::~RssSampler() { (void)StopMedianMb(); }

double RssSampler::StopMedianMb() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return Median(samples_);
}

size_t Cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- fixtures ---------------------------------------------------------------

size_t Catalog::rule_count() const {
  size_t n = 0;
  for (const auto& rules : rules_per_type) n += rules.size();
  return n;
}

Catalog MakeCatalog(uint64_t seed, size_t num_types) {
  Catalog catalog;
  rk::data::GeneratorConfig config;
  config.seed = seed;
  config.num_types = num_types;
  catalog.gen = std::make_unique<rk::data::CatalogGenerator>(config);
  rk::chimera::AnalystConfig analyst_config;
  analyst_config.seed = seed;
  rk::chimera::SimulatedAnalyst analyst(*catalog.gen, analyst_config);
  for (const auto& spec : catalog.gen->specs()) {
    catalog.rules_per_type.push_back(analyst.WriteRulesForType(spec.name));
  }
  return catalog;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 of (seed, stream): unrelated streams for nearby seeds.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ItemStream::ItemStream(rk::data::CatalogGenerator& gen, uint64_t seed,
                       std::unordered_set<std::string> seen)
    : gen_(gen), rng_(seed), seen_(std::move(seen)) {
  // The generator's own type popularity: Zipf over spec order times the
  // spec weight.
  const rk::data::GeneratorConfig defaults;
  for (size_t i = 0; i < gen.specs().size(); ++i) {
    weights_.push_back(gen.specs()[i].weight /
                       std::pow(static_cast<double>(i + 1), defaults.zipf_skew));
  }
}

std::vector<rk::data::LabeledItem> ItemStream::Next(size_t n) {
  std::vector<rk::data::LabeledItem> out;
  out.reserve(n);
  while (out.size() < n) {
    rk::data::LabeledItem item = gen_.GenerateOfType(rng_.WeightedIndex(weights_));
    if (!seen_.insert(rk::ToLowerAscii(item.item.title)).second) continue;
    out.push_back(std::move(item));
  }
  return out;
}

std::vector<rk::data::ProductItem> ItemsOf(
    const std::vector<rk::data::LabeledItem>& labeled) {
  std::vector<rk::data::ProductItem> items;
  items.reserve(labeled.size());
  for (const auto& l : labeled) items.push_back(l.item);
  return items;
}

void LoadRules(rk::chimera::ChimeraPipeline& pipeline, const Catalog& catalog) {
  for (const auto& rules : catalog.rules_per_type) {
    rk::Status st = pipeline.AddRules(rules, "perfbench");
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: AddRules failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
}

std::vector<std::vector<rk::rules::Rule>> PaperScaleRules(
    const Catalog& catalog, size_t target) {
  const auto& specs = catalog.gen->specs();
  std::vector<std::vector<rk::rules::Rule>> out = catalog.rules_per_type;
  size_t total = catalog.rule_count();
  const size_t per_type = target / specs.size();
  for (size_t t = 0; t < specs.size() && total < target; ++t) {
    const rk::data::TypeSpec& spec = specs[t];
    std::vector<std::string> words;
    for (const auto* list : {&spec.qualifiers, &spec.materials, &spec.brands}) {
      words.insert(words.end(), list->begin(), list->end());
    }
    std::set<std::string> patterns;
    for (const std::string& word : words) {
      for (const std::string& noun : spec.head_nouns) {
        patterns.insert(rk::RegexEscape(rk::ToLowerAscii(word)) + ".*" +
                        rk::RegexEscape(rk::ToLowerAscii(noun)));
      }
    }
    size_t written = out[t].size();
    size_t serial = 0;
    for (const std::string& pattern : patterns) {
      if (written >= per_type || total >= target) break;
      auto rule = rk::rules::Rule::Whitelist(
          "kb-" + std::to_string(t) + "-" + std::to_string(serial++), pattern,
          spec.name);
      if (!rule.ok()) continue;
      out[t].push_back(std::move(rule).value());
      ++written;
      ++total;
    }
    // The long tail: rules for rare items (one literal each) that the
    // generated titles never contain, as in a years-old rule base.
    while (written < per_type && total < target) {
      auto rule = rk::rules::Rule::Whitelist(
          "tail-" + std::to_string(t) + "-" + std::to_string(serial),
          "sku" + std::to_string(t) + "x" + std::to_string(serial), spec.name);
      ++serial;
      if (!rule.ok()) continue;
      out[t].push_back(std::move(rule).value());
      ++written;
      ++total;
    }
  }
  return out;
}

std::vector<uint32_t> ZipfIndices(uint64_t seed, size_t n, size_t count,
                                  double s) {
  rk::Rng rng(seed);
  std::vector<uint32_t> out(count);
  for (auto& index : out) index = static_cast<uint32_t>(rng.Zipf(n, s));
  return out;
}

void Accuracy::Add(const std::optional<std::string>& predicted,
                   const std::string& label) {
  ++total;
  if (!predicted.has_value()) return;
  ++classified;
  if (*predicted == label) ++correct;
}

double Accuracy::precision() const {
  return classified == 0 ? 0.0
                         : static_cast<double>(correct) /
                               static_cast<double>(classified);
}

double Accuracy::coverage() const {
  return total == 0 ? 0.0
                    : static_cast<double>(classified) /
                          static_cast<double>(total);
}

// ---- rule commit stream -----------------------------------------------------------

namespace {

/// `count` qualifier rules (qualifier.*noun => type), the i-th for the
/// catalog's type i (mod the type count), with the words drawn from
/// `seed`. Every seed edits the same types, so every run republishes the
/// same mix of shards. Each rule agrees with the head rule it overlaps.
std::vector<rk::rules::Rule> QualifierRules(const Catalog& catalog, uint64_t seed,
                                            size_t count, const std::string& prefix) {
  const auto& specs = catalog.gen->specs();
  rk::Rng rng(seed);
  std::vector<rk::rules::Rule> out;
  for (size_t i = 0; out.size() < count; ++i) {
    const rk::data::TypeSpec& spec = specs[i % specs.size()];
    if (spec.qualifiers.empty() || spec.head_nouns.empty()) continue;
    const std::string& word = spec.qualifiers[rng.Uniform(spec.qualifiers.size())];
    const std::string& noun = spec.head_nouns[rng.Uniform(spec.head_nouns.size())];
    auto rule = rk::rules::Rule::Whitelist(
        prefix + "-" + std::to_string(i),
        rk::RegexEscape(rk::ToLowerAscii(word)) + ".*" +
            rk::RegexEscape(rk::ToLowerAscii(noun)),
        spec.name);
    if (rule.ok()) out.push_back(std::move(rule).value());
  }
  return out;
}

}  // namespace

std::vector<Edit> ChurnEdits(const Catalog& catalog, uint64_t seed, double seconds) {
  const size_t count = static_cast<size_t>(kChurnCommitsPerS * seconds) + 8;
  std::vector<Edit> edits;
  for (auto& rule : QualifierRules(catalog, SubSeed(seed, 3), count / 3 + 1, "churn")) {
    for (Edit::Kind kind : {Edit::Kind::kAdd, Edit::Kind::kDisable, Edit::Kind::kEnable}) {
      if (edits.size() < count) edits.push_back({kind, rule});
    }
  }
  return edits;
}

rk::Status ApplyEdit(rk::chimera::ChimeraPipeline& pipeline, const Edit& edit,
                     const rk::rules::TenantId& tenant) {
  const rk::rules::RuleId id(edit.rule.id());
  return pipeline.Mutate(
      "perfbench-analyst",
      [&](rk::rules::RuleTransaction& txn) -> rk::Status {
        switch (edit.kind) {
          case Edit::Kind::kAdd:
            return txn.Add(edit.rule);
          case Edit::Kind::kDisable:
            return txn.Disable(id, "churn");
          case Edit::Kind::kEnable:
            return txn.Enable(id);
        }
        return rk::Status::OK();
      },
      tenant);
}

namespace {
constexpr auto kSpinBeforeDue = std::chrono::microseconds(500);
}  // namespace

CommitStream::CommitStream(rk::chimera::ChimeraPipeline& pipeline,
                           std::vector<Edit> edits, rk::rules::TenantId tenant,
                           double rate_per_s, bool spin)
    : pipeline_(pipeline), edits_(std::move(edits)),
      tenant_(std::move(tenant)), rate_per_s_(rate_per_s), spin_(spin) {}

CommitStream::~CommitStream() {
  if (thread_.joinable()) thread_.join();
}

void CommitStream::Start(Clock::time_point start, Clock::time_point stop) {
  thread_ = std::thread([this, start, stop] { Run(start, stop); });
}

CommitStats CommitStream::Join() {
  if (thread_.joinable()) thread_.join();
  return stats_;
}

void CommitStream::Run(Clock::time_point start, Clock::time_point stop) {
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate_per_s_));
  size_t i = 0;
  for (; i < edits_.size(); ++i) {
    const Clock::time_point due = start + static_cast<int64_t>(i) * period;
    if (due >= stop) break;
    // A sleeping thread's CPU may be idle, and on a virtual machine an
    // idle CPU can take milliseconds to wake: that would add the host's
    // noise to a sub-millisecond commit. So spin up to the due time, all
    // the way when asked to, or else for its last half millisecond.
    if (!spin_) std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
    const Clock::time_point began = Clock::now();
    rk::Status st = ApplyEdit(pipeline_, edits_[i], tenant_);
    const Clock::time_point done = Clock::now();
    ++stats_.attempted;
    if (!st.ok()) {
      ++stats_.failed;
      std::fprintf(stderr, "perfbench: commit failed: %s\n",
                   st.ToString().c_str());
      continue;
    }
    stats_.latency_ms.push_back(
        std::chrono::duration<double, std::milli>(done - due).count());
    stats_.lateness_us.push_back(Micros(began - due));
  }
  const double span =
      std::chrono::duration<double>(Clock::now() - start).count();
  stats_.attained_per_s = span > 0 ? static_cast<double>(i) / span : 0.0;
}

// ---- open-loop request streams ----------------------------------------------------

uint64_t StreamResult::ok() const {
  uint64_t n = 0;
  for (uint8_t c : code) n += c == static_cast<uint8_t>(rk::serving::WireCode::kOk);
  return n;
}

uint64_t StreamResult::refused() const {
  uint64_t n = 0;
  for (uint8_t c : code) {
    n += c == static_cast<uint8_t>(rk::serving::WireCode::kOverloaded);
  }
  return n;
}

namespace {

void RunOneStream(uint16_t port, StreamResult& result,
                  const std::vector<rk::data::ProductItem>& items,
                  Clock::time_point start, double seconds) {
  const StreamSpec& spec = result.spec;
  rk::Rng arrivals(SubSeed(spec.seed, 1));
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.NextDouble()) / spec.rate_per_s;
    if (t >= seconds) break;
    result.due_s.push_back(t);
  }
  const size_t count = result.due_s.size();
  result.title_index = ZipfIndices(SubSeed(spec.seed, 2), items.size(), count, kZipfS);
  result.code.assign(count, 255);
  result.prediction.assign(count, std::nullopt);
  result.latency_us.assign(count, 0.0);
  result.lateness_us.reserve(count);
  result.send_us.reserve(count);
  auto client = rk::serving::RuleClient::Connect(port);
  if (!client.ok()) {
    result.transport_error = true;
    return;
  }
  auto due_of = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(result.due_s[i]));
  };

  std::thread receiver([&] {
    for (size_t n = 0; n < count; ++n) {
      auto response = client->Receive();
      if (!response.ok()) {
        result.transport_error = true;
        return;
      }
      const Clock::time_point now = Clock::now();
      const uint64_t id = response->request_id;
      if (id == 0 || id > count) {
        result.transport_error = true;
        return;
      }
      const size_t i = id - 1;
      result.code[i] = static_cast<uint8_t>(response->code);
      result.latency_us[i] = Micros(now - due_of(i));
      if (!response->predictions.empty()) {
        result.prediction[i] = std::move(response->predictions[0]);
      }
    }
  });

  size_t sent = 0;
  for (; sent < count; ++sent) {
    const Clock::time_point due = due_of(sent);
    std::this_thread::sleep_until(due);
    rk::serving::WireClassifyRequest request;
    request.request_id = sent + 1;
    request.tenant = spec.tenant;
    request.items.push_back(items[result.title_index[sent]]);
    const Clock::time_point began = Clock::now();
    rk::Status st = client->Send(request);
    result.send_us.push_back(Micros(Clock::now() - began));
    result.lateness_us.push_back(Micros(began - due));
    if (!st.ok()) {
      result.transport_error = true;
      break;
    }
  }
  result.sent = sent;
  const double span = std::chrono::duration<double>(Clock::now() - start).count();
  result.attained_per_s = span > 0 ? static_cast<double>(sent) / span : 0.0;
  if (sent < count) {
    // A send failed: unblock the receiver by closing our side.
    client->FinishSending();
  }
  receiver.join();
}

}  // namespace

std::vector<StreamResult> RunStreams(
    uint16_t port, const std::vector<StreamSpec>& specs,
    const std::vector<rk::data::ProductItem>& items, double seconds) {
  std::vector<StreamResult> results(specs.size());
  // Start after every connection had time to open.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> senders;
  for (size_t i = 0; i < specs.size(); ++i) {
    results[i].spec = specs[i];
    senders.emplace_back([&, i] {
      RunOneStream(port, results[i], items, start, seconds);
    });
  }
  for (auto& t : senders) t.join();
  return results;
}

void CheckSchedule(const StreamResult& stream, Report& report) {
  if (stream.transport_error) {
    report.invalid_reason = "transport error on stream " + stream.spec.tenant;
    return;
  }
  // Behind schedule means a growing backlog: most sends late, or a few
  // very late. Scheduler hiccups of a few ms on a shared host are neither.
  const double lateness_p50 = Quantile(stream.lateness_us, 0.5);
  const double lateness_p99 = Quantile(stream.lateness_us, 0.99);
  if (stream.sent < stream.due_s.size() || lateness_p50 > 1000.0 ||
      lateness_p99 > 50000.0) {
    char why[256];
    std::snprintf(why, sizeof(why),
                  "generator fell behind: sent %llu of %zu, lateness p50 %.0f us, "
                  "p99 %.0f us",
                  static_cast<unsigned long long>(stream.sent), stream.due_s.size(),
                  lateness_p50, lateness_p99);
    report.invalid_reason = why;
  }
}

void CheckSchedule(const CommitStats& commits, double rate_per_s,
                   double seconds, Report& report) {
  const double expected = rate_per_s * seconds;
  if (static_cast<double>(commits.attempted) < 0.9 * expected) {
    char why[256];
    std::snprintf(why, sizeof(why),
                  "commit stream fell behind: %llu of %.0f commits",
                  static_cast<unsigned long long>(commits.attempted), expected);
    report.invalid_reason = why;
  }
}

// ---- workload systems ----------------------------------------------------------------

rk::chimera::PipelineConfig IngestConfig() {
  rk::chimera::PipelineConfig config;
  config.batch_threads = Cores();
  config.hot_cache.enabled = true;
  return config;
}

IngestSystem IngestInputs() {
  IngestSystem system;
  system.catalog = MakeCatalog(kIngestFixtureSeed, kIngestTypes);
  system.training = system.catalog.gen->GenerateMany(kIngestTraining);
  return system;
}

void SetUpIngest(IngestSystem& system) {
  system.pipeline = std::make_unique<rk::chimera::ChimeraPipeline>(IngestConfig());
  LoadRules(*system.pipeline, system.catalog);
  system.pipeline->AddTrainingData(system.training);
  system.pipeline->RetrainLearning();
}

rk::chimera::PipelineConfig ServeConfig() {
  rk::chimera::PipelineConfig config;
  config.use_learning = false;
  config.hot_cache.enabled = true;
  config.hot_cache.capacity = 4096;
  config.hot_cache.admit_after = 1;
  return config;
}

ServeSystem ServeInputs() {
  ServeSystem system;
  system.catalog = MakeCatalog(kServeFixtureSeed, kServeTypes);
  system.pool = ItemStream(*system.catalog.gen, kServeFixtureSeed, {}).Next(kServePool);
  system.items = ItemsOf(system.pool);
  return system;
}

rk::serving::ServerConfig ServeServerConfig(bool noisy) {
  rk::serving::ServerConfig config;  // coalesce_window stays at its default
  if (noisy) config.rate_limit_per_sec = 300;
  return config;
}

std::vector<StreamSpec> ServeStreams(uint64_t seed, bool noisy) {
  if (noisy) {
    return {{"quiet", 200, SubSeed(seed, 10)}, {"noisy", 3000, SubSeed(seed, 11)}};
  }
  return {{"", 1000, SubSeed(seed, 10)}, {"", 1000, SubSeed(seed, 11)}};
}

void SetUpServe(ServeSystem& system) {
  system.pipeline = std::make_unique<rk::chimera::ChimeraPipeline>(ServeConfig());
  LoadRules(*system.pipeline, system.catalog);
}

rk::chimera::PipelineConfig ChurnConfig(const std::string& store_dir) {
  rk::chimera::PipelineConfig config;
  config.use_learning = false;
  config.batch_threads = Cores() > 2 ? Cores() - 2 : 1;
  config.hot_cache.enabled = true;
  config.storage_dir = store_dir;
  config.storage.fsync_policy = rk::storage::FsyncPolicy::kEveryCommit;
  return config;
}

ChurnSystem ChurnInputs(const std::string& store_dir) {
  ChurnSystem system;
  system.catalog = MakeCatalog(kChurnFixtureSeed, kChurnTypes);
  system.rules_per_type = PaperScaleRules(system.catalog, kChurnRules);
  system.pool = ItemStream(*system.catalog.gen, kChurnFixtureSeed, {}).Next(kChurnPool);
  system.items = ItemsOf(system.pool);
  system.store_dir = store_dir;
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);
  const rk::chimera::PipelineConfig config = ChurnConfig(store_dir);
  rk::storage::StoreOptions options = config.storage;
  options.shard_count = config.rule_shards;
  auto store = rk::storage::DurableRuleStore::Open(store_dir, options);
  if (!store.ok()) {
    std::fprintf(stderr, "perfbench: store open failed: %s\n",
                 store.status().ToString().c_str());
    std::exit(1);
  }
  for (const auto& rules : system.rules_per_type) {
    rk::Status st = (*store)->repository()->Mutate(
        "perfbench", [&](rk::rules::RuleTransaction& txn) -> rk::Status {
          for (const auto& rule : rules) RULEKIT_RETURN_IF_ERROR(txn.Add(rule));
          return rk::Status::OK();
        });
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: load commit failed: %s\n",
                   st.ToString().c_str());
      std::exit(1);
    }
  }
  return system;
}

void SetUpChurn(ChurnSystem& system) {
  system.pipeline = std::make_unique<rk::chimera::ChimeraPipeline>(
      ChurnConfig(system.store_dir));
  if (!system.pipeline->storage_status().ok()) {
    std::fprintf(stderr, "perfbench: store reopen failed: %s\n",
                 system.pipeline->storage_status().ToString().c_str());
    std::exit(1);
  }
}

const std::vector<uint32_t>& ChurnReads::Next() {
  batch_.resize(kChurnBatch);
  for (auto& index : batch_) index = static_cast<uint32_t>(rng_.Zipf(pool_size_, kZipfS));
  return batch_;
}

rk::chimera::ClassifyResponse ClassifyItems(
    const rk::chimera::ChimeraPipeline& pipeline,
    std::span<const rk::data::ProductItem> items,
    const rk::rules::TenantId& tenant) {
  rk::chimera::ClassifyRequest request;
  request.tenant = tenant;
  request.items = items;
  return pipeline.Classify(request);
}

}  // namespace perfbench
