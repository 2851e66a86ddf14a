#include "src/rules/repository.h"

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "src/common/string_util.h"
#include "src/rules/rule_parser.h"

namespace rulekit::rules {

namespace {

const char* OriginName(RuleOrigin origin) {
  switch (origin) {
    case RuleOrigin::kAnalyst: return "analyst";
    case RuleOrigin::kMined: return "mined";
    case RuleOrigin::kCurated: return "curated";
    case RuleOrigin::kImported: return "imported";
  }
  return "analyst";
}

RuleOrigin OriginFromName(std::string_view name) {
  if (name == "mined") return RuleOrigin::kMined;
  if (name == "curated") return RuleOrigin::kCurated;
  if (name == "imported") return RuleOrigin::kImported;
  return RuleOrigin::kAnalyst;
}

const char* StateName(RuleState state) {
  switch (state) {
    case RuleState::kActive: return "active";
    case RuleState::kDisabled: return "disabled";
    case RuleState::kRetired: return "retired";
  }
  return "active";
}

RuleState StateFromName(std::string_view name) {
  if (name == "disabled") return RuleState::kDisabled;
  if (name == "retired") return RuleState::kRetired;
  return RuleState::kActive;
}

const char* ActionName(AuditAction action) {
  switch (action) {
    case AuditAction::kAdd: return "add";
    case AuditAction::kDisable: return "disable";
    case AuditAction::kEnable: return "enable";
    case AuditAction::kRetire: return "retire";
    case AuditAction::kSetConfidence: return "set_confidence";
    case AuditAction::kCheckpoint: return "checkpoint";
    case AuditAction::kRestore: return "restore";
  }
  return "add";
}

AuditAction ActionFromName(std::string_view name) {
  if (name == "disable") return AuditAction::kDisable;
  if (name == "enable") return AuditAction::kEnable;
  if (name == "retire") return AuditAction::kRetire;
  if (name == "set_confidence") return AuditAction::kSetConfidence;
  if (name == "checkpoint") return AuditAction::kCheckpoint;
  if (name == "restore") return AuditAction::kRestore;
  return AuditAction::kAdd;
}

// A rule's confidence is the score the rule classifier proposes to the
// voting master, which sorts by it: NaN would break that ordering, and
// the scale is [0, 1]. Every comparison with NaN is false, so NaN fails.
bool ValidConfidence(double confidence) {
  return confidence >= 0.0 && confidence <= 1.0;
}

}  // namespace

RuleRepository::RuleRepository(size_t shard_count) {
  if (shard_count == 0) shard_count = 1;
  shards_.reserve(shard_count);
  for (size_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

// Moves transfer the data and start with fresh mutexes; the contract (see
// header) is that nothing concurrent is in flight during a move.
RuleRepository::RuleRepository(RuleRepository&& other) noexcept
    : shards_(std::move(other.shards_)),
      routing_(std::move(other.routing_)),
      audit_(std::move(other.audit_)),
      clock_(other.clock_),
      journal_(std::move(other.journal_)),
      checkpoints_(std::move(other.checkpoints_)),
      merged_cache_(std::move(other.merged_cache_)),
      merged_cache_version_(other.merged_cache_version_),
      merged_snapshot_(std::move(other.merged_snapshot_)),
      merged_snapshot_version_(other.merged_snapshot_version_) {}

RuleRepository& RuleRepository::operator=(RuleRepository&& other) noexcept {
  if (this != &other) {
    shards_ = std::move(other.shards_);
    routing_ = std::move(other.routing_);
    audit_ = std::move(other.audit_);
    clock_ = other.clock_;
    journal_ = std::move(other.journal_);
    checkpoints_ = std::move(other.checkpoints_);
    merged_cache_ = std::move(other.merged_cache_);
    merged_cache_version_ = other.merged_cache_version_;
    merged_snapshot_ = std::move(other.merged_snapshot_);
    merged_snapshot_version_ = other.merged_snapshot_version_;
  }
  return *this;
}

Result<ShardKey> RuleRepository::ShardOfRule(const RuleId& id) const {
  std::lock_guard<std::mutex> lock(routing_mu_);
  auto it = routing_.find(id.value());
  if (it == routing_.end()) {
    return Status::NotFound("no such rule: " + id.value());
  }
  return ShardKey(it->second.shard);
}

uint64_t RuleRepository::Log(AuditAction action, const RuleId& rule_id,
                             std::string_view author,
                             std::string_view detail) {
  std::lock_guard<std::mutex> lock(log_mu_);
  audit_.push_back({++clock_, action, rule_id, std::string(author),
                    std::string(detail)});
  return clock_;
}

// ---- transactions ----------------------------------------------------------

RuleRepository::Transaction RuleRepository::Begin(std::string_view author,
                                                  const TenantId& tenant) {
  return Transaction(this, std::string(author), tenant);
}

Status RuleRepository::Transaction::Add(Rule rule) {
  Op op{OpKind::kAdd, std::move(rule), RuleId(), "", 0.0};
  ops_.push_back(std::move(op));
  return Status::OK();
}

Status RuleRepository::Transaction::Disable(const RuleId& id,
                                            std::string_view reason) {
  ops_.push_back({OpKind::kDisable, std::nullopt, id, std::string(reason),
                  0.0});
  return Status::OK();
}

Status RuleRepository::Transaction::Enable(const RuleId& id) {
  ops_.push_back({OpKind::kEnable, std::nullopt, id, "", 0.0});
  return Status::OK();
}

Status RuleRepository::Transaction::Retire(const RuleId& id,
                                           std::string_view reason) {
  ops_.push_back({OpKind::kRetire, std::nullopt, id, std::string(reason),
                  0.0});
  return Status::OK();
}

Status RuleRepository::Transaction::SetConfidence(const RuleId& id,
                                                  double confidence) {
  if (!ValidConfidence(confidence)) {
    return Status::InvalidArgument(
        StrFormat("confidence of rule %s must be in [0, 1], got %g",
                  id.value().c_str(), confidence));
  }
  ops_.push_back({OpKind::kSetConfidence, std::nullopt, id, "", confidence});
  return Status::OK();
}

Status RuleRepository::Transaction::Commit() {
  return repo_->CommitTransaction(*this);
}

Status RuleRepository::CommitTransaction(Transaction& txn) {
  txn.touched_.clear();
  if (txn.ops_.empty()) return Status::OK();

  // Phase 1: resolve every op to its shard (and its rule's owning
  // tenant) before applying anything, so an unknown rule id — or a
  // cross-tenant edit — fails the whole commit with zero side effects.
  // Ids staged by earlier Adds in this transaction resolve too.
  std::vector<uint32_t> op_shard(txn.ops_.size());
  std::vector<std::string> op_tenant(txn.ops_.size());
  std::unordered_map<std::string, uint32_t> staged_adds;
  for (size_t i = 0; i < txn.ops_.size(); ++i) {
    Transaction::Op& op = txn.ops_[i];
    if (op.kind == Transaction::OpKind::kAdd) {
      uint32_t shard =
          KeyForTenantType(txn.tenant_, op.rule->target_type()).index();
      op_shard[i] = shard;
      op_tenant[i] = txn.tenant_.value();
      staged_adds.emplace(op.rule->id(), shard);
      continue;
    }
    auto staged = staged_adds.find(op.id.value());
    if (staged != staged_adds.end()) {
      op_shard[i] = staged->second;
      op_tenant[i] = txn.tenant_.value();
      continue;
    }
    std::lock_guard<std::mutex> lock(routing_mu_);
    auto it = routing_.find(op.id.value());
    if (it == routing_.end()) {
      return Status::NotFound("no such rule: " + op.id.value());
    }
    // A tenant-scoped transaction edits only its own rules; the default
    // tenant is the administrative scope and may edit everything.
    if (!txn.tenant_.is_default() &&
        it->second.tenant != txn.tenant_.value()) {
      return Status::FailedPrecondition(
          "tenant '" + txn.tenant_.value() + "' may not edit rule '" +
          op.id.value() + "' owned by tenant '" +
          TenantId(it->second.tenant).display() + "'");
    }
    op_shard[i] = it->second.shard;
    op_tenant[i] = it->second.tenant;
  }

  // Phase 2: lock every affected shard (ascending — the global lock
  // order), apply in staging order, and bump each modified shard's
  // version exactly once so readers republish at most once per shard.
  std::vector<uint32_t> affected(op_shard);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(affected.size());
  for (uint32_t idx : affected) {
    locks.emplace_back(shards_[idx]->mu);
  }

  Status result = Status::OK();
  std::vector<uint32_t> modified;
  // Which tenants' rules each modified shard saw touched — those (and
  // only those) per-tenant counters bump below, so an edit to tenant A's
  // rules never advances tenant B's (or the shared pool's) versions.
  std::map<uint32_t, std::set<std::string>> modified_tenants;
  size_t current_op = 0;
  auto mark_modified = [&](uint32_t idx) {
    if (std::find(modified.begin(), modified.end(), idx) == modified.end()) {
      modified.push_back(idx);
    }
    modified_tenants[idx].insert(op_tenant[current_op]);
  };
  // What actually landed, for the durability journal (a failed commit
  // journals its applied prefix — exactly what stays in memory).
  CommitRecord record;
  record.tenant = txn.tenant_.value();
  auto journal_op = [&](CommitRecord::Op op, uint64_t ts, AuditAction action,
                        const RuleId& id, std::string_view detail) {
    record.ops.push_back(std::move(op));
    record.entries.push_back(
        {ts, action, id, txn.author_, std::string(detail)});
  };

  for (size_t i = 0; i < txn.ops_.size(); ++i) {
    current_op = i;
    Transaction::Op& op = txn.ops_[i];
    Shard& shard = *shards_[op_shard[i]];
    switch (op.kind) {
      case Transaction::OpKind::kAdd: {
        std::string id = op.rule->id();
        {
          std::lock_guard<std::mutex> lock(routing_mu_);
          if (routing_.count(id) != 0) {
            result = Status::AlreadyExists("duplicate rule id: " + id);
            break;
          }
        }
        op.rule->metadata().author = txn.author_;
        op.rule->metadata().tenant = txn.tenant_.value();
        result = shard.rules.Add(std::move(*op.rule));
        if (!result.ok()) break;
        {
          std::lock_guard<std::mutex> lock(routing_mu_);
          routing_.emplace(id,
                           RouteEntry{op_shard[i], txn.tenant_.value()});
        }
        uint64_t ts = Log(AuditAction::kAdd, RuleId(id), txn.author_, "");
        Rule* stored = shard.rules.FindMutable(id);
        stored->metadata().created_at = ts;
        journal_op({CommitRecord::OpKind::kAdd, *stored, RuleId(), 0.0, 0},
                   ts, AuditAction::kAdd, RuleId(id), "");
        mark_modified(op_shard[i]);
        break;
      }
      case Transaction::OpKind::kDisable: {
        result = shard.rules.Disable(op.id.view());
        if (!result.ok()) break;
        uint64_t ts = Log(AuditAction::kDisable, op.id, txn.author_,
                          op.detail);
        journal_op({CommitRecord::OpKind::kDisable, std::nullopt, op.id, 0.0,
                    0},
                   ts, AuditAction::kDisable, op.id, op.detail);
        mark_modified(op_shard[i]);
        break;
      }
      case Transaction::OpKind::kEnable: {
        result = shard.rules.Enable(op.id.view());
        if (!result.ok()) break;
        uint64_t ts = Log(AuditAction::kEnable, op.id, txn.author_, "");
        journal_op({CommitRecord::OpKind::kEnable, std::nullopt, op.id, 0.0,
                    0},
                   ts, AuditAction::kEnable, op.id, "");
        mark_modified(op_shard[i]);
        break;
      }
      case Transaction::OpKind::kRetire: {
        result = shard.rules.Retire(op.id.view());
        if (!result.ok()) break;
        uint64_t ts = Log(AuditAction::kRetire, op.id, txn.author_,
                          op.detail);
        journal_op({CommitRecord::OpKind::kRetire, std::nullopt, op.id, 0.0,
                    0},
                   ts, AuditAction::kRetire, op.id, op.detail);
        mark_modified(op_shard[i]);
        break;
      }
      case Transaction::OpKind::kSetConfidence: {
        Rule* rule = shard.rules.FindMutable(op.id.view());
        if (rule == nullptr) {
          result = Status::NotFound("no such rule: " + op.id.value());
          break;
        }
        rule->metadata().confidence = op.confidence;
        std::string detail = StrFormat("%.4f", op.confidence);
        uint64_t ts = Log(AuditAction::kSetConfidence, op.id, txn.author_,
                          detail);
        journal_op({CommitRecord::OpKind::kSetConfidence, std::nullopt,
                    op.id, op.confidence, 0},
                   ts, AuditAction::kSetConfidence, op.id, detail);
        mark_modified(op_shard[i]);
        break;
      }
    }
    if (!result.ok()) break;  // applied prefix stays; see header contract
  }

  // Journal before publication: when the append succeeds, readers never
  // observe state recovery could not rebuild. When it fails, the applied
  // ops still publish below — they cannot be rolled back — and the error
  // is surfaced to the caller, whose in-memory state is then ahead of
  // the durable log until journaling recovers (see CommitJournal).
  if (journal_ && !record.ops.empty()) {
    Status jst = journal_(record);
    if (result.ok() && !jst.ok()) result = jst;
  }

  std::sort(modified.begin(), modified.end());
  for (uint32_t idx : modified) {
    Shard& shard = *shards_[idx];
    shard.version.fetch_add(1, std::memory_order_release);
    for (const std::string& tenant : modified_tenants[idx]) {
      ++shard.tenant_versions[tenant];
    }
    shard.published.reset();
    txn.touched_.push_back(ShardKey(idx));
  }
  txn.ops_.clear();
  return result;
}

Status RuleRepository::Mutate(std::string_view author,
                              const std::function<Status(Transaction&)>& fn) {
  return Mutate(author, TenantId(), fn);
}

Status RuleRepository::Mutate(std::string_view author, const TenantId& tenant,
                              const std::function<Status(Transaction&)>& fn) {
  Transaction txn = Begin(author, tenant);
  RULEKIT_RETURN_IF_ERROR(fn(txn));
  return txn.Commit();
}

// ---- single mutations ------------------------------------------------------

Status RuleRepository::Add(Rule rule, std::string_view author) {
  Transaction txn = Begin(author);
  (void)txn.Add(std::move(rule));
  return txn.Commit();
}

Status RuleRepository::Disable(const RuleId& id, std::string_view author,
                               std::string_view reason) {
  Transaction txn = Begin(author);
  (void)txn.Disable(id, reason);
  return txn.Commit();
}

Status RuleRepository::Enable(const RuleId& id, std::string_view author) {
  Transaction txn = Begin(author);
  (void)txn.Enable(id);
  return txn.Commit();
}

Status RuleRepository::Retire(const RuleId& id, std::string_view author,
                              std::string_view reason) {
  Transaction txn = Begin(author);
  (void)txn.Retire(id, reason);
  return txn.Commit();
}

Status RuleRepository::SetConfidence(const RuleId& id, double confidence,
                                     std::string_view author) {
  Transaction txn = Begin(author);
  RULEKIT_RETURN_IF_ERROR(txn.SetConfidence(id, confidence));
  return txn.Commit();
}

Result<std::vector<RuleId>> RuleRepository::DisableRulesForType(
    std::string_view type, std::string_view author, std::string_view reason,
    const TenantId& tenant) {
  std::vector<RuleId> disabled;
  Status journal_status;
  // One shard at a time: attribute-value rules can carry `type` anywhere
  // in their candidate list, so every shard must be scanned, but shards
  // not hosting such rules are locked only briefly and never bumped.
  // A non-default tenant scales down only its own rules; the default
  // tenant is the administrative scope and disables every tenant's rules
  // for the type — exactly the pre-tenancy emergency lever.
  for (size_t idx = 0; idx < shards_.size(); ++idx) {
    Shard& shard = *shards_[idx];
    std::lock_guard<std::mutex> lock(shard.mu);
    CommitRecord record;  // one journal record per published shard
    record.tenant = tenant.value();
    std::set<std::string> touched_tenants;
    for (const Rule* rule : shard.rules.ActiveForType(type)) {
      if (!tenant.is_default() &&
          rule->metadata().tenant != tenant.value()) {
        continue;
      }
      std::string owner = rule->metadata().tenant;
      if (shard.rules.Disable(rule->id()).ok()) {
        RuleId id(rule->id());
        uint64_t ts = Log(AuditAction::kDisable, id, author, reason);
        record.ops.push_back(
            {CommitRecord::OpKind::kDisable, std::nullopt, id, 0.0, 0});
        record.entries.push_back({ts, AuditAction::kDisable, id,
                                  std::string(author), std::string(reason)});
        disabled.push_back(std::move(id));
        touched_tenants.insert(std::move(owner));
      }
    }
    if (!record.ops.empty()) {
      // Scale-down is an emergency lever: a journal failure must not stop
      // the remaining shards from being disabled, but it is surfaced
      // below — same semantics as CommitTransaction (applied state
      // publishes, the caller learns recovery cannot reproduce it).
      if (journal_) {
        Status jst = journal_(record);
        if (journal_status.ok() && !jst.ok()) journal_status = jst;
      }
      shard.version.fetch_add(1, std::memory_order_release);
      for (const std::string& owner : touched_tenants) {
        ++shard.tenant_versions[owner];
      }
      shard.published.reset();
    }
  }
  if (!journal_status.ok()) return journal_status;
  return disabled;
}

// ---- snapshots -------------------------------------------------------------

ShardSnapshot RuleRepository::ShardSnapshotOf(ShardKey key) const {
  const Shard& shard = *shards_[key.index() % shards_.size()];
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.published == nullptr) {
    shard.published = std::make_shared<const RuleSet>(shard.rules);
  }
  return {key, shard.version.load(std::memory_order_acquire),
          shard.tenant_versions, shard.published};
}

RepositorySnapshot RuleRepository::SnapshotAll() const {
  RepositorySnapshot snap;
  snap.shards.reserve(shards_.size());
  for (size_t idx = 0; idx < shards_.size(); ++idx) {
    snap.shards.push_back(ShardSnapshotOf(ShardKey(idx)));
    snap.composite_version += snap.shards.back().version;
  }
  return snap;
}

uint64_t RuleRepository::shard_version(ShardKey key) const {
  if (key.index() >= shards_.size()) return 0;
  return shards_[key.index()]->version.load(std::memory_order_acquire);
}

uint64_t RuleRepository::tenant_shard_version(ShardKey key,
                                              const TenantId& tenant) const {
  if (key.index() >= shards_.size()) return 0;
  const Shard& shard = *shards_[key.index()];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenant_versions.find(tenant.value());
  return it == shard.tenant_versions.end() ? 0 : it->second;
}

std::vector<TenantId> RuleRepository::Tenants() const {
  std::set<std::string> names;
  {
    std::lock_guard<std::mutex> lock(routing_mu_);
    for (const auto& [id, route] : routing_) names.insert(route.tenant);
  }
  names.insert("");  // the shared pool always exists
  std::vector<TenantId> out;
  out.reserve(names.size());
  for (const std::string& name : names) out.emplace_back(name);
  return out;  // "" sorts first: default tenant leads
}

uint64_t RuleRepository::composite_version() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->version.load(std::memory_order_acquire);
  }
  return total;
}

void RuleRepository::RefreshMergedLocked(
    const RepositorySnapshot& pinned) const {
  if (merged_cache_version_ == pinned.composite_version) return;
  RuleSet merged;
  for (const ShardSnapshot& shard : pinned.shards) {
    for (const Rule& rule : shard.rules->rules()) {
      (void)merged.Add(rule);  // ids are unique across shards
    }
  }
  merged_cache_ = std::move(merged);
  merged_cache_version_ = pinned.composite_version;
}

std::shared_ptr<const RuleSet> RuleRepository::snapshot() const {
  RepositorySnapshot pinned = SnapshotAll();  // shard locks released here
  std::lock_guard<std::mutex> lock(merged_mu_);
  RefreshMergedLocked(pinned);
  if (merged_snapshot_ == nullptr ||
      merged_snapshot_version_ != pinned.composite_version) {
    merged_snapshot_ = std::make_shared<const RuleSet>(merged_cache_);
    merged_snapshot_version_ = pinned.composite_version;
  }
  return merged_snapshot_;
}

const RuleSet& RuleRepository::rules() const {
  if (shards_.size() == 1) return shards_[0]->rules;
  RepositorySnapshot pinned = SnapshotAll();
  std::lock_guard<std::mutex> lock(merged_mu_);
  RefreshMergedLocked(pinned);
  return merged_cache_;
}

uint64_t RuleRepository::clock() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return clock_;
}

// ---- checkpoints -----------------------------------------------------------

Result<uint64_t> RuleRepository::Checkpoint(std::string_view author) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  CheckpointState snap;
  for (const auto& shard : shards_) {
    for (const Rule& rule : shard->rules.rules()) {
      snap.states[RuleId(rule.id())] = {rule.metadata().state,
                                        rule.metadata().confidence};
    }
  }
  uint64_t version = Log(AuditAction::kCheckpoint, RuleId(), author, "");
  if (journal_) {
    CommitRecord record;
    record.ops.push_back(
        {CommitRecord::OpKind::kCheckpoint, std::nullopt, RuleId(), 0.0, 0});
    record.entries.push_back({version, AuditAction::kCheckpoint, RuleId(),
                              std::string(author), ""});
    // Journal before registering: an unjournaled checkpoint must not be
    // restorable, or a later journaled kRestoreCheckpoint could reference
    // a version Replay() has never seen and abort recovery outright. The
    // audit entry stays, like a failed commit's applied prefix.
    RULEKIT_RETURN_IF_ERROR(journal_(record));
  }
  checkpoints_[version] = std::move(snap);
  return version;
}

Status RuleRepository::RestoreCheckpoint(uint64_t version,
                                         std::string_view author) {
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  auto it = checkpoints_.find(version);
  if (it == checkpoints_.end()) {
    return Status::NotFound(StrFormat(
        "no checkpoint %llu", static_cast<unsigned long long>(version)));
  }
  for (const auto& shard : shards_) {
    for (Rule& rule : shard->rules.mutable_rules()) {
      auto state_it = it->second.states.find(RuleId(rule.id()));
      if (state_it == it->second.states.end()) {
        // Added after the checkpoint: take it out of execution.
        rule.metadata().state = RuleState::kDisabled;
      } else {
        rule.metadata().state = state_it->second.first;
        rule.metadata().confidence = state_it->second.second;
      }
    }
  }
  std::string detail =
      StrFormat("version %llu", static_cast<unsigned long long>(version));
  uint64_t ts = Log(AuditAction::kRestore, RuleId(), author, detail);
  Status journaled = Status::OK();
  if (journal_) {
    CommitRecord record;
    record.ops.push_back({CommitRecord::OpKind::kRestoreCheckpoint,
                          std::nullopt, RuleId(), 0.0, version});
    record.entries.push_back(
        {ts, AuditAction::kRestore, RuleId(), std::string(author), detail});
    journaled = journal_(record);  // before the bumps publish the restore
  }
  for (const auto& shard : shards_) {
    shard->version.fetch_add(1, std::memory_order_release);
    // A restore rewrites every rule's state regardless of owner, so every
    // tenant's view of every shard changes: bump the default counter and
    // every tenant counter the shard has ever seen.
    ++shard->tenant_versions[""];
    for (auto& [tenant, version] : shard->tenant_versions) {
      if (!tenant.empty()) ++version;
    }
    shard->published.reset();
  }
  return journaled;
}

std::vector<AuditEntry> RuleRepository::HistoryOf(
    const RuleId& rule_id) const {
  std::lock_guard<std::mutex> lock(log_mu_);
  std::vector<AuditEntry> out;
  for (const auto& e : audit_) {
    if (e.rule_id == rule_id) out.push_back(e);
  }
  return out;
}

// ---- durability ------------------------------------------------------------

Status RuleRepository::Replay(const CommitRecord& record) {
  if (record.entries.size() != record.ops.size()) {
    return Status::InvalidArgument(StrFormat(
        "commit record has %zu ops but %zu audit entries", record.ops.size(),
        record.entries.size()));
  }

  // Recovery mirrors the writer: all-shard locking (like Checkpoint), ops
  // applied in journal order, then one version bump per shard the record
  // modified. Replay is single-threaded in practice, but locking keeps
  // the invariants checkable under TSan.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);

  std::vector<bool> modified(shards_.size(), false);
  // Owner tenants touched per shard — mirrored from the writer so the
  // per-tenant counters converge exactly (the acceptance bar for
  // recovery). Restores bump everything, flagged separately.
  std::vector<std::set<std::string>> modified_tenants(shards_.size());
  bool restored = false;
  for (size_t i = 0; i < record.ops.size(); ++i) {
    const CommitRecord::Op& op = record.ops[i];
    const AuditEntry& entry = record.entries[i];
    auto fail = [&](const Status& why) {
      return Status::IOError(StrFormat(
          "journal op %zu (%s at t=%llu) does not apply: %s", i,
          ActionName(entry.action),
          static_cast<unsigned long long>(entry.timestamp),
          why.message().c_str()));
    };
    switch (op.kind) {
      case CommitRecord::OpKind::kAdd: {
        if (!op.rule.has_value()) {
          return fail(Status::InvalidArgument("add op carries no rule"));
        }
        std::string id = op.rule->id();
        // The stored rule carries its owner; routing mirrors the writer's
        // tenant-aware placement.
        const std::string& owner = op.rule->metadata().tenant;
        uint32_t shard_idx =
            KeyForTenantType(TenantId(owner), op.rule->target_type())
                .index();
        {
          std::lock_guard<std::mutex> lock(routing_mu_);
          if (routing_.count(id) != 0) {
            return fail(Status::AlreadyExists("duplicate rule id: " + id));
          }
        }
        Status st = shards_[shard_idx]->rules.Add(*op.rule);
        if (!st.ok()) return fail(st);
        modified_tenants[shard_idx].insert(owner);
        {
          std::lock_guard<std::mutex> lock(routing_mu_);
          routing_.emplace(std::move(id), RouteEntry{shard_idx, owner});
        }
        modified[shard_idx] = true;
        break;
      }
      case CommitRecord::OpKind::kDisable:
      case CommitRecord::OpKind::kEnable:
      case CommitRecord::OpKind::kRetire:
      case CommitRecord::OpKind::kSetConfidence: {
        uint32_t shard_idx = 0;
        {
          std::lock_guard<std::mutex> lock(routing_mu_);
          auto it = routing_.find(op.id.value());
          if (it == routing_.end()) {
            return fail(Status::NotFound("no such rule: " + op.id.value()));
          }
          shard_idx = it->second.shard;
          modified_tenants[shard_idx].insert(it->second.tenant);
        }
        Shard& shard = *shards_[shard_idx];
        Status st;
        if (op.kind == CommitRecord::OpKind::kDisable) {
          st = shard.rules.Disable(op.id.view());
        } else if (op.kind == CommitRecord::OpKind::kEnable) {
          st = shard.rules.Enable(op.id.view());
        } else if (op.kind == CommitRecord::OpKind::kRetire) {
          st = shard.rules.Retire(op.id.view());
        } else {
          Rule* rule = shard.rules.FindMutable(op.id.view());
          if (rule == nullptr) {
            st = Status::NotFound("no such rule: " + op.id.value());
          } else {
            rule->metadata().confidence = op.confidence;
          }
        }
        if (!st.ok()) return fail(st);
        modified[shard_idx] = true;
        break;
      }
      case CommitRecord::OpKind::kCheckpoint: {
        // Recompute the state map exactly as Checkpoint() did at this
        // point in the mutation history; the entry timestamp is the
        // checkpoint's version handle.
        CheckpointState snap;
        for (const auto& shard : shards_) {
          for (const Rule& rule : shard->rules.rules()) {
            snap.states[RuleId(rule.id())] = {rule.metadata().state,
                                              rule.metadata().confidence};
          }
        }
        checkpoints_[entry.timestamp] = std::move(snap);
        break;  // Checkpoint() bumps no shard
      }
      case CommitRecord::OpKind::kRestoreCheckpoint: {
        auto it = checkpoints_.find(op.checkpoint_version);
        if (it == checkpoints_.end()) {
          return fail(Status::NotFound(StrFormat(
              "no checkpoint %llu",
              static_cast<unsigned long long>(op.checkpoint_version))));
        }
        for (const auto& shard : shards_) {
          for (Rule& rule : shard->rules.mutable_rules()) {
            auto state_it = it->second.states.find(RuleId(rule.id()));
            if (state_it == it->second.states.end()) {
              rule.metadata().state = RuleState::kDisabled;
            } else {
              rule.metadata().state = state_it->second.first;
              rule.metadata().confidence = state_it->second.second;
            }
          }
        }
        std::fill(modified.begin(), modified.end(), true);
        restored = true;
        break;
      }
    }
  }

  {
    std::lock_guard<std::mutex> lock(log_mu_);
    // The writer's audit log is timestamp-ordered (Log() assigns under
    // log_mu_), but records from disjoint-shard commits can reach the
    // journal slightly out of that order. Merge rather than append so
    // the recovered log is byte-identical to the writer's.
    size_t old_size = audit_.size();
    audit_.insert(audit_.end(), record.entries.begin(), record.entries.end());
    if (old_size > 0 && old_size < audit_.size() &&
        audit_[old_size].timestamp < audit_[old_size - 1].timestamp) {
      std::inplace_merge(
          audit_.begin(), audit_.begin() + static_cast<ptrdiff_t>(old_size),
          audit_.end(), [](const AuditEntry& a, const AuditEntry& b) {
            return a.timestamp < b.timestamp;
          });
    }
    for (const AuditEntry& e : record.entries) {
      clock_ = std::max(clock_, e.timestamp);
    }
  }

  for (size_t idx = 0; idx < shards_.size(); ++idx) {
    if (!modified[idx]) continue;
    Shard& shard = *shards_[idx];
    shard.version.fetch_add(1, std::memory_order_release);
    if (restored) {
      // Mirror RestoreCheckpoint: default counter plus every tenant
      // counter the shard has seen.
      ++shard.tenant_versions[""];
      for (auto& [tenant, version] : shard.tenant_versions) {
        if (!tenant.empty()) ++version;
      }
    } else {
      for (const std::string& tenant : modified_tenants[idx]) {
        ++shard.tenant_versions[tenant];
      }
    }
    shard.published.reset();
  }
  return Status::OK();
}

PersistedState RuleRepository::ExportState() const {
  PersistedState out;
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (const auto& shard : shards_) locks.emplace_back(shard->mu);
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->rules.size();
  out.rules.reserve(total);
  out.shard_versions.reserve(shards_.size());
  out.tenant_versions.reserve(shards_.size());
  for (const auto& shard : shards_) {
    for (const Rule& rule : shard->rules.rules()) out.rules.push_back(rule);
    out.shard_versions.push_back(
        shard->version.load(std::memory_order_acquire));
    out.tenant_versions.push_back(shard->tenant_versions);
  }
  out.checkpoints.reserve(checkpoints_.size());
  for (const auto& [version, state] : checkpoints_) {
    CheckpointRecord rec;
    rec.version = version;
    rec.entries.reserve(state.states.size());
    for (const auto& [id, sc] : state.states) {
      rec.entries.push_back({id, sc.first, sc.second});
    }
    out.checkpoints.push_back(std::move(rec));
  }
  {
    std::lock_guard<std::mutex> lock(log_mu_);
    out.audit = audit_;
    out.clock = clock_;
  }
  return out;
}

Status RuleRepository::ImportState(PersistedState state) {
  if (!routing_.empty() || !audit_.empty() || clock_ != 0) {
    return Status::FailedPrecondition(
        "ImportState requires a freshly constructed repository");
  }
  for (Rule& rule : state.rules) {
    std::string id = rule.id();
    std::string owner = rule.metadata().tenant;
    uint32_t shard_idx =
        KeyForTenantType(TenantId(owner), rule.target_type()).index();
    if (routing_.count(id) != 0) {
      return Status::AlreadyExists("duplicate rule id in persisted state: " +
                                   id);
    }
    RULEKIT_RETURN_IF_ERROR(shards_[shard_idx]->rules.Add(std::move(rule)));
    routing_.emplace(std::move(id), RouteEntry{shard_idx, std::move(owner)});
  }
  if (state.shard_versions.size() == shards_.size()) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->version.store(state.shard_versions[i],
                                std::memory_order_release);
    }
  } else {
    // Shard count changed between export and import: the per-shard split
    // is meaningless, but the composite total must stay monotonic for
    // staleness probes, so it lands on shard 0.
    uint64_t total = 0;
    for (uint64_t v : state.shard_versions) total += v;
    shards_[0]->version.store(total, std::memory_order_release);
  }
  if (state.tenant_versions.size() == shards_.size()) {
    for (size_t i = 0; i < shards_.size(); ++i) {
      shards_[i]->tenant_versions = std::move(state.tenant_versions[i]);
    }
  } else {
    // Same monotonicity fallback per tenant: each tenant's total lands
    // in shard 0's map.
    for (const auto& per_shard : state.tenant_versions) {
      for (const auto& [tenant, version] : per_shard) {
        shards_[0]->tenant_versions[tenant] += version;
      }
    }
  }
  for (const CheckpointRecord& rec : state.checkpoints) {
    CheckpointState cs;
    for (const CheckpointRecord::Entry& e : rec.entries) {
      cs.states[e.id] = {e.state, e.confidence};
    }
    checkpoints_[rec.version] = std::move(cs);
  }
  audit_ = std::move(state.audit);
  clock_ = state.clock;
  for (const AuditEntry& e : audit_) clock_ = std::max(clock_, e.timestamp);
  return Status::OK();
}

// ---- persistence -----------------------------------------------------------

Status RuleRepository::SaveToFile(const std::string& path) const {
  PersistedState state = ExportState();
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out << "# rulekit repository v3\n";
  for (const Rule& rule : state.rules) {
    const RuleMetadata& m = rule.metadata();
    out << "#meta " << m.author << '\t' << OriginName(m.origin) << '\t'
        << m.created_at << '\t' << StrFormat("%.6f", m.confidence) << '\t'
        << StateName(m.state) << '\t' << EscapeControl(m.note) << '\t'
        << EscapeControl(m.tenant) << '\n';
    out << rule.ToDsl() << '\n';
  }
  // The audit section makes HistoryOf() survive a save/load round trip;
  // v1 readers ignore these lines (leading '#').
  for (const AuditEntry& e : state.audit) {
    out << "#audit " << e.timestamp << '\t' << ActionName(e.action) << '\t'
        << e.rule_id.value() << '\t' << e.author << '\t'
        << EscapeControl(e.detail) << '\n';
  }
  out << "#clock " << state.clock << '\n';
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<RuleRepository> RuleRepository::LoadFromFile(const std::string& path,
                                                    size_t shard_count) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  RuleRepository repo(shard_count);
  std::string line;
  RuleMetadata pending;
  bool has_pending = false;
  size_t line_no = 0;
  std::vector<RuleId> loaded_order;  // for the v1 synthetic-audit fallback
  std::vector<AuditEntry> loaded_audit;
  uint64_t loaded_clock = 0;
  bool has_audit = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    if (StartsWith(trimmed, "#meta ")) {
      auto fields = Split(trimmed.substr(6), '\t');
      if (fields.size() < 5) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: malformed #meta line", path.c_str(), line_no));
      }
      pending = RuleMetadata{};
      pending.author = fields[0];
      pending.origin = OriginFromName(fields[1]);
      pending.created_at = std::strtoull(fields[2].c_str(), nullptr, 10);
      char* end = nullptr;
      pending.confidence = std::strtod(fields[3].c_str(), &end);
      if (end == fields[3].c_str() || *end != '\0' ||
          !ValidConfidence(pending.confidence)) {
        return Status::InvalidArgument(StrFormat(
            "%s:%zu: #meta confidence '%s' is not a number in [0, 1]",
            path.c_str(), line_no, fields[3].c_str()));
      }
      pending.state = StateFromName(fields[4]);
      if (fields.size() > 5) pending.note = UnescapeControl(fields[5]);
      if (fields.size() > 6) pending.tenant = UnescapeControl(fields[6]);
      has_pending = true;
      continue;
    }
    if (StartsWith(trimmed, "#audit ")) {
      auto fields = Split(trimmed.substr(7), '\t');
      if (fields.size() < 4) {
        return Status::InvalidArgument(
            StrFormat("%s:%zu: malformed #audit line", path.c_str(),
                      line_no));
      }
      AuditEntry entry;
      entry.timestamp = std::strtoull(fields[0].c_str(), nullptr, 10);
      entry.action = ActionFromName(fields[1]);
      entry.rule_id = RuleId(fields[2]);
      entry.author = fields[3];
      if (fields.size() > 4) entry.detail = UnescapeControl(fields[4]);
      loaded_audit.push_back(std::move(entry));
      has_audit = true;
      continue;
    }
    if (StartsWith(trimmed, "#clock ")) {
      loaded_clock = std::strtoull(
          std::string(trimmed.substr(7)).c_str(), nullptr, 10);
      has_audit = true;
      continue;
    }
    if (trimmed.front() == '#') continue;
    auto rules = ParseRules(trimmed);
    if (!rules.ok()) return rules.status();
    for (Rule& rule : *rules) {
      if (has_pending) {
        rule.metadata() = pending;  // preserves the saved created_at
        has_pending = false;
      }
      std::string id = rule.id();
      std::string owner = rule.metadata().tenant;
      // The repository is private to this function, so shards are mutated
      // without locks; the routing map still gets the cross-shard dup check.
      uint32_t shard_idx =
          repo.KeyForTenantType(TenantId(owner), rule.target_type()).index();
      if (repo.routing_.count(id) != 0) {
        return Status::AlreadyExists(
            StrFormat("%s:%zu: duplicate rule id: %s", path.c_str(), line_no,
                      id.c_str()));
      }
      RULEKIT_RETURN_IF_ERROR(repo.shards_[shard_idx]->rules.Add(
          std::move(rule)));
      repo.routing_.emplace(id, RouteEntry{shard_idx, std::move(owner)});
      loaded_order.emplace_back(id);
    }
  }
  if (has_audit) {
    // Format v2: the file carries the real history — install it verbatim
    // so HistoryOf() and the logical clock survive the round trip.
    for (const AuditEntry& e : loaded_audit) {
      loaded_clock = std::max(loaded_clock, e.timestamp);
    }
    repo.audit_ = std::move(loaded_audit);
    repo.clock_ = loaded_clock;
  } else {
    // Format v1: no history was saved; synthesize one kAdd per rule.
    for (const RuleId& id : loaded_order) {
      repo.Log(AuditAction::kAdd, id, "loader", "loaded from " + path);
    }
  }
  return repo;
}

}  // namespace rulekit::rules
