#ifndef RULEKIT_RULES_REPOSITORY_H_
#define RULEKIT_RULES_REPOSITORY_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/rules/ids.h"
#include "src/rules/rule_set.h"

namespace rulekit::rules {

/// What happened to a rule (audit log entries).
enum class AuditAction {
  kAdd,
  kDisable,
  kEnable,
  kRetire,
  kSetConfidence,
  kCheckpoint,
  kRestore,
};

/// One audit-log record. Over years, many analysts and developers modify,
/// add, and remove rules (§4 "Rule System Properties"); the log is what
/// makes that churn reconstructible.
struct AuditEntry {
  uint64_t timestamp = 0;  // logical clock
  AuditAction action = AuditAction::kAdd;
  RuleId rule_id;          // empty for checkpoint/restore
  std::string author;
  std::string detail;
};

/// One applied mutation batch, as observed by the durability journal
/// (the storage WAL): the ops that actually landed — a commit that
/// failed part-way journals its applied prefix — plus the audit entries
/// they produced, aligned 1:1 in op order. Replaying journaled records
/// in order onto a fresh repository rebuilds the rules, the audit log,
/// the logical clock, and every shard version exactly (see Replay()).
struct CommitRecord {
  enum class OpKind : uint8_t {
    kAdd = 0,
    kDisable = 1,
    kEnable = 2,
    kRetire = 3,
    kSetConfidence = 4,
    kCheckpoint = 5,
    kRestoreCheckpoint = 6,
  };
  struct Op {
    OpKind kind = OpKind::kAdd;
    /// kAdd: the rule exactly as stored (metadata finalized: author and
    /// created_at already assigned).
    std::optional<Rule> rule;
    RuleId id;                        // the state edits
    double confidence = 0.0;          // kSetConfidence
    uint64_t checkpoint_version = 0;  // kRestoreCheckpoint
  };
  std::vector<Op> ops;
  std::vector<AuditEntry> entries;  // 1:1 with ops
  /// Tenant the mutation batch was issued for (empty = default). Adds
  /// also carry the tenant inside the rule's metadata; edits derive the
  /// owning tenant from the routing map on both the write and the replay
  /// path, so this field is attribution — which feed asked — while the
  /// per-tenant shard version bumps follow rule ownership.
  std::string tenant;
};

/// Durability hook, fired once per successful mutation batch *after* its
/// ops are applied but *before* the touched shards republish — so a
/// crash can lose an unjournaled commit, but can never publish state
/// that would not survive recovery. Invoked while the affected shard
/// locks are held: keep it lean (an append + optional fsync). A non-OK
/// return is surfaced to the mutating caller; the in-memory commit is
/// not rolled back.
using CommitJournal = std::function<Status(const CommitRecord&)>;

/// One in-memory checkpoint (version handle + per-rule state), exported
/// for persistence so RestoreCheckpoint() still works after recovery.
struct CheckpointRecord {
  uint64_t version = 0;
  struct Entry {
    RuleId id;
    RuleState state = RuleState::kActive;
    double confidence = 1.0;
  };
  std::vector<Entry> entries;
};

/// The complete persistent state of a repository — what a compacted
/// snapshot stores and crash recovery restores.
struct PersistedState {
  /// Shard-ascending, insertion order within a shard (deterministic for
  /// a given mutation history, so export → import → export is stable).
  std::vector<Rule> rules;
  std::vector<AuditEntry> audit;
  uint64_t clock = 0;
  /// Per-shard version counters at export time (restored exactly when
  /// the importing repository has the same shard count).
  std::vector<uint64_t> shard_versions;
  /// Per-shard per-tenant version counters, parallel to shard_versions
  /// (key "" is the default tenant). Restored exactly under the same
  /// shard-count-match rule; on a mismatch each tenant's total lands in
  /// shard 0's map so tenant staleness probes stay monotonic.
  std::vector<std::map<std::string, uint64_t>> tenant_versions;
  std::vector<CheckpointRecord> checkpoints;
};

/// An immutable view of one shard, pinned at one shard version. The
/// RuleSet never changes after publication, so indices and classifiers
/// built against it stay coherent while writers keep mutating the shard.
struct ShardSnapshot {
  ShardKey key;
  uint64_t version = 0;
  /// Per-tenant version counters pinned with the rules (key "" is the
  /// default tenant; bumps once per mutation batch touching that
  /// tenant's rules in this shard). Tenant-scoped cache tags hash these
  /// instead of `version` so one tenant's edits never invalidate
  /// another's cached results.
  std::map<std::string, uint64_t> tenant_versions;
  std::shared_ptr<const RuleSet> rules;
};

/// Every shard pinned at once (each shard internally consistent; the
/// composite version is the sum of the pinned shard versions and is
/// strictly monotonic across mutations).
struct RepositorySnapshot {
  std::vector<ShardSnapshot> shards;  // ascending by shard index
  uint64_t composite_version = 0;
};

/// The system of record for rules: every mutation goes through the
/// repository, bumps a logical clock, and lands in the audit log.
/// Checkpoints capture all rule states so the system can be "scaled down"
/// (disable the bad parts) and later restored to the previous state
/// quickly (§2.2 requirement 3).
///
/// Sharding: rules are partitioned by hash of their target type into
/// `shard_count` shards. Each shard has its own mutex, its own version
/// counter, and publishes its own copy-on-write
/// `shared_ptr<const RuleSet>` snapshot — so a writer editing one shard
/// republishes only that shard, and writers on disjoint shards never
/// contend. With the default `shard_count = 1` the repository behaves
/// exactly like the historical monolithic one.
///
/// Concurrency model: single mutations and transactions lock only the
/// shards they touch (ascending index order; multi-shard operations like
/// Checkpoint/RestoreCheckpoint lock all shards the same way). Readers
/// that may race with writers go through ShardSnapshotOf()/SnapshotAll()
/// (or the legacy merged snapshot()); the live accessors (rules(),
/// audit_log()) alias writer-side state and are only safe when no
/// concurrent mutation can occur (tests, single-threaded tools).
class RuleRepository {
 public:
  explicit RuleRepository(size_t shard_count = 1);

  // Movable (for Result<RuleRepository>); not copyable. Must not be moved
  // while mutations, snapshots, or open transactions are in flight.
  RuleRepository(RuleRepository&& other) noexcept;
  RuleRepository& operator=(RuleRepository&& other) noexcept;

  size_t shard_count() const { return shards_.size(); }

  /// The shard that owns the default tenant's rules targeting
  /// `target_type`.
  ShardKey KeyForType(std::string_view target_type) const {
    return ShardKey::ForType(target_type, shards_.size());
  }

  /// The shard that owns `tenant`'s rules targeting `target_type`
  /// (identical to KeyForType for the default tenant).
  ShardKey KeyForTenantType(const TenantId& tenant,
                            std::string_view target_type) const {
    return ShardKey::ForTenantType(tenant, target_type, shards_.size());
  }

  /// The shard a known rule lives in (NotFound for unknown ids).
  Result<ShardKey> ShardOfRule(const RuleId& id) const;

  // ---- transactions ------------------------------------------------------

  /// A batch of staged edits that commits atomically with respect to
  /// publication: Commit() locks every affected shard, applies the edits,
  /// and bumps each touched shard's version exactly once — so snapshot
  /// readers never observe a half-applied transaction and a multi-edit
  /// maintenance session pays one republish instead of one per edit.
  ///
  /// Staging never locks anything; all validation happens at Commit().
  /// Unknown rule ids fail the whole commit before any edit is applied.
  /// Later failures (duplicate add, illegal state transition) stop the
  /// apply at that edit: the already-applied prefix stays, the status
  /// reports the failure, and publication is still atomic. A transaction
  /// dropped without Commit() discards all staged edits.
  class Transaction {
   public:
    Transaction(Transaction&&) = default;
    Transaction& operator=(Transaction&&) = default;
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    /// Stage edits. Ids may refer to rules added earlier in the same
    /// transaction. SetConfidence refuses a NaN, infinite or out-of-[0, 1]
    /// confidence with kInvalidArgument and stages nothing.
    Status Add(Rule rule);
    Status Disable(const RuleId& id, std::string_view reason);
    Status Enable(const RuleId& id);
    Status Retire(const RuleId& id, std::string_view reason);
    Status SetConfidence(const RuleId& id, double confidence);

    /// Applies every staged edit and publishes each touched shard once.
    Status Commit();

    /// Shards modified by Commit() (empty before commit / when nothing
    /// changed). The serving layer republishes exactly these.
    const std::vector<ShardKey>& touched() const { return touched_; }

    size_t staged() const { return ops_.size(); }

   private:
    friend class RuleRepository;
    enum class OpKind { kAdd, kDisable, kEnable, kRetire, kSetConfidence };
    struct Op {
      OpKind kind;
      std::optional<Rule> rule;  // kAdd
      RuleId id;                 // everything else
      std::string detail;
      double confidence = 0.0;
    };
    Transaction(RuleRepository* repo, std::string author, TenantId tenant)
        : repo_(repo), author_(std::move(author)),
          tenant_(std::move(tenant)) {}

    RuleRepository* repo_;
    std::string author_;
    TenantId tenant_;
    std::vector<Op> ops_;
    std::vector<ShardKey> touched_;
  };

  /// Starts a transaction attributed to `author`, scoped to `tenant`.
  /// Added rules are stamped with (and routed by) the tenant. A
  /// non-default tenant's transaction may edit only its own rules —
  /// Commit() fails with FailedPrecondition, before applying anything,
  /// if an op targets a rule owned by another tenant (including the
  /// shared default pool). The default tenant is the administrative
  /// scope and may edit everything.
  Transaction Begin(std::string_view author,
                    const TenantId& tenant = TenantId());

  /// Stages edits through `fn` and commits: the one-liner form of the
  /// transactional API. If `fn` returns an error the transaction is
  /// dropped without applying anything.
  Status Mutate(std::string_view author,
                const std::function<Status(Transaction&)>& fn);
  Status Mutate(std::string_view author, const TenantId& tenant,
                const std::function<Status(Transaction&)>& fn);

  // ---- single mutations (one-op transactions) ----------------------------

  Status Add(Rule rule, std::string_view author);
  Status Disable(const RuleId& id, std::string_view author,
                 std::string_view reason);
  Status Enable(const RuleId& id, std::string_view author);
  Status Retire(const RuleId& id, std::string_view author,
                std::string_view reason);
  Status SetConfidence(const RuleId& id, double confidence,
                       std::string_view author);

  // Untyped-id shims (DSL strings, shells, legacy callers).
  Status Disable(std::string_view id, std::string_view author,
                 std::string_view reason) {
    return Disable(RuleId(id), author, reason);
  }
  Status Enable(std::string_view id, std::string_view author) {
    return Enable(RuleId(id), author);
  }
  Status Retire(std::string_view id, std::string_view author,
                std::string_view reason) {
    return Retire(RuleId(id), author, reason);
  }
  Status SetConfidence(std::string_view id, double confidence,
                       std::string_view author) {
    return SetConfidence(RuleId(id), confidence, author);
  }

  /// Disables every active rule targeting `type` (scanning all shards —
  /// attribute-value rules can carry a type anywhere in their candidate
  /// list); returns the ids disabled. This is the scale-down lever:
  /// "Chimera's predictions regarding clothes need to be temporarily
  /// disabled". If the journal rejects an append the error is returned
  /// instead of the ids — the disables still applied and published
  /// (scale-down is an emergency action), but the caller learns that
  /// recovery cannot reproduce them.
  Result<std::vector<RuleId>> DisableRulesForType(
      std::string_view type, std::string_view author,
      std::string_view reason, const TenantId& tenant = TenantId());

  // ---- snapshots ---------------------------------------------------------

  /// One shard's immutable snapshot. Cheap when the shard is unchanged
  /// since the last call (returns the cached copy); after a mutation the
  /// next call pays one shard-sized RuleSet copy — never a whole-repo
  /// copy.
  ShardSnapshot ShardSnapshotOf(ShardKey key) const;

  /// Pins every shard (brief per-shard locks, ascending order).
  RepositorySnapshot SnapshotAll() const;

  /// Current version of one shard (bumps on every mutation of it).
  uint64_t shard_version(ShardKey key) const;

  /// `tenant`'s version counter in one shard: bumps once per mutation
  /// batch that touched that tenant's rules there (0 if never touched).
  /// In a single-default-tenant repository the default tenant's counter
  /// tracks shard_version() exactly.
  uint64_t tenant_shard_version(ShardKey key, const TenantId& tenant) const;

  /// Every tenant owning at least one rule, default tenant first, the
  /// rest sorted. The default tenant is always listed (it owns the
  /// shared pool even when empty).
  std::vector<TenantId> Tenants() const;

  /// Sum of all shard versions; strictly increases on any mutation.
  uint64_t composite_version() const;

  /// Legacy merged snapshot: an immutable copy of ALL shards' rules in
  /// one RuleSet. Cached until any shard changes; prefer the per-shard
  /// snapshots in serving paths — this one pays a full-repository copy.
  std::shared_ptr<const RuleSet> snapshot() const;

  /// Records the current state (+confidence) of every rule across all
  /// shards; returns a version handle. When a journal is installed the
  /// checkpoint is appended before it is registered: if the append fails
  /// the error is returned and the checkpoint does not exist — otherwise
  /// a later journaled restore could reference a checkpoint recovery has
  /// never heard of, turning one dropped record into a replay failure.
  Result<uint64_t> Checkpoint(std::string_view author);

  /// Restores every rule present in the checkpoint to its recorded state;
  /// rules added after the checkpoint are disabled. Touches (and bumps)
  /// every shard.
  Status RestoreCheckpoint(uint64_t version, std::string_view author);

  // ---- access (writer-side; see class comment) ---------------------------

  /// Merged view of all shards' rules. For a single-shard repository this
  /// is the live rule set (historical behaviour); for a sharded one it is
  /// a cached merge rebuilt on access after mutations — so re-fetch it
  /// after edits rather than holding the reference across them.
  const RuleSet& rules() const;

  const std::vector<AuditEntry>& audit_log() const { return audit_; }
  uint64_t clock() const;

  /// Audit entries touching one rule, oldest first.
  std::vector<AuditEntry> HistoryOf(const RuleId& rule_id) const;
  std::vector<AuditEntry> HistoryOf(std::string_view rule_id) const {
    return HistoryOf(RuleId(rule_id));
  }

  // ---- durability (see src/storage/) -------------------------------------

  /// Installs (or clears, with nullptr) the commit journal. Must be set
  /// before concurrent mutations begin (the storage layer installs it at
  /// store-open time, before the repository is shared).
  void SetJournal(CommitJournal journal) { journal_ = std::move(journal); }

  /// Re-applies one journaled commit during recovery: ops land with
  /// their recorded audit entries and timestamps, no new entries are
  /// logged, and the installed journal (if any) does not fire. Touched
  /// shards bump exactly as the original commit bumped them, so the
  /// composite version converges to the writer's. Fails (with the
  /// offending op) on a record inconsistent with the current state —
  /// the storage layer turns that into a corrupt-log error.
  Status Replay(const CommitRecord& record);

  /// Snapshot of everything persistence needs (locks all shards
  /// briefly, then the log).
  PersistedState ExportState() const;

  /// Restores an exported state into this repository, which must be
  /// freshly constructed (no rules, no audit entries). Shard versions
  /// restore exactly when the shard count matches the exported vector;
  /// otherwise the composite total lands on shard 0 so
  /// composite_version() is still preserved. Single-threaded recovery
  /// context: takes no locks.
  Status ImportState(PersistedState state);

  // ---- persistence (human-editable text format) --------------------------

  /// Saves all rules (with metadata) and the audit log to a text file.
  Status SaveToFile(const std::string& path) const;

  /// Loads a file written by SaveToFile into a fresh repository with
  /// `shard_count` shards. Files that carry an audit section (format v2)
  /// restore the real history and logical clock; older files degrade to
  /// synthetic kAdd entries. Duplicate rule ids are rejected with the
  /// offending line number.
  static Result<RuleRepository> LoadFromFile(const std::string& path,
                                             size_t shard_count = 1);

 private:
  struct Shard {
    mutable std::mutex mu;
    RuleSet rules;
    /// Bumps once per mutation batch touching this shard. Written under
    /// mu; readable without it (composite_version(), staleness probes).
    std::atomic<uint64_t> version{0};
    /// Per-tenant version counters (key "" = default tenant); a batch
    /// bumps exactly the counters of the tenants whose rules it touched
    /// here. Guarded by mu; pinned into ShardSnapshot under the same
    /// critical section as `rules`, so tenant-scoped cache tags are
    /// coherent with the rule set they describe.
    std::map<std::string, uint64_t> tenant_versions;
    /// Cached immutable copy of `rules`; null when stale. Guarded by mu.
    mutable std::shared_ptr<const RuleSet> published;
  };

  struct CheckpointState {
    std::map<RuleId, std::pair<RuleState, double>> states;
  };

  // Lock order: shard mutexes (ascending index) -> routing_mu_ -> log_mu_
  // -> merged_mu_. Never the reverse.

  /// Appends an audit entry and returns its timestamp.
  uint64_t Log(AuditAction action, const RuleId& rule_id,
               std::string_view author, std::string_view detail);

  Status CommitTransaction(Transaction& txn);

  /// Rebuilds merged_cache_ from pinned shard snapshots if stale; caller
  /// holds merged_mu_ (and no shard mutexes — the pin already happened).
  void RefreshMergedLocked(const RepositorySnapshot& pinned) const;

  std::vector<std::unique_ptr<Shard>> shards_;

  /// rule id -> owning shard index and owning tenant ("" = default).
  struct RouteEntry {
    uint32_t shard = 0;
    std::string tenant;
  };
  mutable std::mutex routing_mu_;
  std::unordered_map<std::string, RouteEntry> routing_;

  mutable std::mutex log_mu_;
  std::vector<AuditEntry> audit_;
  uint64_t clock_ = 0;

  /// Durability hook (see CommitJournal). Installed once before
  /// concurrent use; called under the affected shard locks.
  CommitJournal journal_;

  /// Guarded by holding ALL shard mutexes (only Checkpoint/Restore touch
  /// it, and both lock every shard).
  std::map<uint64_t, CheckpointState> checkpoints_;

  mutable std::mutex merged_mu_;
  mutable RuleSet merged_cache_;
  mutable uint64_t merged_cache_version_ = ~0ull;
  mutable std::shared_ptr<const RuleSet> merged_snapshot_;
  mutable uint64_t merged_snapshot_version_ = ~0ull;
};

/// Convenience alias for the transactional mutation API.
using RuleTransaction = RuleRepository::Transaction;

}  // namespace rulekit::rules

#endif  // RULEKIT_RULES_REPOSITORY_H_
