#ifndef RULEKIT_ENGINE_HOT_CACHE_H_
#define RULEKIT_ENGINE_HOT_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/frequency_sketch.h"

namespace rulekit::engine {

/// Identifies the classification function a cached result was computed
/// under. `rule_fingerprint` is an order-sensitive hash of every shard's
/// pinned rule version (so any committed rule mutation — AddRules, a
/// transaction, a checkpoint restore, a scale-down's disables — changes
/// it); `semantic_generation` covers the serving inputs that change
/// without a rule commit: suppressed-type edits and ensemble installs.
/// An entry is served only when both match the reader's pinned snapshot;
/// otherwise it is dropped on read. Writers therefore invalidate the
/// whole cache lazily, with zero work on the publish path.
struct VersionTag {
  uint64_t rule_fingerprint = 0;
  uint64_t semantic_generation = 0;
  friend bool operator==(const VersionTag&, const VersionTag&) = default;
};

/// Hot-result cache knobs (see DESIGN.md §6). `enabled` is read by the
/// pipeline (the Gate Keeper memo covers curated short-circuits either
/// way); a directly-constructed HotResultCache ignores it.
struct HotCacheConfig {
  bool enabled = false;
  /// Total entries across all stripes. Rounded up so every stripe holds
  /// at least one entry.
  size_t capacity = 1 << 16;
  /// Lock stripes (hash-partitioned); rounded up to a power of two.
  size_t stripes = 16;
  /// A title's winning type is admitted only once the frequency sketch
  /// has seen the title this many times (K sightings). 1 = admit on
  /// first sight.
  uint32_t admit_after = 3;
  /// Share of each stripe reserved for the protected LRU segment (hits
  /// promote entries into it; one-shot admissions queue in probation and
  /// are evicted first, so a burst of new titles cannot flush the
  /// established hot set).
  double protected_fraction = 0.8;
  /// Maximum age of an entry before it is dropped on read (zero = never
  /// expires, the historical behaviour). A drifting feed — one whose
  /// winning types change without a rule or model edit bumping the
  /// version tag — gets a finite TTL so its memoized winners age out.
  std::chrono::milliseconds ttl{0};
};

/// Aggregate counters since construction (monotonic; read via
/// TotalCounters). `misses` counts both absent keys and pending
/// admissions; a stale drop also counts as a miss for hit-rate purposes.
struct HotCacheCounters {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t stale_drops = 0;  // entries dropped on read (tag mismatch)
  uint64_t ttl_drops = 0;    // entries dropped on read (older than ttl)
  uint64_t promotions = 0;   // admissions into the cache
  uint64_t evictions = 0;    // entries evicted for capacity
};

/// Outcome of one Lookup (per-batch accounting is built from these).
struct CacheLookup {
  bool hit = false;
  bool stale_dropped = false;  // an entry existed but its tag mismatched
  std::string type;            // valid when hit
};

/// Outcome of one Record.
struct CacheRecord {
  bool admitted = false;   // entered the cache on this call
  bool refreshed = false;  // key was already cached (type/tag refreshed)
  size_t evicted = 0;      // entries evicted to make room
};

/// Cross-batch memoization of classification winners, keyed by lowercased
/// title (the paper's Gate Keeper short-circuit, §3.3, made automatic and
/// hit-rate-driven per the §4 "execute the rule stack only when
/// necessary" directive). Bounded, striped (per-stripe mutex), with
/// sketch-based admission and segmented-LRU eviction; every entry is
/// version-tagged and dropped on read when its tag no longer matches the
/// reader's snapshot, so no stale type is ever served.
///
/// Thread-safe: all state is per-stripe under that stripe's mutex, so
/// concurrent readers/writers contend only when they touch the same
/// stripe. Counters are aggregated per stripe under the same mutex.
class HotResultCache {
 public:
  explicit HotResultCache(HotCacheConfig config = {});

  /// Looks up `key` (an already-lowercased title). A present entry whose
  /// tag differs from `tag` is erased (drop-on-read) and reported as a
  /// stale drop + miss.
  CacheLookup Lookup(std::string_view key, const VersionTag& tag);

  /// Offers a winning (key -> type) outcome computed under `tag`. The
  /// first `admit_after - 1` sightings only feed the frequency sketch;
  /// after that the entry is admitted into the probation segment (and
  /// the stripe evicts its coldest entry if over capacity). A key that
  /// is already cached is refreshed in place — this is how a re-win
  /// under a newer snapshot revalidates an entry without an intervening
  /// stale drop.
  CacheRecord Record(std::string_view key, std::string_view type,
                     const VersionTag& tag);

  /// Sum of all stripes' counters (consistent per stripe, not globally).
  HotCacheCounters TotalCounters() const;

  /// Current number of cached entries.
  size_t size() const;

  size_t capacity() const { return stripe_capacity_ * stripes_.size(); }
  size_t stripe_count() const { return stripes_.size(); }
  const HotCacheConfig& config() const { return config_; }

  /// Drops every entry and resets the admission sketches (not counters).
  void Clear();

 private:
  // Heterogeneous string hashing so Lookup/Record take string_view
  // without materializing a std::string per probe.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const;
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
  };

  // LRU lists hold pointers to the map's keys (stable across rehash for
  // unordered_map); each entry knows its list position and segment.
  using LruList = std::list<const std::string*>;
  struct Entry {
    std::string type;
    VersionTag tag;
    LruList::iterator pos;
    bool in_protected = false;
    /// Set at admission and refresh; compared against `ttl` on read.
    std::chrono::steady_clock::time_point recorded_at;
  };
  struct Stripe {
    std::mutex mu;
    std::unordered_map<std::string, Entry, KeyHash, KeyEq> map;
    LruList probation;   // MRU at front; evictions take the back
    LruList protected_;  // entries that have seen a hit since admission
    FrequencySketch sketch;
    HotCacheCounters counters;

    explicit Stripe(size_t capacity_hint) : sketch(capacity_hint) {}
  };

  Stripe& StripeFor(uint64_t hash) const {
    return *stripes_[hash & stripe_mask_];
  }
  /// Moves a just-hit entry up: probation -> protected (demoting the
  /// protected LRU when that segment is full) or protected front.
  void Touch(Stripe& stripe, Entry& entry);
  /// Evicts the coldest entry (probation back, else protected back).
  void EvictOne(Stripe& stripe);

  HotCacheConfig config_;
  size_t stripe_capacity_ = 0;
  size_t protected_capacity_ = 0;
  uint64_t stripe_mask_ = 0;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// Per-tenant cache partitioning: one independently-bounded
/// HotResultCache per tenant, created lazily on first touch (tenant key
/// "" is the default tenant and exists from construction). Each tenant
/// draws its bounds/TTL from a registered override, falling back to the
/// default config — so a noisy feed can only churn its own pool, and a
/// drifting feed can be given a short TTL without slowing anyone else.
///
/// Thread-safe: the tenant map is guarded by one mutex taken once per
/// batch (to resolve tenant -> cache); all per-item traffic then goes
/// through the resolved cache's own stripes. Cache pointers are stable
/// for the lifetime of the set.
class TenantCacheSet {
 public:
  explicit TenantCacheSet(HotCacheConfig default_config = {});

  /// Registers (or replaces) the config used when `tenant`'s cache is
  /// first created. No effect on an already-created cache — partitions
  /// are never resized in place.
  void SetConfig(const std::string& tenant, HotCacheConfig config);

  /// The tenant's cache, created on first use.
  HotResultCache& For(const std::string& tenant);

  /// Tenants with a live cache partition, default ("") first, the rest
  /// sorted.
  std::vector<std::string> ActiveTenants() const;

  /// Sum of every partition's counters.
  HotCacheCounters TotalCounters() const;

 private:
  HotCacheConfig default_config_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, HotCacheConfig> overrides_;
  std::unordered_map<std::string, std::unique_ptr<HotResultCache>> caches_;
};

}  // namespace rulekit::engine

#endif  // RULEKIT_ENGINE_HOT_CACHE_H_
