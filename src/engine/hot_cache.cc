#include "src/engine/hot_cache.h"

#include <algorithm>

#include "src/common/hash.h"

namespace rulekit::engine {

size_t HotResultCache::KeyHash::operator()(std::string_view key) const {
  return static_cast<size_t>(HashBytes(key));
}

HotResultCache::HotResultCache(HotCacheConfig config)
    : config_(config) {
  size_t stripes = 1;
  while (stripes < std::max<size_t>(config_.stripes, 1)) stripes <<= 1;
  stripe_mask_ = stripes - 1;
  const size_t capacity = std::max<size_t>(config_.capacity, 1);
  stripe_capacity_ = (capacity + stripes - 1) / stripes;
  protected_capacity_ = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(stripe_capacity_) *
                             std::clamp(config_.protected_fraction, 0.0,
                                        1.0)));
  if (protected_capacity_ >= stripe_capacity_ && stripe_capacity_ > 1) {
    protected_capacity_ = stripe_capacity_ - 1;  // keep probation non-empty
  }
  stripes_.reserve(stripes);
  for (size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(stripe_capacity_));
  }
}

CacheLookup HotResultCache::Lookup(std::string_view key,
                                   const VersionTag& tag) {
  const uint64_t hash = HashBytes(key);
  Stripe& stripe = StripeFor(hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  ++stripe.counters.lookups;
  auto it = stripe.map.find(key);
  if (it == stripe.map.end()) {
    ++stripe.counters.misses;
    return {};
  }
  Entry& entry = it->second;
  if (!(entry.tag == tag)) {
    // Drop on read: the world moved under this entry (rule edit, retrain,
    // or suppression change since it was recorded). The full stack will
    // recompute and re-record under the current tag.
    (entry.in_protected ? stripe.protected_ : stripe.probation)
        .erase(entry.pos);
    stripe.map.erase(it);
    ++stripe.counters.stale_drops;
    ++stripe.counters.misses;
    CacheLookup result;
    result.stale_dropped = true;
    return result;
  }
  if (config_.ttl.count() > 0 &&
      std::chrono::steady_clock::now() - entry.recorded_at > config_.ttl) {
    // Expired: same drop-on-read discipline, separate counter — the tag
    // still matched, the entry just outlived the feed's trust window.
    (entry.in_protected ? stripe.protected_ : stripe.probation)
        .erase(entry.pos);
    stripe.map.erase(it);
    ++stripe.counters.ttl_drops;
    ++stripe.counters.misses;
    return {};
  }
  Touch(stripe, entry);
  ++stripe.counters.hits;
  CacheLookup result;
  result.hit = true;
  result.type = entry.type;
  return result;
}

CacheRecord HotResultCache::Record(std::string_view key,
                                   std::string_view type,
                                   const VersionTag& tag) {
  const uint64_t hash = HashBytes(key);
  Stripe& stripe = StripeFor(hash);
  std::lock_guard<std::mutex> lock(stripe.mu);
  CacheRecord result;
  auto it = stripe.map.find(key);
  if (it != stripe.map.end()) {
    Entry& entry = it->second;
    entry.type.assign(type);
    entry.tag = tag;
    if (config_.ttl.count() > 0) {
      entry.recorded_at = std::chrono::steady_clock::now();
    }
    Touch(stripe, entry);
    result.refreshed = true;
    return result;
  }
  if (stripe.sketch.IncrementAndEstimate(hash) < config_.admit_after) {
    return result;  // not hot enough yet; the sketch remembers the sighting
  }
  auto [inserted, ok] = stripe.map.emplace(std::string(key), Entry{});
  (void)ok;
  Entry& entry = inserted->second;
  entry.type.assign(type);
  entry.tag = tag;
  if (config_.ttl.count() > 0) {
    entry.recorded_at = std::chrono::steady_clock::now();
  }
  stripe.probation.push_front(&inserted->first);
  entry.pos = stripe.probation.begin();
  entry.in_protected = false;
  ++stripe.counters.promotions;
  result.admitted = true;
  while (stripe.map.size() > stripe_capacity_) {
    EvictOne(stripe);
    ++stripe.counters.evictions;
    ++result.evicted;
  }
  return result;
}

void HotResultCache::Touch(Stripe& stripe, Entry& entry) {
  if (entry.in_protected) {
    stripe.protected_.splice(stripe.protected_.begin(), stripe.protected_,
                             entry.pos);
    return;
  }
  // First hit since admission: promote out of probation. When the
  // protected segment is full its LRU is demoted (not evicted), so a
  // hit never shrinks the cache.
  stripe.protected_.splice(stripe.protected_.begin(), stripe.probation,
                           entry.pos);
  entry.in_protected = true;
  if (stripe.protected_.size() > protected_capacity_) {
    auto lru = std::prev(stripe.protected_.end());
    auto demoted = stripe.map.find(**lru);
    stripe.probation.splice(stripe.probation.begin(), stripe.protected_,
                            lru);
    demoted->second.in_protected = false;
  }
}

void HotResultCache::EvictOne(Stripe& stripe) {
  LruList& victims =
      stripe.probation.empty() ? stripe.protected_ : stripe.probation;
  auto lru = std::prev(victims.end());
  stripe.map.erase(stripe.map.find(**lru));
  victims.erase(lru);
}

HotCacheCounters HotResultCache::TotalCounters() const {
  HotCacheCounters total;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total.lookups += stripe->counters.lookups;
    total.hits += stripe->counters.hits;
    total.misses += stripe->counters.misses;
    total.stale_drops += stripe->counters.stale_drops;
    total.ttl_drops += stripe->counters.ttl_drops;
    total.promotions += stripe->counters.promotions;
    total.evictions += stripe->counters.evictions;
  }
  return total;
}

size_t HotResultCache::size() const {
  size_t total = 0;
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    total += stripe->map.size();
  }
  return total;
}

void HotResultCache::Clear() {
  for (const auto& stripe : stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    stripe->map.clear();
    stripe->probation.clear();
    stripe->protected_.clear();
    stripe->sketch.Clear();
  }
}

// ---- TenantCacheSet --------------------------------------------------------

TenantCacheSet::TenantCacheSet(HotCacheConfig default_config)
    : default_config_(default_config) {
  caches_.emplace(std::string(),
                  std::make_unique<HotResultCache>(default_config_));
}

void TenantCacheSet::SetConfig(const std::string& tenant,
                               HotCacheConfig config) {
  std::lock_guard<std::mutex> lock(mu_);
  overrides_[tenant] = config;
}

HotResultCache& TenantCacheSet::For(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = caches_.find(tenant);
  if (it == caches_.end()) {
    auto cfg_it = overrides_.find(tenant);
    const HotCacheConfig& cfg =
        cfg_it == overrides_.end() ? default_config_ : cfg_it->second;
    it = caches_.emplace(tenant, std::make_unique<HotResultCache>(cfg))
             .first;
  }
  return *it->second;
}

std::vector<std::string> TenantCacheSet::ActiveTenants() const {
  std::vector<std::string> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(caches_.size());
    for (const auto& [tenant, cache] : caches_) out.push_back(tenant);
  }
  std::sort(out.begin(), out.end());  // "" sorts first: default leads
  return out;
}

HotCacheCounters TenantCacheSet::TotalCounters() const {
  std::vector<HotResultCache*> partitions;
  {
    std::lock_guard<std::mutex> lock(mu_);
    partitions.reserve(caches_.size());
    for (const auto& [tenant, cache] : caches_) {
      partitions.push_back(cache.get());
    }
  }
  HotCacheCounters total;
  for (const HotResultCache* cache : partitions) {
    HotCacheCounters c = cache->TotalCounters();
    total.lookups += c.lookups;
    total.hits += c.hits;
    total.misses += c.misses;
    total.stale_drops += c.stale_drops;
    total.ttl_drops += c.ttl_drops;
    total.promotions += c.promotions;
    total.evictions += c.evictions;
  }
  return total;
}

}  // namespace rulekit::engine
