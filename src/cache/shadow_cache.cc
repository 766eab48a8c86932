#include "cache/shadow_cache.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace eeb::cache {
namespace {

ShadowConfig SanitizeConfig(ShadowConfig config) {
  config.capacity_items = std::max<size_t>(config.capacity_items, 1);
  config.name = SanitizeShadowName(config.name);
  return config;
}

}  // namespace

const char* ShadowPolicyName(ShadowConfig::Policy policy) {
  switch (policy) {
    case ShadowConfig::Policy::kLru:
      return "lru";
    case ShadowConfig::Policy::kFifo:
      return "fifo";
  }
  return "unknown";
}

std::string SanitizeShadowName(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    const char lc = static_cast<char>(
        std::tolower(static_cast<unsigned char>(c)));
    const bool ok =
        (lc >= 'a' && lc <= 'z') || (lc >= '0' && lc <= '9') || lc == '_';
    out += ok ? lc : '_';
  }
  if (out.empty()) out = "shadow";
  return out;
}

Status ParseShadowConfigs(const std::string& spec,
                          std::vector<ShadowConfig>* out) {
  out->clear();
  size_t start = 0;
  while (start <= spec.size()) {
    size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;

    std::vector<std::string> fields;
    size_t fs = 0;
    while (fs <= entry.size()) {
      size_t fe = entry.find(':', fs);
      if (fe == std::string::npos) fe = entry.size();
      fields.push_back(entry.substr(fs, fe - fs));
      fs = fe + 1;
    }
    if (fields.size() != 2 && fields.size() != 3) {
      return Status::InvalidArgument("shadow config '" + entry +
                                     "': want policy:capacity or "
                                     "name:policy:capacity");
    }
    ShadowConfig config;
    const std::string& policy = fields[fields.size() - 2];
    const std::string& capacity = fields.back();
    if (policy == "lru") {
      config.policy = ShadowConfig::Policy::kLru;
    } else if (policy == "fifo") {
      config.policy = ShadowConfig::Policy::kFifo;
    } else {
      return Status::InvalidArgument("shadow config '" + entry +
                                     "': unknown policy '" + policy + "'");
    }
    uint64_t items = 0;
    if (capacity.empty()) {
      return Status::InvalidArgument("shadow config '" + entry +
                                     "': empty capacity");
    }
    for (char c : capacity) {
      if (c < '0' || c > '9') {
        return Status::InvalidArgument("shadow config '" + entry +
                                       "': capacity '" + capacity +
                                       "' is not a number");
      }
      items = items * 10 + static_cast<uint64_t>(c - '0');
      // Node indexes are 32-bit with 0xffffffff as the list sentinel.
      if (items >= (uint64_t{1} << 32)) {
        return Status::InvalidArgument("shadow config '" + entry +
                                       "': capacity too large");
      }
    }
    if (items == 0) {
      return Status::InvalidArgument("shadow config '" + entry +
                                     "': capacity must be positive");
    }
    config.capacity_items = static_cast<size_t>(items);
    if (fields.size() == 3) {
      config.name = SanitizeShadowName(fields[0]);
    } else {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%s_%llu", policy.c_str(),
                    static_cast<unsigned long long>(items));
      config.name = buf;
    }
    out->push_back(std::move(config));
  }
  return Status::OK();
}

std::vector<ShadowConfig> DefaultShadowConfigs(size_t capacity_items) {
  const size_t base = std::max<size_t>(capacity_items, 2);
  std::vector<ShadowConfig> out;
  out.push_back({"lru_half", base / 2, ShadowConfig::Policy::kLru});
  out.push_back({"lru_1x", base, ShadowConfig::Policy::kLru});
  out.push_back({"lru_2x", base * 2, ShadowConfig::Policy::kLru});
  out.push_back({"fifo_1x", base, ShadowConfig::Policy::kFifo});
  return out;
}

ShadowCache::ShadowCache(ShadowConfig config)
    : config_(SanitizeConfig(std::move(config))),
      nodes_(config_.capacity_items),
      table_(config_.capacity_items) {}

void ShadowCache::OnAccess(uint64_t key) {
  MutexLock lock(mu_);
  if (const uint32_t* found = table_.Find(key); found != nullptr) {
    const uint32_t node = *found;
    hits_.fetch_add(1, std::memory_order_relaxed);
    if (config_.policy == ShadowConfig::Policy::kLru && head_ != node) {
      UnlinkLocked(node);
      PushFrontLocked(node);
    }
    return;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  uint32_t n;
  if (size_ < config_.capacity_items) {
    n = static_cast<uint32_t>(size_++);
  } else {
    n = tail_;  // oldest: LRU victim and FIFO victim coincide in this list
    UnlinkLocked(n);
    table_.Erase(nodes_[n].key);
  }
  nodes_[n].key = key;
  PushFrontLocked(n);
  table_.Insert(key, n);
}

size_t ShadowCache::size() const {
  MutexLock lock(mu_);
  return size_;
}

void ShadowCache::UnlinkLocked(uint32_t node) {
  Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_ = n.next;
  }
  if (n.next != kNil) {
    nodes_[n.next].prev = n.prev;
  } else {
    tail_ = n.prev;
  }
  n.prev = kNil;
  n.next = kNil;
}

void ShadowCache::PushFrontLocked(uint32_t node) {
  Node& n = nodes_[node];
  n.prev = kNil;
  n.next = head_;
  if (head_ != kNil) nodes_[head_].prev = node;
  head_ = node;
  if (tail_ == kNil) tail_ = node;
}

ShadowCacheSet::ShadowCacheSet(std::vector<ShadowConfig> configs) {
  shadows_.reserve(configs.size());
  for (ShadowConfig& config : configs) {
    shadows_.push_back(std::make_unique<ShadowCache>(std::move(config)));
  }
}

void ShadowCacheSet::OnAccess(uint64_t key) {
  for (const std::unique_ptr<ShadowCache>& shadow : shadows_) {
    shadow->OnAccess(key);
  }
}

std::vector<obs::ShadowTapEntry> ShadowCacheSet::TapSamples() const {
  std::vector<obs::ShadowTapEntry> out;
  out.reserve(shadows_.size());
  for (const std::unique_ptr<ShadowCache>& shadow : shadows_) {
    obs::ShadowTapEntry entry;
    entry.name = shadow->config().name;
    entry.hits = shadow->hits();
    entry.misses = shadow->misses();
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace eeb::cache
