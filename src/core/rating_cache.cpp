#include "core/rating_cache.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/jsonl.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace peak::core {

namespace {

using jsonl::JsonParser;
using jsonl::JsonValue;

struct CacheMetrics {
  obs::Counter& hits = obs::counter("search.cache.hit");
  obs::Counter& misses = obs::counter("search.cache.miss");
  obs::Counter& stores = obs::counter("search.cache.store");
  obs::Counter& corrupt = obs::counter("search.cache.corrupt_lines");

  static CacheMetrics& get() {
    static CacheMetrics metrics;
    return metrics;
  }
};

/// EINTR-safe full write of `data` to `fd`; false on any hard error.
bool full_write(int fd, const std::string& data) {
  const char* p = data.data();
  std::size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

// v2: keys digest the whole MemberTask, memo EVALs included; v1 keys
// (config bits only) never match one.
RatingCache::Fingerprint::Fingerprint()
    : h1_(support::stable_hash("peak.rating_cache.v2")),
      h2_(support::stable_hash("peak.rating_cache.v2.alt")) {}

void RatingCache::Fingerprint::mix(std::uint64_t v) {
  h1_ = support::hash_combine(h1_, v);
  h2_ = support::hash_combine(h2_, v ^ 0x636f6e74656e7431ULL);
}

void RatingCache::Fingerprint::mix_double(double d) {
  mix(std::bit_cast<std::uint64_t>(d));
}

void RatingCache::Fingerprint::mix_string(std::string_view s) {
  // Length-prefixed, eight bytes at a time: two different strings (config
  // keys above all) never feed the chains the same words.
  mix(s.size());
  for (std::size_t i = 0; i < s.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, s.data() + i, std::min<std::size_t>(8, s.size() - i));
    mix(word);
  }
}

std::string RatingCache::Fingerprint::key(const MemberTask& task) const {
  Fingerprint k = *this;
  k.mix_string(rating::to_string(task.method));
  k.mix_string(task.base_key);
  k.mix_string(task.cfg_key);
  k.mix(task.prologue ? 1 : 0);
  k.mix(task.seed);
  k.mix(task.memo.size());
  for (const auto& [key, eval] : task.memo) {
    k.mix_string(key);
    k.mix_double(eval);
  }
  return k.hex();
}

std::string RatingCache::Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1_),
                static_cast<unsigned long long>(h2_));
  return std::string(buf);
}

RatingCache::RatingCache(std::string path) : path_(std::move(path)) {
  // Load whatever a previous run left behind; a missing file just means
  // a cold cache. Damaged complete lines (a garbage write, a flipped bit)
  // are skipped and counted; a partial trailing line (a kill mid-store)
  // is skipped silently — that one is expected, not damage. Entries are
  // keyed, not sequenced, so a skipped line costs only itself.
  std::ifstream in(path_, std::ios::binary);
  if (in.good()) {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      const bool complete = !in.eof();  // terminated by '\n'
      try {
        if (line.back() != '}')
          throw support::CheckError("unterminated cache record");
        const JsonValue record = JsonParser(line).parse();
        if (!record.has("type") ||
            record.at("type").as_string() != "rating")
          continue;  // unknown record type: forward-compat, not damage
        entries_.emplace(record.at("key").as_string(),
                         RatingDelta::decode(record));
      } catch (const std::exception&) {
        // std::exception, not just CheckError: a flipped bit inside a
        // hex field surfaces as std::invalid_argument from stoull.
        if (complete) CacheMetrics::get().corrupt.inc();
      }
    }
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  PEAK_CHECK(fd_ >= 0, "cannot open rating cache " + path_);
}

RatingCache::~RatingCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<RatingDelta> RatingCache::lookup(
    const std::string& key) const {
  std::lock_guard lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    CacheMetrics::get().misses.inc();
    return std::nullopt;
  }
  CacheMetrics::get().hits.inc();
  return it->second;
}

void RatingCache::store(const std::string& key, const RatingDelta& delta) {
  std::lock_guard lock(mutex_);
  if (!entries_.emplace(key, delta).second) return;
  // The delta's fields sit at the record's top level, next to its type
  // and key, which keeps the line layout of every existing cache file.
  const std::string line = "{\"type\":\"rating\",\"key\":" +
                           jsonl::quote(key) + "," +
                           delta.encode().substr(1) + "\n";
  // flock serializes whole-line appends against every other writer —
  // other processes, and other RatingCache instances in this process
  // (flock is per open file description, and each instance holds its
  // own) — so two simultaneous stores interleave as two complete lines,
  // never as spliced bytes.
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) break;  // lock unavailable: still write the line
  }
  full_write(fd_, line);
  ::flock(fd_, LOCK_UN);
  CacheMetrics::get().stores.inc();
}

std::size_t RatingCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

}  // namespace peak::core
