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

/// Cut a torn trailing record — the bytes after the last '\n', left by a
/// writer killed mid-append — off the file behind `fd`. False when they
/// cannot be read or cut; they stay, and a later load skips the damage.
bool cut_torn_tail(int fd) {
  off_t end = ::lseek(fd, 0, SEEK_END);
  char last = '\n';
  if (end <= 0 || ::pread(fd, &last, 1, end - 1) != 1 || last == '\n')
    return end >= 0;
  char buf[4096];
  while (end > 0) {
    const off_t start = std::max<off_t>(0, end - off_t{sizeof buf});
    const auto len = static_cast<std::size_t>(end - start);
    if (::pread(fd, buf, len, start) != static_cast<ssize_t>(len))
      return false;
    std::size_t i = len;
    while (i > 0 && buf[i - 1] != '\n') --i;
    end = start + static_cast<off_t>(i);
    if (i > 0) break;
  }
  return ::ftruncate(fd, end) == 0;
}

}  // namespace

// v3: keys digest the whole MemberTask, memo EVALs, quarantine entries
// and validation verdict included; v1 keys (config bits only) and v2
// keys (no fault state) never match one.
RatingCache::Fingerprint::Fingerprint()
    : h1_(support::stable_hash("peak.rating_cache.v3")),
      h2_(support::stable_hash("peak.rating_cache.v3.alt")) {}

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
  k.mix(task.faults.size());
  for (const FaultRecord& f : task.faults) {
    k.mix_string(f.key);
    k.mix(static_cast<std::uint64_t>(f.kind));
    k.mix(f.failures);
    k.mix(f.quarantined ? 1 : 0);
  }
  k.mix(task.validated ? 1 : 0);
  return k.hex();
}

std::string RatingCache::Fingerprint::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(h1_),
                static_cast<unsigned long long>(h2_));
  return std::string(buf);
}

RatingCache::RatingCache(std::string path, Load load,
                         const StoreCounters& counters)
    : path_(std::move(path)),
      keys_only_(load == Load::kNone),
      hits_(obs::counter(counters.hit)),
      misses_(obs::counter(counters.miss)),
      stores_(obs::counter(counters.store)) {
  obs::Counter& corrupt = obs::counter(counters.corrupt);
  std::ifstream in;
  if (load != Load::kNone) in.open(path_, std::ios::binary);
  if (!in.good() && (load == Load::kRequired || load == Load::kStrict))
    throw JournalError("cannot read tuning journal " + path_);
  // A trailing line without its '\n' is a record a kill cut short — even
  // if it happens to parse — and is skipped silently: that one is
  // expected, not damage, and the next store() cuts it. A damaged
  // complete line (a garbage write, a flipped bit) is skipped and
  // counted, or refused under kStrict. Entries are keyed, not sequenced,
  // so a skipped line costs only itself.
  std::uint64_t line_no = 0;
  std::string line;
  while (in.good() && std::getline(in, line) && !in.eof()) {
    ++line_no;
    if (line.empty()) continue;
    try {
      if (line.back() != '}')
        throw support::CheckError("unterminated record");
      const JsonValue record = JsonParser(line).parse();
      if (!record.has("type") || record.at("type").as_string() != "rating")
        continue;  // unknown record type: forward-compat, not damage
      entries_.emplace(record.at("key").as_string(),
                       RatingDelta::decode(record));
    } catch (const std::exception& e) {
      // std::exception, not just CheckError: a real number past a
      // double's range surfaces as std::out_of_range from stod.
      if (load == Load::kStrict)
        throw JournalError("journal " + path_ + " line " +
                           std::to_string(line_no) +
                           " is corrupt: " + e.what());
      corrupt.inc();
    }
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC,
               0644);
  PEAK_CHECK(fd_ >= 0, "cannot open " + path_);
}

RatingCache::~RatingCache() {
  if (fd_ >= 0) ::close(fd_);
}

std::optional<RatingDelta> RatingCache::lookup(
    const std::string& key) const {
  std::lock_guard lock(mutex_);
  PEAK_CHECK(!keys_only_, "a fresh journal is appended to, not looked up");
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  return it->second;
}

void RatingCache::store(const std::string& key, const RatingDelta& delta) {
  std::lock_guard lock(mutex_);
  const bool fresh = keys_only_ ? keys_.insert(key).second
                                : entries_.emplace(key, delta).second;
  if (!fresh) return;
  // The delta's fields sit at the record's top level, next to its type
  // and key, which keeps the line layout of every existing cache file:
  // the ',' takes the place of the delta's own '{'.
  std::string line = "{\"type\":\"rating\",\"key\":";
  jsonl::append_quoted(line, key);
  const std::size_t brace = line.size();
  delta.encode_to(line);
  line[brace] = ',';
  line += '\n';
  // flock serializes whole-line appends against every other writer —
  // other processes, and other RatingCache instances in this process
  // (flock is per open file description, and each instance holds its
  // own) — so two simultaneous stores interleave as two complete lines,
  // never as spliced bytes.
  while (::flock(fd_, LOCK_EX) != 0) {
    if (errno != EINTR) break;  // lock unavailable: still write the line
  }
  // Under the lock no live writer is mid-line, so bytes after the last
  // '\n' are a dead writer's torn record. Cutting them starts this record
  // on a line of its own instead of gluing both into one damaged line.
  cut_torn_tail(fd_);
  full_write(fd_, line);
  ::flock(fd_, LOCK_UN);
  stores_.inc();
}

std::size_t RatingCache::size() const {
  std::lock_guard lock(mutex_);
  return keys_only_ ? keys_.size() : entries_.size();
}

}  // namespace peak::core
