#include "fault/quarantine.hpp"

#include "obs/metrics.hpp"

namespace peak::fault {

Quarantine::Quarantine(const Quarantine& other)
    : entries_(other.snapshot()) {}

Quarantine& Quarantine::operator=(const Quarantine& other) {
  if (this == &other) return *this;
  auto copy = other.snapshot();
  std::lock_guard lock(mutex_);
  entries_ = std::move(copy);
  return *this;
}

bool Quarantine::contains(const std::string& config_key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(config_key);
  return it != entries_.end() && it->second.quarantined;
}

std::optional<FaultKind> Quarantine::kind_of(
    const std::string& config_key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(config_key);
  if (it == entries_.end() || !it->second.quarantined) return std::nullopt;
  return it->second.kind;
}

bool Quarantine::record_failure(const std::string& config_key,
                                FaultKind kind, std::size_t threshold) {
  std::lock_guard lock(mutex_);
  Entry& e = entries_[config_key];
  ++e.failures;
  e.kind = kind;
  if (e.quarantined || e.failures < threshold) return false;
  e.quarantined = true;
  obs::counter("fault.quarantined").inc();
  return true;
}

void Quarantine::quarantine(const std::string& config_key, FaultKind kind) {
  std::lock_guard lock(mutex_);
  Entry& e = entries_[config_key];
  if (e.quarantined) return;
  e.quarantined = true;
  e.kind = kind;
  if (e.failures == 0) e.failures = 1;
  obs::counter("fault.quarantined").inc();
}

void Quarantine::restore_failures(const std::string& config_key,
                                  FaultKind kind, std::size_t failures,
                                  bool quarantined) {
  std::lock_guard lock(mutex_);
  Entry& e = entries_[config_key];
  e.failures = failures;
  if (kind != FaultKind::kNone) e.kind = kind;
  if (quarantined) e.quarantined = true;
}

std::size_t Quarantine::failures_of(const std::string& config_key) const {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(config_key);
  return it == entries_.end() ? 0 : it->second.failures;
}

std::size_t Quarantine::size() const {
  std::lock_guard lock(mutex_);
  std::size_t n = 0;
  for (const auto& [key, e] : entries_)
    if (e.quarantined) ++n;
  return n;
}

std::map<std::string, Quarantine::Entry> Quarantine::snapshot() const {
  std::lock_guard lock(mutex_);
  return entries_;
}

void Quarantine::clear() {
  std::lock_guard lock(mutex_);
  entries_.clear();
}

}  // namespace peak::fault
