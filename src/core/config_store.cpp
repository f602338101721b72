#include "core/config_store.hpp"

#include <fstream>
#include <sstream>

#include "support/check.hpp"

namespace peak::core {

namespace {

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

}  // namespace

ConfigStore::ConfigStore(const search::OptimizationSpace& space)
    : space_(space) {}

void ConfigStore::put(const std::string& section,
                      const std::string& machine,
                      const StoredConfig& entry) {
  PEAK_CHECK(entry.config.size() == space_.size(),
             "config does not match the store's optimization space");
  entries_[{section, machine}] = entry;
}

std::optional<StoredConfig> ConfigStore::get(
    const std::string& section, const std::string& machine) const {
  const auto it = entries_.find({section, machine});
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

std::string ConfigStore::serialize() const {
  std::ostringstream os;
  for (const auto& [key, entry] : entries_) {
    os << '[' << key.first << " @ " << key.second << "]\n";
    os << "method = " << rating::to_string(entry.method) << '\n';
    os << "improvement = " << entry.improvement_pct << '\n';
    os << "disabled = "
       << entry.config.describe(space_, /*invert=*/true) << '\n';
    for (const QuarantineRecord& q : entry.quarantined)
      os << "quarantine = " << fault::to_string(q.kind) << ' '
         << q.failures << ' ' << q.config_key << '\n';
    os << '\n';
  }
  return os.str();
}

bool ConfigStore::deserialize(const std::string& text) {
  std::map<Key, StoredConfig> parsed;
  std::istringstream is(text);
  std::string line;
  std::optional<Key> current;
  StoredConfig entry;
  entry.config = search::o3_config(space_);

  auto commit = [&]() {
    if (current) parsed[*current] = entry;
    current.reset();
    entry = StoredConfig{};
    entry.config = search::o3_config(space_);
  };

  while (std::getline(is, line)) {
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      commit();
      if (line.back() != ']') return false;
      const std::string inner = line.substr(1, line.size() - 2);
      const auto at = inner.find(" @ ");
      if (at == std::string::npos) return false;
      current = Key{trim(inner.substr(0, at)), trim(inner.substr(at + 3))};
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos || !current) return false;
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    if (key == "method") {
      const auto m = rating::parse_method(value);
      if (!m) return false;
      entry.method = *m;
    } else if (key == "improvement") {
      try {
        entry.improvement_pct = std::stod(value);
      } catch (...) {
        return false;
      }
    } else if (key == "disabled") {
      std::istringstream flags(value);
      std::string flag;
      while (flags >> flag) {
        const auto idx = space_.index_of(flag);
        if (!idx) return false;  // unknown flag: reject the whole file
        entry.config.set(*idx, false);
      }
    } else if (key == "quarantine") {
      std::istringstream fields(value);
      std::string kind_name;
      std::size_t failures = 0;
      QuarantineRecord q;
      if (!(fields >> kind_name >> failures >> q.config_key)) return false;
      const auto kind = fault::parse_fault_kind(kind_name);
      if (!kind || *kind == fault::FaultKind::kNone) return false;
      q.kind = *kind;
      q.failures = failures;
      entry.quarantined.push_back(std::move(q));
    } else {
      return false;
    }
  }
  commit();
  entries_ = std::move(parsed);
  return true;
}

bool ConfigStore::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << serialize();
  return static_cast<bool>(out);
}

bool ConfigStore::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return deserialize(buffer.str());
}

}  // namespace peak::core
