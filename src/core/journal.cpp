#include "core/journal.hpp"

#include "core/jsonl.hpp"
#include "obs/metrics.hpp"
#include "support/check.hpp"

namespace peak::core {

using jsonl::JsonParser;
using jsonl::JsonValue;
using jsonl::quote;

TuningJournal::TuningJournal(std::string path) : path_(std::move(path)) {
  out_.open(path_, std::ios::app);
  PEAK_CHECK(out_.good(), "cannot open tuning journal " + path_);
}

void TuningJournal::write_line(const std::string& line) {
  out_ << line << '\n';
  // Flush per record: a kill between lines then loses at most the record
  // in flight, which load() skips as a partial trailing line.
  out_.flush();
}

void TuningJournal::start_segment(const std::string& method,
                                  const std::string& fingerprint) {
  write_line("{\"type\":\"start\",\"method\":" + quote(method) +
             ",\"fp\":" + quote(fingerprint) + "}");
}

void TuningJournal::record_eval(const std::string& base_key,
                                const std::string& cfg_key,
                                const RatingDelta* prologue,
                                const RatingDelta& delta) {
  std::string line = "{\"type\":\"eval\",\"base\":" + quote(base_key) +
                     ",\"cfg\":" + quote(cfg_key);
  if (prologue != nullptr) line += ",\"pro\":" + prologue->encode();
  line += ",\"delta\":" + delta.encode() + "}";
  write_line(line);
}

std::vector<JournalSegment> TuningJournal::load(const std::string& path,
                                                bool strict,
                                                LoadStats* stats) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) throw JournalError("cannot read tuning journal " + path);
  std::vector<JournalSegment> segments;
  LoadStats local;
  std::string line;
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // getline() stops at '\n' or EOF; eof() after a successful read means
    // this final line has no terminator — i.e. the record that was being
    // written when the process died.
    const bool complete = !in.eof();
    const std::uint64_t line_end = offset + line.size() + (complete ? 1 : 0);
    if (line.empty()) {
      offset = line_end;
      continue;
    }
    std::string damage;
    try {
      if (line.back() != '}')
        throw support::CheckError("journal: unterminated record");
      const JsonValue record = JsonParser(line).parse();
      const std::string& type = record.at("type").as_string();
      if (type == "start") {
        JournalSegment seg;
        seg.method = record.at("method").as_string();
        if (record.has("fp")) seg.fingerprint = record.at("fp").as_string();
        segments.push_back(std::move(seg));
      } else if (type == "eval") {
        PEAK_CHECK(!segments.empty(), "journal: eval before any start");
        JournalEval e;
        e.base_key = record.at("base").as_string();
        e.cfg_key = record.at("cfg").as_string();
        if (record.has("pro"))
          e.prologue = RatingDelta::decode(record.at("pro"));
        e.delta = RatingDelta::decode(record.at("delta"));
        segments.back().evals.push_back(std::move(e));
      }
      // Other record types are skipped (forward compatibility).
    } catch (const std::exception& e) {
      // std::exception, not just CheckError: a flipped bit inside a hex
      // field surfaces as std::invalid_argument from stoull, and a
      // missing key as whatever jsonl throws — all of it is damage.
      damage = e.what();
    }
    if (damage.empty()) {
      offset = line_end;
      local.good_bytes = offset;
      continue;
    }
    if (!complete) break;  // partial trailing line: tolerated in any mode
    if (strict)
      throw JournalError("journal " + path + " line " +
                         std::to_string(line_no) + " is corrupt: " + damage);
    // Lenient: the replayable prefix ends here. Everything from this line
    // on — including later lines that would parse — is discarded, because
    // replay consumes evals in key-checked sequence and cannot skip over
    // a hole. Resume re-measures the lost tail live, which stays
    // bit-identical (the journal only caches what the evaluator would
    // recompute).
    local.truncated = true;
    ++local.corrupt_lines;
    while (std::getline(in, line))
      if (!line.empty()) ++local.corrupt_lines;
    break;
  }
  if (local.corrupt_lines > 0)
    obs::counter("journal.corrupt_lines").inc(local.corrupt_lines);
  if (stats != nullptr) *stats = local;
  return segments;
}

}  // namespace peak::core
