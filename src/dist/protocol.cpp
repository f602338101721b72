#include "dist/protocol.hpp"

#include <sstream>

#include "support/check.hpp"

namespace peak::dist {

namespace jsonl = core::jsonl;

namespace {

const char* rule_name(stats::OutlierRule rule) {
  switch (rule) {
    case stats::OutlierRule::kNone: return "none";
    case stats::OutlierRule::kSigma: return "sigma";
    case stats::OutlierRule::kMad: return "mad";
  }
  return "none";
}

stats::OutlierRule rule_from(const std::string& name) {
  if (name == "none") return stats::OutlierRule::kNone;
  if (name == "sigma") return stats::OutlierRule::kSigma;
  if (name == "mad") return stats::OutlierRule::kMad;
  PEAK_CHECK(false, "dist: unknown outlier rule '" + name + "'");
  return stats::OutlierRule::kNone;
}

}  // namespace

std::string hello_frame(const std::string& name) {
  std::ostringstream out;
  out << "{\"op\":\"hello\",\"version\":" << kDistProtocolVersion
      << ",\"name\":" << jsonl::quote(name) << "}";
  return out.str();
}

std::string serialize_session_spec(const core::SessionSpec& spec) {
  const core::ProfileOptions& prof = spec.profile;
  std::ostringstream out;
  out << "{\"bench\":" << jsonl::quote(spec.benchmark)
      << ",\"machine\":" << jsonl::quote(spec.machine)
      << ",\"dataset\":" << jsonl::quote(spec.dataset)
      << ",\"trace_seed\":" << spec.trace_seed
      << ",\"effect_seed\":" << spec.effect_seed
      << ",\"prof\":{\"det\":" << prof.detailed_invocations
      << ",\"scan\":" << prof.context_scan_limit
      << ",\"maxc\":" << prof.components.max_components << ",\"aff\":\""
      << jsonl::hex_double(prof.components.affine_tolerance)
      << "\",\"small\":\""
      << jsonl::hex_double(prof.components.small_block_fraction)
      << "\",\"mvar\":\"" << jsonl::hex_double(prof.mbr_profile_var_threshold)
      << "\"},\"seed\":" << spec.seed
      << ",\"win\":{\"min\":" << spec.window.min_samples
      << ",\"max\":" << spec.window.max_samples << ",\"cv\":\""
      << jsonl::hex_double(spec.window.cv_threshold) << "\",\"orule\":\""
      << rule_name(spec.window.outliers.rule) << "\",\"ok\":\""
      << jsonl::hex_double(spec.window.outliers.k) << "\",\"odrop\":\""
      << jsonl::hex_double(spec.window.outliers.max_drop_fraction)
      << "\",\"oiter\":" << spec.window.outliers.max_iterations
      << "},\"mbr\":{\"minc\":" << spec.mbr.min_samples_per_component
      << ",\"max\":" << spec.mbr.max_samples << ",\"var\":\""
      << jsonl::hex_double(spec.mbr.var_threshold) << "\",\"cv\":\""
      << jsonl::hex_double(spec.mbr.cv_threshold) << "\",\"dom\":\""
      << jsonl::hex_double(spec.mbr.dominant_share)
      << "\"},\"irbr\":" << (spec.improved_rbr ? "true" : "false")
      << ",\"rbp\":" << spec.rbr_batch_pairs << "}";
  return out.str();
}

std::string session_frame(const core::SessionSpec& spec) {
  std::ostringstream out;
  out << "{\"op\":\"session\",\"version\":" << kDistProtocolVersion
      << ",\"spec\":" << serialize_session_spec(spec) << "}";
  return out.str();
}

std::string refuse_frame(const std::string& reason) {
  return "{\"op\":\"refuse\",\"reason\":" + jsonl::quote(reason) + "}";
}

std::string ready_frame() { return "{\"op\":\"ready\"}"; }

std::string task_frame(std::uint64_t id, unsigned attempt,
                       const core::MemberTask& task) {
  std::string out = "{\"op\":\"task\",\"id\":";
  out += std::to_string(id);
  out += ",\"attempt\":";
  out += std::to_string(attempt);
  out += ',';
  task.encode_members(out);
  out += '}';
  return out;
}

std::string result_frame(std::uint64_t id, const std::string& payload) {
  return "{\"op\":\"result\",\"id\":" + std::to_string(id) +
         ",\"payload\":" + jsonl::quote(payload) + "}";
}

std::string error_frame(std::uint64_t id, const std::string& what) {
  return "{\"op\":\"err\",\"id\":" + std::to_string(id) +
         ",\"what\":" + jsonl::quote(what) + "}";
}

std::string heartbeat_frame(std::uint64_t seq) {
  return "{\"op\":\"hb\",\"seq\":" + std::to_string(seq) + "}";
}

std::string bye_frame() { return "{\"op\":\"bye\"}"; }

jsonl::JsonValue parse_frame(const std::string& payload) {
  return jsonl::JsonParser(payload).parse();
}

std::string frame_op(const jsonl::JsonValue& record) {
  if (!record.has("op")) return "";
  return record.at("op").as_string();
}

core::SessionSpec parse_session_spec(const jsonl::JsonValue& spec) {
  core::SessionSpec out;
  out.benchmark = spec.at("bench").as_string();
  out.machine = spec.at("machine").as_string();
  out.dataset = spec.at("dataset").as_string();
  out.trace_seed = spec.at("trace_seed").as_u64();
  out.effect_seed = spec.at("effect_seed").as_u64();
  const auto& prof = spec.at("prof");
  out.profile.detailed_invocations =
      static_cast<std::size_t>(prof.at("det").as_u64());
  out.profile.context_scan_limit =
      static_cast<std::size_t>(prof.at("scan").as_u64());
  out.profile.components.max_components =
      static_cast<std::size_t>(prof.at("maxc").as_u64());
  out.profile.components.affine_tolerance = prof.at("aff").as_hex_double();
  out.profile.components.small_block_fraction =
      prof.at("small").as_hex_double();
  out.profile.mbr_profile_var_threshold = prof.at("mvar").as_hex_double();
  out.seed = spec.at("seed").as_u64();
  const auto& win = spec.at("win");
  out.window.min_samples =
      static_cast<std::size_t>(win.at("min").as_u64());
  out.window.max_samples =
      static_cast<std::size_t>(win.at("max").as_u64());
  out.window.cv_threshold = win.at("cv").as_hex_double();
  out.window.outliers.rule = rule_from(win.at("orule").as_string());
  out.window.outliers.k = win.at("ok").as_hex_double();
  out.window.outliers.max_drop_fraction = win.at("odrop").as_hex_double();
  out.window.outliers.max_iterations =
      static_cast<int>(win.at("oiter").as_u64());
  const auto& mbr = spec.at("mbr");
  out.mbr.min_samples_per_component =
      static_cast<std::size_t>(mbr.at("minc").as_u64());
  out.mbr.max_samples = static_cast<std::size_t>(mbr.at("max").as_u64());
  out.mbr.var_threshold = mbr.at("var").as_hex_double();
  out.mbr.cv_threshold = mbr.at("cv").as_hex_double();
  out.mbr.dominant_share = mbr.at("dom").as_hex_double();
  out.improved_rbr = spec.at("irbr").as_bool();
  out.rbr_batch_pairs =
      static_cast<std::size_t>(spec.at("rbp").as_u64());
  return out;
}

TaskFrame parse_task_frame(const jsonl::JsonValue& record) {
  TaskFrame out;
  out.id = record.at("id").as_u64();
  out.attempt = static_cast<unsigned>(record.at("attempt").as_u64());
  out.task = core::MemberTask::decode(record);
  return out;
}

}  // namespace peak::dist
