#include "core/rating_delta.hpp"

#include <charconv>
#include <string_view>

#include "support/check.hpp"

namespace peak::core {

namespace {

using jsonl::JsonValue;

const char* to_bool(bool b) { return b ? "true" : "false"; }

/// A JSON string of `s`, and of the bit pattern of `d`, for Writer.
struct Quoted {
  std::string_view s;
};
struct Hex {
  double d;
};

/// Appends to one string: encode() runs on every journal and cache
/// append, where a std::ostringstream cost more than the write itself.
struct Writer {
  std::string& out;

  Writer& operator<<(std::string_view s) {
    out.append(s);
    return *this;
  }
  Writer& operator<<(std::uint64_t v) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    return *this;
  }
  Writer& operator<<(Quoted q) {
    jsonl::append_quoted(out, q.s);
    return *this;
  }
  Writer& operator<<(Hex h) {
    out += '"';
    jsonl::append_hex_double(out, h.d);
    out += '"';
    return *this;
  }
};

fault::FaultKind fault_kind(const JsonValue& j) {
  const auto kind = fault::parse_fault_kind(j.as_string());
  PEAK_CHECK(kind.has_value(), "rating delta: unknown fault kind");
  return *kind;
}

}  // namespace

std::string RatingDelta::encode() const {
  std::string out;
  encode_to(out);
  return out;
}

void RatingDelta::encode_to(std::string& out) const {
  Writer os{out};
  os << "{\"r\":" << Hex{r};
  if (!memo.empty()) {
    os << ",\"memo\":[";
    for (std::size_t i = 0; i < memo.size(); ++i)
      os << (i ? "," : "") << "{\"k\":" << Quoted{memo[i].first}
         << ",\"v\":" << Hex{memo[i].second} << "}";
    os << "]";
  }
  if (!validated.empty()) {
    os << ",\"validated\":[";
    for (std::size_t i = 0; i < validated.size(); ++i)
      os << (i ? "," : "") << Quoted{validated[i]};
    os << "]";
  }
  if (!robs.empty()) {
    os << ",\"robs\":[";
    for (std::size_t i = 0; i < robs.size(); ++i)
      os << (i ? "," : "") << "{\"c\":" << to_bool(robs[i].converged)
         << ",\"s\":" << robs[i].samples << "}";
    os << "]";
  }
  if (!fails.empty()) {
    os << ",\"fails\":[";
    for (std::size_t i = 0; i < fails.size(); ++i)
      os << (i ? "," : "") << "{\"k\":" << Quoted{fails[i].key}
         << ",\"kind\":" << Quoted{fault::to_string(fails[i].kind)}
         << ",\"n\":" << fails[i].failures
         << ",\"q\":" << to_bool(fails[i].quarantined) << "}";
    os << "]";
  }
  if (!events.empty()) {
    os << ",\"events\":[";
    for (std::size_t i = 0; i < events.size(); ++i) {
      const fault::FaultEvent& ev = events[i];
      os << (i ? "," : "") << "{\"kind\":" << Quoted{fault::to_string(ev.kind)}
         << ",\"cfg\":" << Quoted{ev.config_key}
         << ",\"inv\":" << ev.invocation_id << ",\"attempt\":" << ev.attempt
         << ",\"gave_up\":" << to_bool(ev.gave_up)
         << ",\"q\":" << to_bool(ev.quarantined) << "}";
    }
    os << "]";
  }
  os << ",\"inv\":" << invocations << ",\"rs\":" << ratings_started
     << ",\"rx\":" << exhausted
     << ",\"whl\":" << Hex{whole_program_surcharge};
  if (mbr_residual) os << ",\"mbr\":" << Hex{*mbr_residual};
  os << ",\"cost\":{\"acc\":" << Hex{cost.accumulated}
     << ",\"timed\":" << Hex{cost.timed}
     << ",\"pre\":" << Hex{cost.precondition}
     << ",\"ckpt\":" << Hex{cost.checkpoint}
     << ",\"faulted\":" << Hex{cost.faulted}
     << ",\"retry\":" << Hex{cost.retry}
     << ",\"saves\":" << cost.saves << ",\"restores\":" << cost.restores
     << ",\"ckpt_bytes\":" << cost.checkpoint_bytes << "}";
  if (error) {
    // Exceptions do not fit through a pipe; a (tag, what) pair does, and
    // decode() rebuilds the matching type so the merge's rethrow behaves
    // exactly like the in-process path.
    std::string tag = "std";
    std::string what = "unknown error";
    try {
      std::rethrow_exception(error);
    } catch (const RatingNotConverging& e) {
      tag = "rnc";
      what = e.what();
    } catch (const support::CheckError& e) {
      tag = "check";
      what = e.what();
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    os << ",\"err\":{\"tag\":" << Quoted{tag} << ",\"what\":" << Quoted{what}
       << "}";
  }
  os << "}";
}

RatingDelta RatingDelta::decode(const JsonValue& j) {
  RatingDelta d;
  d.r = j.at("r").as_hex_double();
  if (j.has("memo"))
    for (const JsonValue& m : j.at("memo").as_array())
      d.memo.emplace_back(m.at("k").as_string(), m.at("v").as_hex_double());
  if (j.has("validated"))
    for (const JsonValue& v : j.at("validated").as_array())
      d.validated.push_back(v.as_string());
  if (j.has("robs"))
    for (const JsonValue& o : j.at("robs").as_array())
      d.robs.push_back({o.at("c").as_bool(), o.at("s").as_u64()});
  if (j.has("fails"))
    for (const JsonValue& f : j.at("fails").as_array())
      d.fails.push_back({f.at("k").as_string(), fault_kind(f.at("kind")),
                         f.at("n").as_u64(), f.at("q").as_bool()});
  if (j.has("events"))
    for (const JsonValue& e : j.at("events").as_array()) {
      fault::FaultEvent ev;
      ev.kind = fault_kind(e.at("kind"));
      ev.config_key = e.at("cfg").as_string();
      ev.invocation_id = e.at("inv").as_u64();
      ev.attempt = e.at("attempt").as_u64();
      ev.gave_up = e.at("gave_up").as_bool();
      ev.quarantined = e.at("q").as_bool();
      d.events.push_back(std::move(ev));
    }
  d.invocations = j.at("inv").as_u64();
  d.ratings_started = j.at("rs").as_u64();
  d.exhausted = j.at("rx").as_u64();
  d.whole_program_surcharge = j.at("whl").as_hex_double();
  if (j.has("mbr")) d.mbr_residual = j.at("mbr").as_hex_double();
  const JsonValue& c = j.at("cost");
  d.cost.accumulated = c.at("acc").as_hex_double();
  d.cost.timed = c.at("timed").as_hex_double();
  d.cost.precondition = c.at("pre").as_hex_double();
  d.cost.checkpoint = c.at("ckpt").as_hex_double();
  d.cost.faulted = c.at("faulted").as_hex_double();
  d.cost.retry = c.at("retry").as_hex_double();
  d.cost.saves = c.at("saves").as_u64();
  d.cost.restores = c.at("restores").as_u64();
  d.cost.checkpoint_bytes = c.at("ckpt_bytes").as_u64();
  if (j.has("err")) {
    const std::string& tag = j.at("err").at("tag").as_string();
    const std::string& what = j.at("err").at("what").as_string();
    if (tag == "rnc")
      d.error = std::make_exception_ptr(RatingNotConverging(what));
    else if (tag == "check")
      d.error = std::make_exception_ptr(support::CheckError(what));
    else
      d.error = std::make_exception_ptr(std::runtime_error(what));
  }
  return d;
}

}  // namespace peak::core
