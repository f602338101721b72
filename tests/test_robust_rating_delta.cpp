#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "core/jsonl.hpp"
#include "core/rating_delta.hpp"
#include "support/check.hpp"

namespace peak::core {
namespace {

/// The RatingDelta codec reads bytes at four trust boundaries — the
/// rating-cache file, the journal, the worker pipe and the TCP result —
/// and the MemberTask codec at two (the worker's run frame and the TCP
/// task frame), so their contracts are checked here once for all of
/// them: an exact round trip, and no crash (or sanitizer report) on
/// damaged input.

constexpr fault::FaultKind kAllKinds[] = {
    fault::FaultKind::kNone,        fault::FaultKind::kCrash,
    fault::FaultKind::kHang,        fault::FaultKind::kMiscompile,
    fault::FaultKind::kTimerGlitch, fault::FaultKind::kCheckpointCorrupt,
    fault::FaultKind::kHardCrash,
};

const double kNegZero = -0.0;
const double kSubnormal = std::numeric_limits<double>::denorm_min();
const double kMax = DBL_MAX;

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

RatingDelta full_delta(std::exception_ptr error) {
  RatingDelta d;
  d.r = kNegZero;
  d.memo = {{"0110", kSubnormal}, {"1111", kMax}, {"0000", kNegZero}};
  d.validated = {"0110", "1010"};
  d.robs = {{true, 40}, {false, std::numeric_limits<std::uint64_t>::max()}};
  std::uint64_t n = 1;
  for (fault::FaultKind kind : kAllKinds) {
    const std::string key = std::string("cfg_") + fault::to_string(kind);
    d.fails.push_back({key, kind, n, n % 2 == 0});
    fault::FaultEvent ev;
    ev.kind = kind;
    ev.config_key = key;
    ev.invocation_id = 1000 + n;
    ev.attempt = n;
    ev.gave_up = n % 2 == 1;
    ev.quarantined = n % 3 == 0;
    d.events.push_back(ev);
    ++n;
  }
  d.invocations = std::numeric_limits<std::uint64_t>::max();
  d.ratings_started = 7;
  d.exhausted = 3;
  d.whole_program_surcharge = kMax;
  d.mbr_residual = kSubnormal;
  d.cost.accumulated = kMax;
  d.cost.timed = kSubnormal;
  d.cost.precondition = kNegZero;
  d.cost.checkpoint = 1.0 / 3.0;
  d.cost.faulted = 2.5e-300;
  d.cost.retry = 123456.789;
  d.cost.saves = 11;
  d.cost.restores = 12;
  d.cost.checkpoint_bytes = std::uint64_t{1} << 40;
  d.error = std::move(error);
  return d;
}

RatingDelta round_trip(const RatingDelta& d) {
  return RatingDelta::decode(jsonl::JsonParser(d.encode()).parse());
}

/// Field-by-field bit-exact comparison (doubles by bit pattern, so −0.0
/// and 0.0 differ).
void expect_same(const RatingDelta& a, const RatingDelta& b) {
  EXPECT_EQ(bits(a.r), bits(b.r));
  ASSERT_EQ(a.memo.size(), b.memo.size());
  for (std::size_t i = 0; i < a.memo.size(); ++i) {
    EXPECT_EQ(a.memo[i].first, b.memo[i].first);
    EXPECT_EQ(bits(a.memo[i].second), bits(b.memo[i].second));
  }
  EXPECT_EQ(a.validated, b.validated);
  ASSERT_EQ(a.robs.size(), b.robs.size());
  for (std::size_t i = 0; i < a.robs.size(); ++i) {
    EXPECT_EQ(a.robs[i].converged, b.robs[i].converged);
    EXPECT_EQ(a.robs[i].samples, b.robs[i].samples);
  }
  ASSERT_EQ(a.fails.size(), b.fails.size());
  for (std::size_t i = 0; i < a.fails.size(); ++i) {
    EXPECT_EQ(a.fails[i].key, b.fails[i].key);
    EXPECT_EQ(a.fails[i].kind, b.fails[i].kind);
    EXPECT_EQ(a.fails[i].failures, b.fails[i].failures);
    EXPECT_EQ(a.fails[i].quarantined, b.fails[i].quarantined);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].config_key, b.events[i].config_key);
    EXPECT_EQ(a.events[i].invocation_id, b.events[i].invocation_id);
    EXPECT_EQ(a.events[i].attempt, b.events[i].attempt);
    EXPECT_EQ(a.events[i].gave_up, b.events[i].gave_up);
    EXPECT_EQ(a.events[i].quarantined, b.events[i].quarantined);
  }
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.ratings_started, b.ratings_started);
  EXPECT_EQ(a.exhausted, b.exhausted);
  EXPECT_EQ(bits(a.whole_program_surcharge), bits(b.whole_program_surcharge));
  ASSERT_EQ(a.mbr_residual.has_value(), b.mbr_residual.has_value());
  if (a.mbr_residual) {
    EXPECT_EQ(bits(*a.mbr_residual), bits(*b.mbr_residual));
  }
  EXPECT_EQ(bits(a.cost.accumulated), bits(b.cost.accumulated));
  EXPECT_EQ(bits(a.cost.timed), bits(b.cost.timed));
  EXPECT_EQ(bits(a.cost.precondition), bits(b.cost.precondition));
  EXPECT_EQ(bits(a.cost.checkpoint), bits(b.cost.checkpoint));
  EXPECT_EQ(bits(a.cost.faulted), bits(b.cost.faulted));
  EXPECT_EQ(bits(a.cost.retry), bits(b.cost.retry));
  EXPECT_EQ(a.cost.saves, b.cost.saves);
  EXPECT_EQ(a.cost.restores, b.cost.restores);
  EXPECT_EQ(a.cost.checkpoint_bytes, b.cost.checkpoint_bytes);
  ASSERT_EQ(a.error == nullptr, b.error == nullptr);
}

/// Checks that `error` holds an E whose message is `what`.
template <typename E>
void expect_error(const std::exception_ptr& error, const std::string& what) {
  ASSERT_NE(error, nullptr);
  try {
    std::rethrow_exception(error);
  } catch (const E& e) {
    EXPECT_EQ(std::string(e.what()), what);
  } catch (...) {
    ADD_FAILURE() << "decoded error has the wrong type";
  }
}

TEST(RobustRatingDelta, RoundTripIsBitExactForEveryField) {
  const RatingDelta none = full_delta(nullptr);
  expect_same(none, round_trip(none));
  // An empty delta stays empty: optional lists and fields are omitted.
  expect_same(RatingDelta{}, round_trip(RatingDelta{}));
}

TEST(RobustRatingDelta, RoundTripRebuildsEachErrorTag) {
  const RatingDelta rnc = full_delta(
      std::make_exception_ptr(RatingNotConverging("CBR gave up")));
  const RatingDelta decoded_rnc = round_trip(rnc);
  expect_same(rnc, decoded_rnc);
  expect_error<RatingNotConverging>(decoded_rnc.error, "CBR gave up");

  const RatingDelta check = full_delta(
      std::make_exception_ptr(support::CheckError("bad \"state\"\n")));
  const RatingDelta decoded_check = round_trip(check);
  expect_same(check, decoded_check);
  expect_error<support::CheckError>(decoded_check.error, "bad \"state\"\n");

  const RatingDelta other =
      full_delta(std::make_exception_ptr(std::runtime_error("other")));
  const RatingDelta decoded_other = round_trip(other);
  expect_same(other, decoded_other);
  expect_error<std::runtime_error>(decoded_other.error, "other");
}

/// Decode `text`; true when it decoded, false when it was rejected with a
/// std::exception (the exception type every reader of the four trust
/// boundaries catches). Anything else escapes and fails the test.
bool decodes(const std::string& text) {
  try {
    (void)RatingDelta::decode(jsonl::JsonParser(text).parse());
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

TEST(RobustRatingDelta, EveryPrefixIsRejectedWithoutCrashing) {
  const std::string line =
      full_delta(std::make_exception_ptr(RatingNotConverging("x")))
          .encode();
  ASSERT_TRUE(decodes(line));
  // A strict prefix lacks at least the closing brace, so none decodes.
  for (std::size_t n = 0; n < line.size(); ++n)
    EXPECT_FALSE(decodes(line.substr(0, n))) << "prefix " << n;
}

TEST(RobustRatingDelta, EverySingleBitFlipDecodesOrThrows) {
  const std::string line =
      full_delta(std::make_exception_ptr(RatingNotConverging("x")))
          .encode();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < line.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = line;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(line[i]) ^
                                     (1u << bit));
      (decodes(flipped) ? decoded : rejected) += 1;
    }
  // Both outcomes occur: flips inside hex digits or key strings still
  // parse, flips in the structure do not.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

MemberTask full_task() {
  MemberTask t;
  t.method = rating::Method::kMBR;
  t.base_key = "0110";
  t.cfg_key = "1110";
  t.prologue = true;
  t.seed = std::numeric_limits<std::uint64_t>::max();
  t.memo = {{"0110", kSubnormal}, {"1110", kNegZero}, {"1111", kMax}};
  std::uint64_t n = 1;
  for (fault::FaultKind kind : kAllKinds) {
    t.faults.push_back({n % 2 == 0 ? t.base_key : t.cfg_key, kind, n,
                        n % 3 == 0});
    ++n;
  }
  t.validated = true;
  return t;
}

/// Decode `text` as a MemberTask; true when it decoded, false when it was
/// rejected with support::CheckError. Any other exception fails the test.
bool task_decodes(const std::string& text) {
  try {
    (void)MemberTask::decode(jsonl::JsonParser(text).parse());
    return true;
  } catch (const support::CheckError&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "rejected with another exception: " << e.what()
                  << " for " << text;
    return false;
  }
}

TEST(RobustMemberTask, RoundTripIsBitExactForEveryField) {
  const MemberTask t = full_task();
  const MemberTask back =
      MemberTask::decode(jsonl::JsonParser(t.encode()).parse());
  EXPECT_EQ(back, t);
  ASSERT_EQ(back.memo.size(), t.memo.size());
  for (std::size_t i = 0; i < t.memo.size(); ++i)
    EXPECT_EQ(bits(back.memo[i].second), bits(t.memo[i].second)) << i;
  // The smallest task, too: empty lists stay empty.
  EXPECT_EQ(MemberTask::decode(jsonl::JsonParser(MemberTask{}.encode())
                                   .parse()),
            MemberTask{});
}

TEST(RobustMemberTask, RefusesUnknownNamesAndKeyAlphabets) {
  const std::string line = full_task().encode();
  const auto replaced = [&line](const std::string& from,
                                const std::string& to) {
    std::string out = line;
    out.replace(out.find(from), from.size(), to);
    return out;
  };
  EXPECT_TRUE(task_decodes(line));
  EXPECT_FALSE(task_decodes(replaced("\"MBR\"", "\"XBR\"")));
  EXPECT_FALSE(task_decodes(replaced("hard-crash", "hard-crush")));
  EXPECT_FALSE(task_decodes(replaced("\"base\":\"0110\"",
                                     "\"base\":\"0112\"")));
  EXPECT_FALSE(task_decodes(replaced("\"cfg\":\"1110\"",
                                     "\"cfg\":\"11x0\"")));
}

TEST(RobustMemberTask, EveryPrefixIsRejectedWithCheckError) {
  const std::string line = full_task().encode();
  ASSERT_TRUE(task_decodes(line));
  for (std::size_t n = 0; n < line.size(); ++n)
    EXPECT_FALSE(task_decodes(line.substr(0, n))) << "prefix " << n;
}

TEST(RobustMemberTask, EverySingleBitFlipDecodesOrThrowsCheckError) {
  const std::string line = full_task().encode();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::size_t i = 0; i < line.size(); ++i)
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = line;
      flipped[i] = static_cast<char>(static_cast<unsigned char>(line[i]) ^
                                     (1u << bit));
      (task_decodes(flipped) ? decoded : rejected) += 1;
    }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace peak::core
