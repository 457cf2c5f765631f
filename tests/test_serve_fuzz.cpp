// Seeded byte and grammar fuzz of the serve stack: random request lines
// straight through ServeSession::handle, and random frame streams (valid
// frames, garbage payloads, random truncation, oversized and half length
// prefixes) through run_serve_loop in both reply modes. Whatever arrives,
// nothing may crash or throw, every reply must be `ok ...` or `err ...`,
// and after every accepted mutation the session's solution must be
// bit-identical to a cold ExactDpSolver solve of its resident set.
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "retask/common/rng.hpp"
#include "retask/core/exact_dp.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"

namespace retask {
namespace {

constexpr double kWpc = 1.0 / 200.0;  // 200 cycles fit at top speed: cheap cold solves

ServeSession make_session() {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  return ServeSession(std::move(curve), kWpc);
}

std::string pick(Rng& rng, const std::vector<std::string>& options) {
  return options[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(options.size()) - 1))];
}

std::string random_bytes(Rng& rng, std::size_t max_size) {
  std::string bytes(static_cast<std::size_t>(
                        rng.uniform_int(0, static_cast<std::int64_t>(max_size))),
                    '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_int(0, 255));
  return bytes;
}

/// One request payload: mostly well-formed requests over a small id range
/// (so removes and reprices hit resident tasks), mixed with out-of-range
/// and unparsable fields, wrong arity, odd spacing and raw bytes.
std::string random_request(Rng& rng) {
  const auto id = [&] { return std::to_string(rng.uniform_int(-1, 10)); };
  const auto cycles = [&]() -> std::string {
    if (rng.uniform() < 0.8) return std::to_string(rng.uniform_int(1, 90));
    return pick(rng, {"0", "-7", "201", "100000", "9223372036854775807", "99999999999999999999",
                      "12x", "1e2", ""});
  };
  const auto penalty = [&]() -> std::string {
    if (rng.uniform() < 0.8) return std::to_string(rng.uniform(0.0, 4.0));
    return pick(rng, {"-1", "nan", "inf", "-inf", "1e308", "0x1p3", "1e-320", "abc", ""});
  };
  switch (rng.uniform_int(0, 11)) {
    case 0:
    case 1:
    case 2:
    case 3:
      return "admit " + id() + " " + cycles() + " " + penalty();
    case 4:
    case 5:
      return "remove " + id();
    case 6:
      return "reprice " + id() + " " + penalty();
    case 7:
      return pick(rng, {"query", "stats", "ping", "bye", "", " ", "QUERY", "query x", "admit",
                        "remove", "reprice 3", "admit 1 2", "admit 1 2 3 4", "remove 1 2"});
    case 8:
      return "  admit   " + id() + "  " + cycles() + "   " + penalty() + "  ";
    case 9:
      return pick(rng, {"admit ", "remove ", "reprice "}) + std::string(
          static_cast<std::size_t>(rng.uniform_int(20, 90)), '9');
    default:
      return random_bytes(rng, 40);
  }
}

bool is_reply(const std::string& reply) {
  return reply.rfind("ok ", 0) == 0 || reply.rfind("err ", 0) == 0;
}

bool is_accepted_mutation(const std::string& reply) {
  return reply.rfind("ok admit ", 0) == 0 || reply.rfind("ok remove ", 0) == 0 ||
         reply.rfind("ok reprice ", 0) == 0;
}

::testing::AssertionResult matches_cold_solve(const ServeSession& session) {
  const DeltaSolver& solver = session.solver();
  if (solver.size() == 0) {
    if (solver.solution().accepted.empty()) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure() << "empty resident set, non-empty solution";
  }
  const RejectionSolution cold = ExactDpSolver().solve(solver.make_problem());
  const RejectionSolution& warm = solver.solution();
  if (warm.accepted != cold.accepted ||
      std::bit_cast<std::uint64_t>(warm.energy) != std::bit_cast<std::uint64_t>(cold.energy) ||
      std::bit_cast<std::uint64_t>(warm.penalty) != std::bit_cast<std::uint64_t>(cold.penalty)) {
    return ::testing::AssertionFailure()
           << "session solution differs from the cold solve over " << solver.size()
           << " resident tasks";
  }
  return ::testing::AssertionSuccess();
}

/// Feeds `requests` through a fresh session one by one, asserting the reply
/// shape and cold-solve identity after every accepted mutation; returns the
/// replies.
std::vector<std::string> handle_all(const std::vector<std::string>& requests) {
  ServeSession session = make_session();
  std::vector<std::string> replies;
  for (const std::string& request : requests) {
    replies.emplace_back(session.handle(request));
    EXPECT_TRUE(is_reply(replies.back())) << replies.back();
    if (is_accepted_mutation(replies.back())) {
      EXPECT_TRUE(matches_cold_solve(session)) << "after '" << request << "'";
    }
  }
  return replies;
}

TEST(ServeFuzz, RandomRequestsKeepTheColdSolveIdentity) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9E3779B97F4A7C15ULL);
    std::vector<std::string> requests;
    for (int i = 0; i < 60; ++i) requests.push_back(random_request(rng));
    std::size_t mutations = 0;
    for (const std::string& reply : handle_all(requests)) {
      mutations += is_accepted_mutation(reply) ? 1 : 0;
    }
    EXPECT_GT(mutations, 0u);  // the grammar mix must reach the solver
  }
}

/// A frame stream of random requests, possibly ending in a corrupt tail.
/// `requests` receives the payloads of the complete frames, in order.
std::string random_stream(Rng& rng, std::vector<std::string>& requests) {
  std::ostringstream out;
  const auto count = rng.uniform_int(0, 40);
  for (std::int64_t i = 0; i < count; ++i) {
    requests.push_back(rng.uniform() < 0.1 ? random_bytes(rng, 300) : random_request(rng));
    write_frame(out, requests.back());
  }
  std::string stream = out.str();
  switch (rng.uniform_int(0, 5)) {
    case 0: {  // cut the last frame short (or keep a clean end when empty)
      if (requests.empty()) break;
      const std::size_t last = 4 + requests.back().size();
      stream.resize(stream.size() - last + static_cast<std::size_t>(rng.uniform_int(
                                                 1, static_cast<std::int64_t>(last) - 1)));
      requests.pop_back();
      break;
    }
    case 1:  // a length prefix beyond the protocol cap
      stream += std::string("\x01\x00\x10\x00", 4) + random_bytes(rng, 16);
      break;
    case 2:  // half a header
      stream += std::string(static_cast<std::size_t>(rng.uniform_int(1, 3)), '\x07');
      break;
    case 3:  // a header within the cap, then fewer payload bytes than it claims
      stream += std::string("\x00\x02\x00\x00", 4) + random_bytes(rng, 500);
      break;
    default:  // clean end of stream
      break;
  }
  return stream;
}

TEST(ServeFuzz, PumpSurvivesRandomFramesInBothReplyModes) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0xD1B54A32D192ED03ULL);
    std::vector<std::string> requests;
    const std::string stream = random_stream(rng, requests);
    const std::vector<std::string> direct = handle_all(requests);

    std::string first_output;
    for (const bool async : {false, true}) {
      SCOPED_TRACE(async ? "async" : "inline");
      std::istringstream in(stream);
      std::ostringstream out;
      ServeSession session = make_session();
      ServeLoopOptions options;
      options.async_replies = async;
      options.max_batch = static_cast<std::size_t>(rng.uniform_int(1, 8));
      ServeLoopStats stats;
      ASSERT_NO_THROW(stats = run_serve_loop(in, out, session, options));
      EXPECT_TRUE(matches_cold_solve(session));

      std::istringstream replies_in(out.str());
      std::vector<std::string> replies;
      std::string payload;
      ASSERT_NO_THROW(while (read_frame(replies_in, payload)) replies.push_back(payload));
      for (const std::string& reply : replies) EXPECT_TRUE(is_reply(reply)) << reply;

      // The pump answers exactly the complete frames before the first
      // malformed one (a `bye` among them ends the session early), with
      // the replies a bare session gives, then one `err protocol` reply
      // when the stream broke first.
      ASSERT_EQ(stats.requests + (stats.protocol_error.empty() ? 0 : 1), replies.size());
      ASSERT_LE(stats.requests, direct.size());
      for (std::size_t i = 0; i < stats.requests; ++i) EXPECT_EQ(replies[i], direct[i]) << i;
      if (!stats.protocol_error.empty()) {
        EXPECT_TRUE(replies.back().rfind("err protocol ", 0) == 0) << replies.back();
      } else if (!session.closed()) {
        EXPECT_EQ(stats.requests, direct.size());
      }
      if (async) {
        EXPECT_EQ(out.str(), first_output);  // reply mode never changes the bytes
      } else {
        first_output = out.str();
      }
    }
  }
}

}  // namespace
}  // namespace retask
