#include "retask/serve/server.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <new>
#include <optional>
#include <ostream>
#include <thread>
#include <vector>

#include "retask/common/error.hpp"
#include "retask/obs/metrics.hpp"
#include "retask/serve/protocol.hpp"

namespace retask {
namespace {

/// Pops the next space-separated token off `rest`; false when exhausted.
bool next_token(std::string_view& rest, std::string_view& token) {
  std::size_t start = 0;
  while (start < rest.size() && rest[start] == ' ') ++start;
  if (start == rest.size()) {
    rest = {};
    return false;
  }
  std::size_t end = start;
  while (end < rest.size() && rest[end] != ' ') ++end;
  token = rest.substr(start, end - start);
  rest = rest.substr(end);
  return true;
}

/// Strict bounded integer parse (the request ids and cycle counts).
bool parse_i64(std::string_view token, std::int64_t& value) {
  if (token.empty() || token.size() >= 24) return false;
  char buf[24];
  token.copy(buf, token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + token.size()) return false;
  value = parsed;
  return true;
}

bool parse_int(std::string_view token, int& value) {
  std::int64_t wide = 0;
  if (!parse_i64(token, wide)) return false;
  if (wide < INT_MIN || wide > INT_MAX) return false;
  value = static_cast<int>(wide);
  return true;
}

/// Strict finite double parse (penalties).
bool parse_finite(std::string_view token, double& value) {
  if (token.empty() || token.size() >= 64) return false;
  char buf[64];
  token.copy(buf, token.size());
  buf[token.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(buf, &end);
  if (end != buf + token.size() || !std::isfinite(parsed)) return false;
  value = parsed;
  return true;
}

void append_i64(std::string& out, std::int64_t value) {
  char buf[24];
  const int written = std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(value));
  out.append(buf, static_cast<std::size_t>(written));
}

}  // namespace

ServeSession::ServeSession(EnergyCurve curve, double work_per_cycle, ServeOptions options)
    : solver_(std::move(curve), work_per_cycle, options.solver), options_(options) {
  require(options_.reply_precision >= 1 && options_.reply_precision <= 17,
          "ServeSession: reply_precision must be in [1, 17]");
}

void ServeSession::append_double(double value) {
  char buf[40];
  const int written =
      std::snprintf(buf, sizeof buf, "%.*g", options_.reply_precision, value);
  reply_.append(buf, static_cast<std::size_t>(written));
}

void ServeSession::append_solution_summary() {
  const RejectionSolution& sol = solver_.solution();
  reply_ += " accepted=";
  append_i64(reply_, static_cast<std::int64_t>(sol.accepted_count()));
  reply_ += '/';
  append_i64(reply_, static_cast<std::int64_t>(solver_.size()));
  reply_ += " load=";
  append_i64(reply_, solver_.accepted_load());
  reply_ += " speed=";
  append_double(assigned_speed(solver_.curve(), solver_.work_per_cycle(), solver_.accepted_load()));
  reply_ += " energy=";
  append_double(sol.energy);
  reply_ += " penalty=";
  append_double(sol.penalty);
  reply_ += " objective=";
  append_double(sol.energy + sol.penalty);
}

std::string_view ServeSession::handle(std::string_view request) {
  ++requests_;
  RETASK_COUNT("serve.requests", 1);
  reply_.clear();
  std::string_view rest = request;
  std::string_view cmd;
  const auto fail = [this](std::string_view reason) -> std::string_view {
    reply_.clear();
    reply_ += "err ";
    reply_ += reason;
    return reply_;
  };
  if (!next_token(rest, cmd)) return fail("empty request");

  try {
    if (cmd == "admit" || cmd == "reprice") {
      std::string_view id_token, amount_token, cycles_token, trailing;
      int id = 0;
      if (!next_token(rest, id_token) || !parse_int(id_token, id)) {
        return fail("expected: admit <id> <cycles> <penalty> | reprice <id> <penalty>");
      }
      const std::uint64_t cold_before = solver_.cold_falls();
      if (cmd == "admit") {
        std::int64_t cycles = 0;
        double penalty = 0.0;
        if (!next_token(rest, cycles_token) || !parse_i64(cycles_token, cycles) ||
            !next_token(rest, amount_token) || !parse_finite(amount_token, penalty) ||
            next_token(rest, trailing)) {
          return fail("expected: admit <id> <cycles> <penalty>");
        }
        solver_.admit(FrameTask{id, cycles, penalty});
      } else {
        double penalty = 0.0;
        if (!next_token(rest, amount_token) || !parse_finite(amount_token, penalty) ||
            next_token(rest, trailing)) {
          return fail("expected: reprice <id> <penalty>");
        }
        solver_.reprice(id, penalty);
      }
      reply_ += "ok ";
      reply_ += cmd;
      reply_ += " id=";
      append_i64(reply_, id);
      reply_ += " verdict=";
      reply_ += solver_.solution().accepted[solver_.index_of(id)] ? "accept" : "reject";
      append_solution_summary();
      reply_ += " path=";
      reply_ += solver_.cold_falls() != cold_before ? "cold" : "delta";
    } else if (cmd == "remove") {
      std::string_view id_token, trailing;
      int id = 0;
      if (!next_token(rest, id_token) || !parse_int(id_token, id) || next_token(rest, trailing)) {
        return fail("expected: remove <id>");
      }
      const std::uint64_t cold_before = solver_.cold_falls();
      solver_.remove(id);
      reply_ += "ok remove id=";
      append_i64(reply_, id);
      append_solution_summary();
      reply_ += " path=";
      reply_ += solver_.cold_falls() != cold_before ? "cold" : "delta";
    } else if (cmd == "query") {
      std::string_view trailing;
      if (next_token(rest, trailing)) return fail("expected: query");
      reply_ += "ok query resident=";
      append_i64(reply_, static_cast<std::int64_t>(solver_.size()));
      append_solution_summary();
    } else if (cmd == "stats") {
      std::string_view trailing;
      if (next_token(rest, trailing)) return fail("expected: stats");
      reply_ += "ok stats requests=";
      append_i64(reply_, static_cast<std::int64_t>(requests_));
      reply_ += " resident=";
      append_i64(reply_, static_cast<std::int64_t>(solver_.size()));
      reply_ += " delta_hits=";
      append_i64(reply_, static_cast<std::int64_t>(solver_.delta_hits()));
      reply_ += " cold_falls=";
      append_i64(reply_, static_cast<std::int64_t>(solver_.cold_falls()));
    } else if (cmd == "ping") {
      reply_ += "ok ping";
    } else if (cmd == "bye") {
      closed_ = true;
      reply_ += "ok bye";
    } else {
      return fail("unknown command");
    }
  } catch (const Error& error) {
    return fail(error.what());
  } catch (const std::bad_alloc&) {
    resource_exhausted_ = true;
    return fail("resource out of memory");
  }
  return reply_;
}

void ServeLoopStats::record_latency(std::uint64_t ns) {
  const auto bucket = static_cast<std::size_t>(std::bit_width(ns));
  ++latency_ns_log2[std::min(bucket, latency_ns_log2.size() - 1)];
}

std::uint64_t ServeLoopStats::latency_percentile_ns(double p) const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : latency_ns_log2) total += count;
  if (total == 0) return 0;
  const auto threshold =
      static_cast<std::uint64_t>(std::ceil(p * static_cast<double>(total)));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < latency_ns_log2.size(); ++b) {
    seen += latency_ns_log2[b];
    if (seen >= threshold) return std::uint64_t{1} << b;
  }
  return std::uint64_t{1} << (latency_ns_log2.size() - 1);
}

namespace {

/// Reply drain of the async pump: a writer thread frames and flushes the
/// replies the pump queues, in queue order, recycling drained buffers so
/// the steady state allocates nothing. The destructor ends and joins the
/// thread, so every way out of run_serve_loop — end of stream, a protocol
/// error, an exception out of a solve — joins before the stream dies.
class ReplyWriter {
 public:
  explicit ReplyWriter(std::ostream& out) : thread_([this, &out] { run(out); }) {}
  ReplyWriter(const ReplyWriter&) = delete;
  ReplyWriter& operator=(const ReplyWriter&) = delete;
  ~ReplyWriter() { close(); }

  void push(std::string_view reply) {
    std::lock_guard<std::mutex> lock(mu_);
    std::string slot;
    if (!spare_.empty()) {
      slot = std::move(spare_.back());
      spare_.pop_back();
    }
    slot.assign(reply);
    pending_.push_back(std::move(slot));
    cv_.notify_one();
  }

  /// Drains the queue and joins the thread (idempotent). Returns the write
  /// failure that stopped the writer early, if any.
  std::exception_ptr close() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        done_ = true;
      }
      cv_.notify_one();
      thread_.join();
    }
    return failure_;
  }

 private:
  void run(std::ostream& out) {
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      cv_.wait(lock, [&] { return done_ || !pending_.empty(); });
      if (pending_.empty() && done_) break;
      while (!pending_.empty()) {
        std::string reply = std::move(pending_.front());
        pending_.pop_front();
        lock.unlock();
        // After a failed write the rest of the queue is dropped: the
        // stream is gone, and an exception must not escape the thread.
        if (failure_ == nullptr) {
          try {
            write_frame(out, reply);
          } catch (...) {
            failure_ = std::current_exception();
          }
        }
        lock.lock();
        // Recycling is an optimization: a buffer that cannot be kept is
        // dropped rather than let bad_alloc escape the thread.
        try {
          spare_.push_back(std::move(reply));
        } catch (const std::bad_alloc&) {
        }
      }
      if (failure_ == nullptr) out.flush();  // one flush per drained burst
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> pending_;
  std::vector<std::string> spare_;
  bool done_ = false;
  std::exception_ptr failure_;  ///< written by the thread, read after join
  std::thread thread_;          ///< last: starts once the members above exist
};

}  // namespace

ServeLoopStats run_serve_loop(std::istream& in, std::ostream& out, ServeSession& session,
                              const ServeLoopOptions& options) {
  ServeLoopStats stats;
  const std::size_t max_batch = std::max<std::size_t>(1, options.max_batch);

  // Reply pipeline: the pump thread solves, the writer thread frames and
  // flushes, so encoding and I/O overlap the next request's solve. Replies
  // keep request order (single queue).
  std::optional<ReplyWriter> writer;
  if (options.async_replies) writer.emplace(out);
  const auto emit = [&](std::string_view reply) {
    if (writer) {
      writer->push(reply);
    } else {
      write_frame(out, reply);
    }
  };
  // A malformed frame (truncated, or a length beyond the protocol cap)
  // desynchronizes the stream for good: end the session after a final
  // `err protocol` reply instead of letting the error escape the pump.
  std::string payload;
  const auto next_frame = [&]() -> bool {
    try {
      return read_frame(in, payload);
    } catch (const Error& error) {
      stats.protocol_error = error.what();
      return false;
    }
  };

  const auto session_over = [&session] {
    return session.closed() || session.resource_exhausted();
  };
  bool open = true;
  while (open && !session_over() && next_frame()) {
    std::uint64_t batch_frames = 0;
    while (true) {
      const auto start = std::chrono::steady_clock::now();
      const std::string_view reply = session.handle(payload);
      const auto elapsed = std::chrono::steady_clock::now() - start;
      stats.record_latency(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
      ++stats.requests;
      ++batch_frames;
      emit(reply);
      if (session_over() || batch_frames >= max_batch) break;
      // Drain whatever the client already buffered before blocking again —
      // a pipelined burst is solved back-to-back with one wakeup.
      if (in.rdbuf() == nullptr || in.rdbuf()->in_avail() <= 0) break;
      if (!next_frame()) {
        open = false;
        break;
      }
    }
    ++stats.batches;
    stats.max_batch_frames = std::max(stats.max_batch_frames, batch_frames);
    RETASK_RECORD("serve.batch_frames", batch_frames);
    if (!writer) out.flush();
  }
  if (!stats.protocol_error.empty()) {
    emit("err protocol " + stats.protocol_error);
  }

  if (writer) {
    if (const std::exception_ptr failure = writer->close()) std::rethrow_exception(failure);
  } else {
    out.flush();
  }
  return stats;
}

}  // namespace retask
