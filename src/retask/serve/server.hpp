// Serve-mode session state machine and the framed request pump.
//
// Request grammar (one ASCII line per frame; fields separated by spaces):
//
//   admit <id> <cycles> <penalty>   admit a task; answers the verdict
//   remove <id>                     drop a resident task
//   reprice <id> <penalty>          replace a resident task's penalty
//   query                           current solution summary
//   stats                           session counters
//   ping                            liveness probe
//   bye                             reply, then end the session
//
// Replies are one line per request, in request order:
//
//   ok admit id=7 verdict=accept accepted=3/4 load=120 speed=0.61803
//      energy=1.2345 penalty=0.5 objective=1.7345 path=delta
//   err <reason>
//
// verdict reflects the admitted/repriced task itself; accepted/load/speed/
// energy/penalty/objective describe the optimal solution over the whole
// resident set (admitting one task may evict another — the solver re-solves
// exactly, it does not patch greedily). path says whether the request was
// served by the incremental table (delta) or forced a full refill (cold).
// A malformed or rejected request answers `err` and leaves the resident set
// untouched; the session keeps serving. A malformed *frame* (truncated, or a
// length prefix beyond the protocol cap) desynchronizes the byte stream, so
// it ends the session instead, after a final `err protocol <reason>` reply.
// An allocation failure inside a request (a table grow the process cannot
// back) may leave the resident set half updated, so it too ends the
// session, after a final `err resource <reason>` reply.
//
// run_serve_loop pumps frames between two streams: requests are drained in
// batches (everything already buffered is processed back-to-back before the
// next blocking read), and replies are handed to a writer thread so frame
// encoding and flushing overlap the next request's solve. Replies stay in
// request order. Reply buffers are recycled between the two sides, so the
// steady-state pump allocates nothing.
#ifndef RETASK_SERVE_SERVER_HPP
#define RETASK_SERVE_SERVER_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "retask/serve/delta_solver.hpp"

namespace retask {

/// Session-level options.
struct ServeOptions {
  /// Significant digits of floating-point reply fields. 17 round-trips
  /// doubles exactly; the CI golden-transcript smoke uses a lower precision
  /// so the transcript is stable across libm implementations.
  int reply_precision = 17;
  DeltaSolver::Config solver;
};

/// One serve session: a DeltaSolver plus the request-line protocol over it.
/// Not thread-safe; one session per client.
class ServeSession {
 public:
  ServeSession(EnergyCurve curve, double work_per_cycle, ServeOptions options = {});

  /// Handles one request payload and returns the reply payload. The view
  /// aliases an internal buffer reused by the next call.
  std::string_view handle(std::string_view request);

  const DeltaSolver& solver() const { return solver_; }
  std::uint64_t requests() const { return requests_; }
  /// True once a `bye` request was answered; the pump stops reading.
  bool closed() const { return closed_; }
  /// True once a request failed to allocate and was answered `err
  /// resource ...`; the session answers nothing more (its resident set may
  /// be half updated) and the pump stops reading.
  bool resource_exhausted() const { return resource_exhausted_; }

 private:
  void append_double(double value);
  void append_solution_summary();

  DeltaSolver solver_;
  ServeOptions options_;
  std::string reply_;
  std::uint64_t requests_ = 0;
  bool closed_ = false;
  bool resource_exhausted_ = false;
};

/// Pump outcome plus a log2(ns) latency histogram over per-request handle
/// times (bucket b counts requests with latency in [2^b, 2^(b+1)) ns).
struct ServeLoopStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  std::uint64_t max_batch_frames = 0;
  /// Why the session ended on a malformed frame (truncated, or a length
  /// beyond kMaxFramePayload); empty after a clean end of stream or `bye`.
  std::string protocol_error;
  std::array<std::uint64_t, 40> latency_ns_log2{};

  void record_latency(std::uint64_t ns);
  /// Upper edge of the bucket containing the p-th percentile request
  /// (p in (0, 1]); 0 when no requests were recorded.
  std::uint64_t latency_percentile_ns(double p) const;
};

struct ServeLoopOptions {
  /// Frames processed back-to-back per wakeup before replies must drain.
  std::size_t max_batch = 64;
  /// Drain replies on a writer thread (the stdin-pipe daemon). Off writes
  /// replies inline — deterministic interleaving for tests and sockets.
  bool async_replies = true;
};

/// Reads framed requests from `in` until end of stream, a `bye` reply, an
/// `err resource` reply or a malformed frame, answering each through
/// `session` onto `out`. A malformed frame ends the session with a final
/// `err protocol <reason>` reply and stats.protocol_error set; it is not
/// thrown. Returns the pump stats. Rethrows a reply write failure once the
/// writer thread is joined.
ServeLoopStats run_serve_loop(std::istream& in, std::ostream& out, ServeSession& session,
                              const ServeLoopOptions& options = {});

}  // namespace retask

#endif  // RETASK_SERVE_SERVER_HPP
