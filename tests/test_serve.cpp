// Serve mode: the length-prefixed frame protocol, the request-line grammar
// over ServeSession, the run_serve_loop pump (sync and async reply
// draining, malformed-frame shutdown) end-to-end over string streams, and
// the retask_serve binary's exit status, pipe batching and socket-client
// isolation.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifdef __unix__
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#endif

#include <gtest/gtest.h>

#include "retask/common/error.hpp"
#include "retask/power/polynomial_power.hpp"
#include "retask/serve/protocol.hpp"
#include "retask/serve/server.hpp"

namespace retask {
namespace {

constexpr double kWpc = 1.0 / 200.0;  // 200 cycles fit at top speed

ServeSession make_session(int reply_precision = 17) {
  EnergyCurve curve(PolynomialPowerModel::xscale(), 1.0, IdleDiscipline::kDormantEnable);
  ServeOptions options;
  options.reply_precision = reply_precision;
  return ServeSession(std::move(curve), kWpc, options);
}

TEST(FrameProtocol, RoundTripsPayloads) {
  std::stringstream stream;
  const std::vector<std::string> payloads = {"", "admit 1 100 2.5", std::string(4096, 'x')};
  for (const std::string& payload : payloads) write_frame(stream, payload);
  std::string read;
  for (const std::string& expected : payloads) {
    ASSERT_TRUE(read_frame(stream, read));
    EXPECT_EQ(read, expected);
  }
  EXPECT_FALSE(read_frame(stream, read));  // clean end of stream
}

TEST(FrameProtocol, RejectsTruncatedAndOversizeFrames) {
  {
    std::stringstream stream;
    stream.write("\x05\x00", 2);  // half a header
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    stream.write("\x05\x00\x00\x00" "abc", 7);  // header promises 5, carries 3
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    stream.write("\xff\xff\xff\xff", 4);  // 4 GiB length field
    std::string read;
    EXPECT_THROW(read_frame(stream, read), Error);
  }
  {
    std::stringstream stream;
    EXPECT_THROW(write_frame(stream, std::string(kMaxFramePayload + 1, 'x')), Error);
  }
}

TEST(ServeSession, AnswersTheRequestGrammar) {
  ServeSession session = make_session();
  EXPECT_EQ(session.handle("ping"), "ok ping");

  const std::string admit(session.handle("admit 1 100 2.5"));
  EXPECT_TRUE(admit.rfind("ok admit id=1 verdict=accept accepted=1/1 load=100 ", 0) == 0)
      << admit;
  EXPECT_NE(admit.find(" path=delta"), std::string::npos) << admit;

  // Infeasible task: admitted into the resident set but rejected.
  const std::string reject(session.handle("admit 2 100000 0.5"));
  EXPECT_TRUE(reject.rfind("ok admit id=2 verdict=reject accepted=1/2 ", 0) == 0) << reject;

  const std::string query(session.handle("query"));
  EXPECT_TRUE(query.rfind("ok query resident=2 accepted=1/2 ", 0) == 0) << query;

  const std::string remove(session.handle("remove 2"));
  EXPECT_TRUE(remove.rfind("ok remove id=2 accepted=1/1 ", 0) == 0) << remove;

  const std::string reprice(session.handle("reprice 1 9.0"));
  EXPECT_TRUE(reprice.rfind("ok reprice id=1 verdict=accept ", 0) == 0) << reprice;

  const std::string stats(session.handle("stats"));
  EXPECT_TRUE(stats.rfind("ok stats requests=", 0) == 0) << stats;
  EXPECT_NE(stats.find(" resident=1 "), std::string::npos) << stats;

  EXPECT_FALSE(session.closed());
  EXPECT_EQ(session.handle("bye"), "ok bye");
  EXPECT_TRUE(session.closed());
}

TEST(ServeSession, MalformedRequestsAnswerErrAndLeaveStateUntouched) {
  ServeSession session = make_session();
  session.handle("admit 1 100 2.5");
  const std::vector<std::string> bad = {
      "",                       // empty frame
      "warble",                 // unknown command
      "admit",                  // missing fields
      "admit x 100 2.5",        // non-numeric id
      "admit 2 100 nan",        // non-finite penalty
      "admit 2 100 2.5 extra",  // trailing junk
      "admit 1 50 1.0",         // duplicate id (solver error)
      "remove 99",              // unknown id (solver error)
      "reprice 99 1.0",         // unknown id (solver error)
      "query extra",
  };
  for (const std::string& request : bad) {
    const std::string reply(session.handle(request));
    EXPECT_TRUE(reply.rfind("err ", 0) == 0) << request << " -> " << reply;
  }
  // The resident set survived every failure.
  const std::string query(session.handle("query"));
  EXPECT_TRUE(query.rfind("ok query resident=1 accepted=1/1 ", 0) == 0) << query;
}

TEST(ServeSession, AdmitsThatWouldOverflowTheResidentTotalsAreRefused) {
  // Each task is valid alone; together their cycle or penalty totals would
  // wrap (an int64 cycle sum) or reach +inf (a double penalty sum, which no
  // exact solve can select over). The refusal must come before the
  // resident set changes, like every other `err` reply.
  ServeSession session = make_session();
  const auto reply = [&session](std::string_view request) {
    return std::string(session.handle(request));
  };
  EXPECT_TRUE(reply("admit 1 50 1e308").rfind("ok admit id=1 ", 0) == 0);
  EXPECT_TRUE(reply("admit 2 4611686018427387904 1").rfind("ok admit id=2 ", 0) == 0);
  EXPECT_EQ(reply("admit 3 4611686018427387904 1"),
            "err DeltaSolver::admit: resident cycle total would overflow");
  EXPECT_EQ(reply("admit 4 60 1e308"),
            "err DeltaSolver::admit: resident penalty total would overflow");
  EXPECT_EQ(reply("reprice 2 1e308"),
            "err DeltaSolver::reprice: resident penalty total would overflow");
  EXPECT_TRUE(reply("query").rfind("ok query resident=2 accepted=1/2 ", 0) == 0);
  EXPECT_TRUE(reply("reprice 2 2").rfind("ok reprice id=2 ", 0) == 0);
}

TEST(ServeSession, ReplyPrecisionBoundsFloatFields) {
  ServeSession session = make_session(5);
  const std::string reply(session.handle("admit 1 123 0.125"));
  // Every float field (speed/energy/penalty/objective) prints with at most
  // 5 significant digits: no field may carry a 17-digit tail.
  std::istringstream fields(reply);
  std::string field;
  while (fields >> field) {
    const std::size_t eq = field.find('=');
    if (eq == std::string::npos) continue;
    const std::string value = field.substr(eq + 1);
    std::size_t digits = 0;
    bool significant = false;
    for (const char ch : value) {
      if (ch == 'e') break;  // exponent digits don't count toward precision
      if (ch >= '1' && ch <= '9') significant = true;
      if (ch >= '0' && ch <= '9' && significant) ++digits;
    }
    EXPECT_LE(digits, 5u) << field << " in " << reply;
  }
}

void exercise_loop(bool async) {
  std::stringstream in, out;
  write_frame(in, "admit 1 100 2.5");
  write_frame(in, "admit 2 50 0.75");
  write_frame(in, "query");
  write_frame(in, "bye");
  write_frame(in, "ping");  // beyond bye: must never be answered

  ServeSession session = make_session();
  ServeLoopOptions options;
  options.async_replies = async;
  const ServeLoopStats stats = run_serve_loop(in, out, session, options);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_TRUE(session.closed());
  EXPECT_TRUE(stats.protocol_error.empty());

  std::vector<std::string> replies;
  std::string payload;
  while (read_frame(out, payload)) replies.push_back(payload);
  ASSERT_EQ(replies.size(), 4u);  // in request order, nothing past bye
  EXPECT_TRUE(replies[0].rfind("ok admit id=1 ", 0) == 0) << replies[0];
  EXPECT_TRUE(replies[1].rfind("ok admit id=2 ", 0) == 0) << replies[1];
  EXPECT_TRUE(replies[2].rfind("ok query ", 0) == 0) << replies[2];
  EXPECT_EQ(replies[3], "ok bye");
  EXPECT_GT(stats.latency_percentile_ns(0.99), 0u);
}

TEST(ServeLoop, PumpsFramesWithInlineReplies) { exercise_loop(false); }
TEST(ServeLoop, PumpsFramesWithAsyncWriterThread) { exercise_loop(true); }

std::vector<std::string> read_all_frames(std::istream& in) {
  std::vector<std::string> frames;
  std::string payload;
  while (read_frame(in, payload)) frames.push_back(payload);
  return frames;
}

// A malformed frame desynchronizes the stream: the pump must answer a final
// `err protocol` reply and return, in both reply modes — neither let the
// error escape (the inline mode) nor unwind past a joinable writer thread
// (std::terminate in the async mode).
void exercise_malformed_frame(bool async, const std::string& tail) {
  std::stringstream in, out;
  write_frame(in, "admit 1 100 2.5");
  in << tail;
  ServeSession session = make_session();
  ServeLoopOptions options;
  options.async_replies = async;
  ServeLoopStats stats;
  ASSERT_NO_THROW(stats = run_serve_loop(in, out, session, options));
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_FALSE(stats.protocol_error.empty());
  const std::vector<std::string> replies = read_all_frames(out);
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].rfind("ok admit id=1 ", 0) == 0) << replies[0];
  EXPECT_TRUE(replies[1].rfind("err protocol ", 0) == 0) << replies[1];
}

const std::string kTruncatedPayload("\x05\x00\x00\x00" "ab", 6);
const std::string kOversizedLength("\xff\xff\xff\xff", 4);

TEST(ServeLoop, TruncatedFrameEndsSessionInline) {
  exercise_malformed_frame(false, kTruncatedPayload);
}
TEST(ServeLoop, TruncatedFrameEndsSessionAsync) {
  exercise_malformed_frame(true, kTruncatedPayload);
}
TEST(ServeLoop, OversizedFrameEndsSessionInline) {
  exercise_malformed_frame(false, kOversizedLength);
}
TEST(ServeLoop, OversizedFrameEndsSessionAsync) {
  exercise_malformed_frame(true, kOversizedLength);
}
TEST(ServeLoop, HalfHeaderEndsSessionAsync) {
  exercise_malformed_frame(true, std::string("\x05\x00", 2));
}

TEST(ServeLoop, AsyncWriteFailureIsRethrownAfterTheWriterJoins) {
  std::stringstream in;
  write_frame(in, "ping");
  write_frame(in, "ping");
  std::ostringstream out;
  out.setstate(std::ios::badbit);  // every reply write fails
  ServeSession session = make_session();
  EXPECT_THROW(run_serve_loop(in, out, session), Error);
}

#if defined(RETASK_SERVE_BINARY) && defined(__unix__)
// The daemon binary itself, driven through a shell: exit status, error
// class and the pipe-mode pump batching.
struct DaemonRun {
  int status = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(file), std::istreambuf_iterator<char>());
}

/// Runs `retask_serve <flags>` on `input`, fed through a pipe (`cat |`)
/// when `piped`, else redirected from a file.
DaemonRun run_daemon(const std::string& flags, const std::string& input, bool piped) {
  const std::string base = ::testing::TempDir() + "retask_serve_" + std::to_string(::getpid());
  {
    std::ofstream file(base + ".in", std::ios::binary);
    file << input;
  }
  const std::string daemon = std::string(RETASK_SERVE_BINARY) + " " + flags;
  const std::string command = (piped ? "cat '" + base + ".in' | " + daemon
                                     : daemon + " < '" + base + ".in'") +
                              " > '" + base + ".out' 2> '" + base + ".err'";
  const int raw = std::system(command.c_str());
  DaemonRun run;
  if (WIFEXITED(raw)) run.status = WEXITSTATUS(raw);
  if (WIFSIGNALED(raw)) run.status = 128 + WTERMSIG(raw);
  run.out = slurp(base + ".out");
  run.err = slurp(base + ".err");
  for (const char* ext : {".in", ".out", ".err"}) std::remove((base + ext).c_str());
  return run;
}

std::string frames_of(const std::vector<std::string>& requests) {
  std::ostringstream out;
  for (const std::string& request : requests) write_frame(out, request);
  return out.str();
}

TEST(ServeDaemon, MalformedFrameExitsWithProtocolStatusNotUsage) {
  const std::string input = frames_of({"admit 1 100 2.5"}) + kTruncatedPayload;
  for (const char* flags : {"", "--sync"}) {
    const DaemonRun run = run_daemon(flags, input, false);
    EXPECT_EQ(run.status, 3) << flags << ": " << run.err;
    EXPECT_EQ(run.err.find("usage"), std::string::npos) << flags << ": " << run.err;
    std::istringstream out(run.out);
    const std::vector<std::string> replies = read_all_frames(out);
    ASSERT_EQ(replies.size(), 2u) << flags;
    EXPECT_TRUE(replies[0].rfind("ok admit id=1 ", 0) == 0) << replies[0];
    EXPECT_TRUE(replies[1].rfind("err protocol ", 0) == 0) << replies[1];
  }
}

TEST(ServeDaemon, BadFlagStillExitsTwoWithUsage) {
  const DaemonRun run = run_daemon("--model no-such-model", "", false);
  EXPECT_EQ(run.status, 2);
  EXPECT_NE(run.err.find("usage"), std::string::npos) << run.err;
}

TEST(ServeDaemon, PipedBurstIsPumpedInBatchesWithIdenticalReplies) {
  std::vector<std::string> requests;
  for (int id = 1; id <= 160; ++id) {
    requests.push_back("admit " + std::to_string(id) + " " + std::to_string(5 + id % 23) + " " +
                       std::to_string(0.25 * (id % 7)));
  }
  for (int id = 1; id <= 60; ++id) {
    requests.push_back(id % 3 == 0 ? "query" : "remove " + std::to_string(2 * id));
  }
  const std::string input = frames_of(requests);
  const DaemonRun batched = run_daemon("--stats", input, true);
  ASSERT_EQ(batched.status, 0) << batched.err;
  const std::size_t at = batched.err.find("max_batch=");
  ASSERT_NE(at, std::string::npos) << batched.err;
  EXPECT_GT(std::stoul(batched.err.substr(at + 10)), 1u) << batched.err;

  // Batching changes when frames are read, never what is answered.
  const DaemonRun serial = run_daemon("--max-batch 1", input, false);
  ASSERT_EQ(serial.status, 0) << serial.err;
  EXPECT_EQ(batched.out, serial.out);
  std::istringstream out(batched.out);
  EXPECT_EQ(read_all_frames(out).size(), requests.size());
}

/// Connects to the daemon's socket, retrying while it starts up; -1 once
/// `seconds` pass without a listener.
int connect_client(const std::string& path, double seconds) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) return fd;
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return -1;
}

bool write_all(int fd, const std::string& bytes) {
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done, MSG_NOSIGNAL);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one reply frame from `fd` (empty on EOF, error or timeout).
std::string read_reply(int fd) {
  const auto read_exact = [fd](char* dst, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
      const ssize_t n = ::read(fd, dst + done, size - done);
      if (n <= 0) return false;
      done += static_cast<std::size_t>(n);
    }
    return true;
  };
  unsigned char header[4];
  if (!read_exact(reinterpret_cast<char*>(header), 4)) return {};
  const std::size_t length = header[0] | (header[1] << 8) | (header[2] << 16) |
                             (static_cast<std::size_t>(header[3]) << 24);
  if (length > 4096) return {};
  std::string payload(length, '\0');
  if (!read_exact(payload.data(), length)) return {};
  return payload;
}

/// Waits up to `seconds` for `pid` to exit (killing it past the deadline)
/// and returns its raw wait status.
int reap(pid_t pid, double seconds) {
  int status = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::duration<double>(seconds);
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return status;
}

TEST(ServeDaemon, SocketClientThatVanishesDoesNotStopTheDaemon) {
  const std::string base = ::testing::TempDir() + "retask_sock_" + std::to_string(::getpid());
  const std::string path = base + ".sock";
  const std::string err_path = base + ".err";
  const pid_t daemon = ::fork();
  ASSERT_GE(daemon, 0);
  if (daemon == 0) {
    std::FILE* err = std::freopen(err_path.c_str(), "w", stderr);
    (void)err;
    ::execl(RETASK_SERVE_BINARY, RETASK_SERVE_BINARY, "--socket", path.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Client 1 pipelines a burst and closes without reading a reply, so the
  // daemon's reply writes hit a closed socket.
  const int first = connect_client(path, 10.0);
  EXPECT_GE(first, 0);
  if (first >= 0) {
    std::vector<std::string> burst;
    for (int id = 1; id <= 400; ++id) {
      burst.push_back("admit " + std::to_string(id) + " " + std::to_string(3 + id % 11) + " 0.5");
    }
    EXPECT_TRUE(write_all(first, frames_of(burst)));
    ::close(first);
  }

  // Client 2 is still served.
  const int second = connect_client(path, 10.0);
  std::string reply;
  if (second >= 0) {
    timeval timeout{10, 0};
    ::setsockopt(second, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    EXPECT_TRUE(write_all(second, frames_of({"ping", "bye"})));
    reply = read_reply(second);
    ::close(second);
  }
  EXPECT_EQ(reply, "ok ping");

  // `bye` shuts the daemon down; reap it (or kill it if it hangs).
  const int status = reap(daemon, 10.0);
  const std::string err = slurp(err_path);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status << ": " << err;
  EXPECT_NE(err.find("serve: client dropped: "), std::string::npos) << err;
  std::remove(err_path.c_str());
  std::remove(path.c_str());
}

// An allocation failure mid-request (here a table grow past the address
// space limit) ends only its session, with a final `err resource` reply:
// the pipe daemon exits 1 without aborting, and the socket daemon drops
// that client and serves the next. Sanitizer runtimes reserve far more
// address space than any limit that keeps this test fast, so it is skipped
// there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RETASK_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RETASK_TEST_SANITIZED 1
#endif
#endif

/// Address-space limit for the daemons below: room for a session at
/// --capacity 1000000 (two 8 MB rows) and a few hundred admissions, not for
/// the ~2000 the input asks for.
constexpr rlim_t kDaemonAddressSpace = rlim_t{192} << 20;
const char* const kLargeCapacity = "1000000";

std::vector<std::string> growing_admits(int count) {
  std::vector<std::string> requests;
  for (int id = 1; id <= count; ++id) {
    requests.push_back("admit " + std::to_string(id) + " " +
                       std::to_string(1000 + (id * 7919) % 50000) + " " +
                       std::to_string(0.5 + 0.25 * (id % 13)));
  }
  return requests;
}

/// Forks `retask_serve <args>` under the address-space limit with stdin,
/// stdout and stderr redirected to the given files ("" keeps the parent's).
pid_t spawn_limited_daemon(const std::vector<std::string>& args, const std::string& in_path,
                           const std::string& out_path, const std::string& err_path) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const auto redirect = [](const std::string& path, int flags, int fd) {
    if (path.empty()) return;
    const int opened = ::open(path.c_str(), flags, 0644);
    if (opened < 0 || ::dup2(opened, fd) < 0) ::_exit(126);
    ::close(opened);
  };
  redirect(in_path, O_RDONLY, 0);
  redirect(out_path, O_WRONLY | O_CREAT | O_TRUNC, 1);
  redirect(err_path, O_WRONLY | O_CREAT | O_TRUNC, 2);
  const rlimit limit{kDaemonAddressSpace, kDaemonAddressSpace};
  if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(125);
  std::vector<char*> argv{const_cast<char*>(RETASK_SERVE_BINARY)};
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  ::execv(RETASK_SERVE_BINARY, argv.data());
  ::_exit(127);
}

TEST(ServeDaemon, OutOfMemoryEndsThePipeSessionWithAResourceReply) {
#ifdef RETASK_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes need more address space than the limit allows";
#endif
  const std::string base = ::testing::TempDir() + "retask_oom_" + std::to_string(::getpid());
  {
    std::ofstream file(base + ".in", std::ios::binary);
    file << frames_of(growing_admits(2000));
  }
  for (const std::string mode : {"", "--sync"}) {
    SCOPED_TRACE("mode '" + mode + "'");
    std::vector<std::string> args{"--capacity", kLargeCapacity};
    if (!mode.empty()) args.push_back(mode);
    const pid_t daemon = spawn_limited_daemon(args, base + ".in", base + ".out", base + ".err");
    ASSERT_GE(daemon, 0);
    const int status = reap(daemon, 60.0);
    const std::string err = slurp(base + ".err");
    ASSERT_TRUE(WIFEXITED(status)) << "status " << status << ": " << err;
    EXPECT_EQ(WEXITSTATUS(status), 1) << err;
    EXPECT_NE(err.find("out of memory"), std::string::npos) << err;
    std::istringstream out(slurp(base + ".out"));
    const std::vector<std::string> replies = read_all_frames(out);
    ASSERT_GE(replies.size(), 2u);
    ASSERT_LT(replies.size(), 2000u) << "the limit never bit";
    for (std::size_t i = 0; i + 1 < replies.size(); ++i) {
      ASSERT_TRUE(replies[i].rfind("ok admit ", 0) == 0) << i << ": " << replies[i];
    }
    EXPECT_EQ(replies.back(), "err resource out of memory");
  }
  for (const char* ext : {".in", ".out", ".err"}) std::remove((base + ext).c_str());
}

TEST(ServeDaemon, OutOfMemoryDropsOnlyThatSocketClient) {
#ifdef RETASK_TEST_SANITIZED
  GTEST_SKIP() << "sanitizer runtimes need more address space than the limit allows";
#endif
  const std::string base = ::testing::TempDir() + "retask_oom_sock_" + std::to_string(::getpid());
  const std::string path = base + ".sock";
  const std::string err_path = base + ".err";
  const pid_t daemon =
      spawn_limited_daemon({"--socket", path, "--capacity", kLargeCapacity}, "", "", err_path);
  ASSERT_GE(daemon, 0);

  // Client 1 admits until the daemon answers `err resource`, then sees the
  // connection close.
  const int first = connect_client(path, 10.0);
  EXPECT_GE(first, 0);
  std::string last;
  if (first >= 0) {
    timeval timeout{30, 0};
    ::setsockopt(first, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    for (const std::string& request : growing_admits(2000)) {
      if (!write_all(first, frames_of({request}))) break;
      last = read_reply(first);
      if (last.rfind("ok admit ", 0) != 0) break;
    }
    EXPECT_EQ(read_reply(first), "");  // the daemon closed this connection
    ::close(first);
  }
  EXPECT_EQ(last, "err resource out of memory");

  // Client 2 gets a fresh session.
  const int second = connect_client(path, 10.0);
  std::string reply;
  if (second >= 0) {
    timeval timeout{10, 0};
    ::setsockopt(second, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    EXPECT_TRUE(write_all(second, frames_of({"admit 1 100 2.5", "bye"})));
    reply = read_reply(second);
    ::close(second);
  }
  EXPECT_TRUE(reply.rfind("ok admit id=1 ", 0) == 0) << reply;

  const int status = reap(daemon, 10.0);
  const std::string err = slurp(err_path);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << "status " << status << ": " << err;
  EXPECT_NE(err.find("serve: client dropped: out of memory"), std::string::npos) << err;
  std::remove(err_path.c_str());
  std::remove(path.c_str());
}
#endif

}  // namespace
}  // namespace retask
