// Client side of the retask_serve frame protocol: spawns the daemon as a
// child process with pipes on its stdin/stdout/stderr, sends request frames
// and reads reply frames in retask's frame format (serve/protocol.hpp). The
// child inherits the caller's environment.
#ifndef PERFBENCH_SERVE_CLIENT_HPP
#define PERFBENCH_SERVE_CLIENT_HPP

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Exit record of a finished child.
struct ChildExit {
  int status = -1;         ///< exit code, or -1 when killed by a signal
  double peak_rss_mb = 0;  ///< ru_maxrss of the child
  std::string stderr_text;
};

/// A spawned child with piped stdio. The destructor kills and reaps a
/// child that was not finished.
class Child {
 public:
  Child(const std::string& binary, const std::vector<std::string>& args);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Writes all of `bytes` to the child's stdin; false on a broken pipe.
  bool write_all(std::string_view bytes);
  /// Writes one frame (retask::write_frame).
  bool send_frame(std::string_view payload);
  /// Reads one frame from the child's stdout, waiting at most
  /// `timeout_s`; false on end of stream, timeout or a length prefix above
  /// retask::kMaxFramePayload.
  bool read_frame(std::string& payload, double timeout_s);
  /// Reads one line from the child's stdout (setup probes).
  bool read_line(std::string& line, double timeout_s);
  /// Sends SIGKILL (the child is reaped by finish() or the destructor).
  void kill();
  /// Closes stdin, drains stdout/stderr and reaps the child.
  ChildExit finish(double timeout_s = 30.0);

 private:
  bool fill(double timeout_s);

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_CLIENT_HPP
