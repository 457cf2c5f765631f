#include "serve_client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "retask/serve/protocol.hpp"

extern char** environ;

namespace perfbench {
namespace {

int remaining_ms(std::chrono::steady_clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  return left.count() > 0 ? static_cast<int>(left.count()) : 0;
}

}  // namespace

Child::Child(const std::string& binary, const std::vector<std::string>& args) {
  int in_pipe[2], out_pipe[2], err_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0 || ::pipe2(out_pipe, O_CLOEXEC) != 0 ||
      ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe2 failed");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_adddup2(&actions, err_pipe[1], 2);

  std::vector<std::string> argv_store{binary};
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int rc = ::posix_spawn(&pid_, binary.c_str(), &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  in_fd_ = in_pipe[1];
  out_fd_ = out_pipe[0];
  err_fd_ = err_pipe[0];
  if (rc != 0) {
    // The destructor does not run for a throwing constructor.
    ::close(in_fd_);
    ::close(out_fd_);
    ::close(err_fd_);
    throw std::runtime_error("cannot spawn '" + binary + "': " + std::strerror(rc));
  }
}

Child::~Child() {
  if (in_fd_ >= 0) ::close(in_fd_);
  if (out_fd_ >= 0) ::close(out_fd_);
  if (err_fd_ >= 0) ::close(err_fd_);
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

bool Child::write_all(std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(in_fd_, bytes.data(), bytes.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool Child::send_frame(std::string_view payload) {
  std::ostringstream frame;
  retask::write_frame(frame, payload);
  return write_all(frame.view());
}

bool Child::fill(double timeout_s) {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  // Spin on a non-blocking poll for up to 2 ms before sleeping, so the
  // reply timestamp does not carry this process's own wakeup latency.
  const auto spin_until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
  while (true) {
    pollfd p{out_fd_, POLLIN, 0};
    const bool spin = std::chrono::steady_clock::now() < spin_until;
    const int ready = ::poll(&p, 1, spin ? 0 : remaining_ms(deadline));
    if (ready == 0 && spin) continue;
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    char chunk[65536];
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

bool Child::read_frame(std::string& payload, double timeout_s) {
  while (buffer_.size() - pos_ < 4) {
    if (!fill(timeout_s)) return false;
  }
  std::uint32_t n = 0;
  for (int b = 0; b < 4; ++b) {
    n |= static_cast<std::uint32_t>(static_cast<unsigned char>(buffer_[pos_ + static_cast<std::size_t>(b)]))
         << (8 * b);
  }
  if (n > retask::kMaxFramePayload) return false;
  while (buffer_.size() - pos_ < 4 + n) {
    if (!fill(timeout_s)) return false;
  }
  payload.assign(buffer_, pos_ + 4, n);
  pos_ += 4 + n;
  return true;
}

bool Child::read_line(std::string& line, double timeout_s) {
  while (true) {
    const std::size_t eol = buffer_.find('\n', pos_);
    if (eol != std::string::npos) {
      line.assign(buffer_, pos_, eol - pos_);
      pos_ = eol + 1;
      return true;
    }
    if (!fill(timeout_s)) return false;
  }
}

void Child::kill() {
  if (pid_ > 0) ::kill(pid_, SIGKILL);
}

ChildExit Child::finish(double timeout_s) {
  ChildExit exit;
  if (in_fd_ >= 0) {
    ::close(in_fd_);
    in_fd_ = -1;
  }
  // Drain stdout and stderr until both close, so the child never blocks on
  // a full pipe while exiting.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (out_fd_ >= 0 || err_fd_ >= 0) {
    pollfd fds[2];
    nfds_t count = 0;
    int* owners[2];
    if (out_fd_ >= 0) {
      fds[count] = {out_fd_, POLLIN, 0};
      owners[count++] = &out_fd_;
    }
    if (err_fd_ >= 0) {
      fds[count] = {err_fd_, POLLIN, 0};
      owners[count++] = &err_fd_;
    }
    const int ready = ::poll(fds, count, remaining_ms(deadline));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) break;
    for (nfds_t i = 0; i < count; ++i) {
      if (fds[i].revents == 0) continue;
      char chunk[65536];
      const ssize_t n = ::read(fds[i].fd, chunk, sizeof chunk);
      if (n > 0) {
        if (owners[i] == &err_fd_) exit.stderr_text.append(chunk, static_cast<std::size_t>(n));
      } else if (!(n < 0 && errno == EINTR)) {
        ::close(*owners[i]);
        *owners[i] = -1;
      }
    }
  }
  if (pid_ > 0) {
    int status = 0;
    rusage usage{};
    pid_t reaped = 0;
    while (true) {
      reaped = ::wait4(pid_, &status, WNOHANG, &usage);
      if (reaped != 0 || remaining_ms(deadline) == 0) break;
      ::usleep(1000);
    }
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      reaped = ::wait4(pid_, &status, 0, &usage);
    }
    pid_ = -1;
    if (reaped > 0) {
      exit.status = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      exit.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    }
  }
  return exit;
}

}  // namespace perfbench
