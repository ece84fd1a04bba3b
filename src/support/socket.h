// Local stream-socket transport for the serving layer.
//
// LineReader (support/jsonl.h) already frames JSON lines over any file
// descriptor, so all a socket peer needs is the two endpoints this header
// supplies — a listening unix-domain server socket (UnixListener) and a
// connected, move-only stream (Socket) whose write_all reports a dead peer as
// a return value instead of raising SIGPIPE. Nothing here knows about the
// serve protocol; rumor_serve composes these with LineReader.
#pragma once

#include <string>

namespace rumor {

// A connected stream socket (or any byte-stream fd). Move-only; owns and
// closes the descriptor. Reading is done by handing fd() to a LineReader.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  ~Socket();

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  // Writes every byte of `data`. Returns false when the peer is gone
  // (EPIPE/ECONNRESET — a client that disconnected mid-response is load, not
  // a crash); throws std::runtime_error on any other error. Uses
  // MSG_NOSIGNAL, so a dead peer can never deliver SIGPIPE to the server.
  bool write_all(const std::string& data);

  // Half-closes both directions without releasing the fd: a reader blocked
  // on this socket in another thread wakes with EOF. Used for shutdown.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
};

// A listening unix-domain socket bound to a filesystem path. The constructor
// replaces any stale socket file at `path` (a previous daemon that died
// without unlinking must not block restarts) and throws std::runtime_error
// when the path is unbindable or longer than sockaddr_un allows; the
// destructor closes and unlinks. Not movable: the owning server holds it for
// its whole life.
class UnixListener {
 public:
  explicit UnixListener(const std::string& path);
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  const std::string& path() const { return path_; }
  int fd() const { return fd_; }

  // Blocks until a client connects, returning its stream. When wake_fd >= 0
  // the wait also watches that descriptor (the server's shutdown self-pipe)
  // and returns an invalid Socket as soon as it becomes readable.
  Socket accept_next(int wake_fd = -1);

 private:
  std::string path_;
  int fd_ = -1;
};

// Connects to a UnixListener's path. Throws std::runtime_error (naming the
// path and errno) when the daemon is not there.
Socket connect_unix(const std::string& path);

}  // namespace rumor
