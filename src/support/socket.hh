/**
 * @file
 * Minimal Unix-domain-socket plumbing for the compile service: RAII
 * file descriptors, a blocking listener, client connect, and whole-
 * buffer send/receive. Framing lives one layer up, in ServeStream
 * (pipeline/serve/stream.hh).
 *
 * All calls are blocking, retry on EINTR, and report failures as
 * errno strings through an out-parameter instead of throwing --
 * connection teardown is an ordinary event for a server, not an
 * exception. Sends use MSG_NOSIGNAL so a peer that vanished yields
 * EPIPE, not process death.
 */

#ifndef CAMS_SUPPORT_SOCKET_HH
#define CAMS_SUPPORT_SOCKET_HH

#include <string>

namespace cams
{

/** Owns one socket file descriptor; closes it on destruction. */
class SocketFd
{
  public:
    SocketFd() = default;
    explicit SocketFd(int fd) : fd_(fd) {}
    ~SocketFd() { close(); }

    SocketFd(SocketFd &&other) noexcept : fd_(other.fd_)
    {
        other.fd_ = -1;
    }
    SocketFd &operator=(SocketFd &&other) noexcept;
    SocketFd(const SocketFd &) = delete;
    SocketFd &operator=(const SocketFd &) = delete;

    int fd() const { return fd_; }
    bool valid() const { return fd_ >= 0; }

    /** Takes ownership away from this object. */
    int release();

    /** Closes the descriptor now (idempotent). */
    void close();

    /**
     * Shuts down both directions without closing, unblocking any
     * thread sitting in recv()/accept() on this descriptor. Safe to
     * call from another thread.
     */
    void shutdownBoth();

  private:
    int fd_ = -1;
};

/** Sends the whole buffer; false with @p error set on failure. */
bool sendAll(int fd, const void *data, size_t size, std::string &error);

/**
 * Receives exactly @p size bytes. Returns false on failure; a clean
 * peer close before the first byte sets @p cleanEof true (a close
 * mid-buffer is an error, not a clean EOF).
 */
bool recvAll(int fd, void *data, size_t size, std::string &error,
             bool *cleanEof = nullptr);

/**
 * recvAll() under a wall-clock deadline: the whole buffer must
 * arrive within @p timeoutMs or the call fails with @p timedOut set
 * (when given). The wait is poll()-based and EINTR-safe, so a peer
 * that dribbles bytes slower than the budget cannot pin the calling
 * thread. @p timeoutMs <= 0 degrades to plain recvAll().
 */
bool recvAllDeadline(int fd, void *data, size_t size, double timeoutMs,
                     std::string &error, bool *cleanEof = nullptr,
                     bool *timedOut = nullptr);

/** A bound, listening Unix-domain socket. */
class UnixListener
{
  public:
    UnixListener() = default;
    ~UnixListener();

    UnixListener(const UnixListener &) = delete;
    UnixListener &operator=(const UnixListener &) = delete;

    /**
     * Binds and listens on @p path, unlinking any stale socket file
     * first. Paths longer than sockaddr_un allows are rejected.
     */
    bool open(const std::string &path, std::string &error);

    /**
     * Accepts one connection (blocking). Returns a negative fd on
     * failure or after close() was called from another thread.
     */
    int acceptFd(std::string &error);

    /**
     * Unblocks acceptFd() for good and unlinks the socket file. The
     * descriptor stays open until close(), so another thread may
     * still be inside acceptFd() when this is called.
     */
    void shutdown();

    /** shutdown(), then closes the descriptor; call it only once no
     *  thread can be inside acceptFd(). */
    void close();

    bool valid() const { return fd_.valid(); }
    int fd() const { return fd_.fd(); }
    const std::string &path() const { return path_; }

  private:
    SocketFd fd_;
    std::string path_;
};

/** Connects to a Unix-domain socket; invalid SocketFd on failure. */
SocketFd connectUnix(const std::string &path, std::string &error);

} // namespace cams

#endif // CAMS_SUPPORT_SOCKET_HH
