#include "service/daemon.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <list>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "core/error.hpp"
#include "service/protocol.hpp"

namespace photon {

namespace {

// Reads one '\n'-terminated line. False on EOF/error before any byte of a
// line arrives; a final unterminated line is served (netcat -q style).
// Polls so a client that holds its connection open without sending cannot
// block the daemon's shutdown join — once `stop` is raised the read gives
// up at the next poll tick.
bool read_line(int fd, std::string& line, const std::atomic<bool>& stop) {
  line.clear();
  char c;
  for (;;) {
    pollfd pfd{fd, POLLIN, 0};
    const int ready = poll(&pfd, 1, 200);  // stop-flag poll cadence
    if (ready <= 0) {
      if (stop.load(std::memory_order_acquire)) return false;
      continue;
    }
    const ssize_t n = read(fd, &c, 1);
    if (n <= 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
  }
}

bool write_line(int fd, const std::string& response) {
  std::string out = response;
  out.push_back('\n');
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = write(fd, out.data() + off, out.size() - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string error_json(const std::string& message) {
  return "{\"error\": \"" + json_escape(message) + "\"}";
}

std::string handle_request(PhotonService& service, const Request& req, bool& shutdown_seen) {
  try {
    switch (req.kind) {
      case Request::Kind::kSubmit: {
        const std::uint64_t id = service.submit(job_spec_from_request(req));
        return "{\"job\": " + std::to_string(id) + ", \"state\": \"queued\"}";
      }
      case Request::Kind::kStatus: {
        const auto it = req.kv.find("job");
        if (it != req.kv.end()) {
          return job_info_json(service.status(std::stoull(it->second)));
        }
        std::string out = "{\"jobs\": [";
        bool first = true;
        for (const JobInfo& info : service.jobs()) {
          if (!first) out += ", ";
          out += job_info_json(info);
          first = false;
        }
        return out + "]}";
      }
      case Request::Kind::kWait:
        return job_info_json(service.wait(std::stoull(req.kv.at("job"))));
      case Request::Kind::kCancel: {
        const bool cancelled = service.cancel(std::stoull(req.kv.at("job")));
        return "{\"job\": " + req.kv.at("job") +
               ", \"cancelled\": " + (cancelled ? "true" : "false") + "}";
      }
      case Request::Kind::kPing:
        return "{\"ok\": true}";
      case Request::Kind::kShutdown:
        shutdown_seen = true;
        return "{\"ok\": true}";
      case Request::Kind::kBad:
        return error_json(req.error);
    }
  } catch (const EngineError& e) {
    return error_json(e.what());
  } catch (const std::exception& e) {  // std::stoull on a mangled id
    return error_json(std::string("bad request: ") + e.what());
  }
  return error_json("unhandled request");
}

}  // namespace

bool run_daemon(PhotonService& service, const std::string& socket_path,
                const std::function<bool()>& should_stop) {
  const int listener = socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "service: cannot create socket: %s\n", std::strerror(errno));
    return false;
  }

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "service: socket path too long: %s\n", socket_path.c_str());
    close(listener);
    return false;
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);

  unlink(socket_path.c_str());  // a stale socket from a dead daemon
  if (bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listener, 16) != 0) {
    std::fprintf(stderr, "service: cannot bind/listen on '%s': %s\n", socket_path.c_str(),
                 std::strerror(errno));
    close(listener);
    return false;
  }

  // shutdown_flag is written by connection threads (the `shutdown` request)
  // and read by the accept loop. Each connection thread raises its `closed`
  // flag as its last act; the loop joins and drops closed connections at the
  // top of every iteration, so the daemon holds threads (and their stacks)
  // only for open connections plus those closed within the last poll tick.
  // Threads are joined, never detached: they reference this frame.
  std::atomic<bool> shutdown_flag{false};
  struct Connection {
    std::thread thread;
    std::atomic<bool> closed{false};
  };
  std::list<Connection> connections;  // stable addresses for `closed`

  while (!should_stop() && !shutdown_flag.load(std::memory_order_acquire)) {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->closed.load(std::memory_order_acquire)) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
    pollfd pfd{listener, POLLIN, 0};
    const int ready = poll(&pfd, 1, 200);  // stop-flag poll cadence
    if (ready <= 0) continue;
    const int client = accept(listener, nullptr, nullptr);
    if (client < 0) continue;

    Connection& conn = connections.emplace_back();
    conn.thread = std::thread([&service, &shutdown_flag, &closed = conn.closed, client] {
      std::string line;
      while (read_line(client, line, shutdown_flag)) {
        if (line.empty()) continue;
        bool shutdown_seen = false;
        const std::string response = handle_request(service, parse_request(line), shutdown_seen);
        if (!write_line(client, response)) break;
        if (shutdown_seen) {
          shutdown_flag.store(true, std::memory_order_release);
          break;
        }
      }
      close(client);
      closed.store(true, std::memory_order_release);
    });
  }

  close(listener);
  // Raise the flag even when the exit came from should_stop() (a signal),
  // so connection threads parked in read_line on idle clients wake up.
  shutdown_flag.store(true, std::memory_order_release);
  // Stop the service FIRST: a connection thread blocked in wait() only
  // returns once its job reaches a terminal state, which shutdown() forces
  // by preempting every active job.
  service.shutdown();
  for (Connection& conn : connections) conn.thread.join();
  unlink(socket_path.c_str());
  return true;
}

}  // namespace photon
