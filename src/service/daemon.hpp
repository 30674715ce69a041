// The AF_UNIX front door of the photon service: accepts local connections on
// a socket path and speaks the line protocol (service/protocol.hpp). One
// thread per connection — `wait` blocks its own client, never the accept
// loop or another client's `status`. The accept loop joins a connection's
// thread within one poll tick of the connection closing, so the daemon holds
// threads only for its open connections.
#pragma once

#include <functional>
#include <string>

#include "service/service.hpp"

namespace photon {

// Serves `service` on `socket_path` until should_stop() returns true or a
// client sends `shutdown`. Removes a stale socket file at the path before
// binding and removes its own on exit. Returns false when the socket cannot
// be set up (diagnostic on stderr); true after a clean stop.
//
// should_stop is polled a few times per second from the accept loop — the
// CLI passes the process preempt flag so SIGTERM stops the daemon, which
// then preempts every active job via PhotonService::shutdown() (the caller's
// responsibility, typically via the service's destructor).
bool run_daemon(PhotonService& service, const std::string& socket_path,
                const std::function<bool()>& should_stop);

}  // namespace photon
