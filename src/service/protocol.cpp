#include "service/protocol.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/error.hpp"

namespace photon {

namespace {

// Keys a submit request may carry; anything else is rejected up front so a
// typo (photon=) errors instead of silently running the default.
bool known_submit_key(const std::string& key) {
  return key == "scene" || key == "backend" || key == "photons" || key == "seed" ||
         key == "workers" || key == "groups" || key == "batch" || key == "chunk" ||
         key == "accel" || key == "checkpoint" || key == "trace";
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  if (value.empty()) throw ConfigError(key + " needs a value");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
  if (errno != 0 || end == value.c_str() || *end != '\0' || value[0] == '-') {
    throw ConfigError("bad " + key + " '" + value + "' (want an unsigned integer)");
  }
  return static_cast<std::uint64_t>(v);
}

}  // namespace

Request parse_request(const std::string& line) {
  Request req;
  std::istringstream in(line);
  std::string verb;
  if (!(in >> verb)) {
    req.error = "empty request";
    return req;
  }

  if (verb == "submit") req.kind = Request::Kind::kSubmit;
  else if (verb == "status") req.kind = Request::Kind::kStatus;
  else if (verb == "wait") req.kind = Request::Kind::kWait;
  else if (verb == "cancel") req.kind = Request::Kind::kCancel;
  else if (verb == "ping") req.kind = Request::Kind::kPing;
  else if (verb == "shutdown") req.kind = Request::Kind::kShutdown;
  else {
    req.error = "unknown request '" + verb + "'";
    return req;
  }

  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      req.kind = Request::Kind::kBad;
      req.error = "bad argument '" + token + "' (want key=value)";
      return req;
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    const bool ok = req.kind == Request::Kind::kSubmit ? known_submit_key(key)
                    : (req.kind == Request::Kind::kStatus || req.kind == Request::Kind::kWait ||
                       req.kind == Request::Kind::kCancel)
                        ? key == "job"
                        : false;
    if (!ok) {
      req.kind = Request::Kind::kBad;
      req.error = "unknown key '" + key + "' for '" + verb + "'";
      return req;
    }
    if (!req.kv.emplace(key, value).second) {
      req.kind = Request::Kind::kBad;
      req.error = "duplicate key '" + key + "'";
      return req;
    }
  }

  if (req.kind == Request::Kind::kSubmit && req.kv.find("scene") == req.kv.end()) {
    req.kind = Request::Kind::kBad;
    req.error = "submit needs scene=<name>";
  }
  if ((req.kind == Request::Kind::kWait || req.kind == Request::Kind::kCancel) &&
      req.kv.find("job") == req.kv.end()) {
    req.kind = Request::Kind::kBad;
    req.error = std::string(verb) + " needs job=<id>";
  }
  return req;
}

JobSpec job_spec_from_request(const Request& request) {
  JobSpec spec;
  for (const auto& [key, value] : request.kv) {
    if (key == "scene") {
      spec.scene = value;
    } else if (key == "backend") {
      spec.backend = value;
    } else if (key == "photons") {
      spec.config.photons = parse_u64(key, value);
    } else if (key == "seed") {
      spec.config.seed = parse_u64(key, value);
    } else if (key == "workers") {
      spec.config.workers = static_cast<int>(parse_u64(key, value));
    } else if (key == "groups") {
      spec.config.groups = static_cast<int>(parse_u64(key, value));
    } else if (key == "batch") {
      spec.config.batch = parse_u64(key, value);
    } else if (key == "chunk") {
      spec.config.chunk = parse_u64(key, value);
    } else if (key == "accel") {
      spec.accel = parse_accel_kind(value);
    } else if (key == "checkpoint") {
      spec.checkpoint_path = value;
    } else if (key == "trace") {
      spec.config.trace_path = value;
    }
  }
  return spec;
}

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char ch : raw) {
    const unsigned char c = static_cast<unsigned char>(ch);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

std::string job_info_json(const JobInfo& info) {
  // A stream, not a fixed snprintf buffer: error strings (paths, diagnostics)
  // have no length bound and a truncated response would be invalid JSON.
  std::ostringstream out;
  char num[64];
  out << "{\"job\": " << info.id << ", \"state\": \"" << job_state_name(info.state)
      << "\", \"scene\": \"" << json_escape(info.scene) << "\", \"backend\": \""
      << json_escape(info.backend) << "\", \"photons_requested\": " << info.photons_requested
      << ", \"emitted\": " << info.emitted << ", \"bounces\": " << info.bounces;
  std::snprintf(num, sizeof num, "%.6f", info.wall_s);
  out << ", \"wall_s\": " << num;
  std::snprintf(num, sizeof num, "%.1f", info.rate);
  out << ", \"photons_per_sec\": " << num;
  out << ", \"progress_ticks\": " << info.progress_ticks
      << ", \"estimated_bytes\": " << info.estimated_bytes << ", \"error\": \""
      << json_escape(info.error) << "\"}";
  return out.str();
}

}  // namespace photon
