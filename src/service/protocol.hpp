// The service wire protocol: newline-delimited text requests, one-line JSON
// responses — greppable with nc/socat, no framing library, and the JSON side
// reuses the CLI's --report=json field names so supervisors parse one shape.
//
// Requests (one per line; values must not contain spaces):
//
//   submit scene=<name> [backend=<b>] [photons=<n>] [seed=<n>] [workers=<n>]
//          [groups=<n>] [batch=<n>] [chunk=<n>] [accel=octree|grid]
//          [checkpoint=<path>] [trace=<path>]
//
// accel= defaults to octree (JobSpec::accel), not to the scene-size rule
// photon_cli applies: the daemon's traffic is the bundled scenes, which the
// rule gives the octree too.
//   status [job=<id>]
//   wait job=<id>
//   cancel job=<id>
//   ping
//   shutdown
//
// Responses: submit -> {"job": N, "state": "queued"}; status/wait -> the job
// JSON below (status without job= -> {"jobs": [...]}); cancel ->
// {"job": N, "cancelled": true|false}; ping/shutdown -> {"ok": true};
// any error -> {"error": "..."}.
#pragma once

#include <map>
#include <string>

#include "service/service.hpp"

namespace photon {

struct Request {
  enum class Kind { kSubmit, kStatus, kWait, kCancel, kPing, kShutdown, kBad };
  Kind kind = Kind::kBad;
  std::map<std::string, std::string> kv;
  std::string error;  // set when kind == kBad
};

// Parses one request line. Never throws: malformed input yields kBad with a
// diagnostic (the daemon answers it with an error response, not a dropped
// connection).
Request parse_request(const std::string& line);

// Builds the JobSpec a `submit` request describes. Throws ConfigError on bad
// values (non-numeric counts, unknown accel); the service's own submit()
// validates backend and ranges.
JobSpec job_spec_from_request(const Request& request);

// One job as a single JSON line:
//   {"job": 1, "state": "done", "scene": "cornell", "backend": "shared",
//    "photons_requested": 10000, "emitted": 10000, "bounces": 38000,
//    "wall_s": 0.12, "photons_per_sec": 83000.0, "progress_ticks": 5,
//    "estimated_bytes": 123456, "error": ""}
std::string job_info_json(const JobInfo& info);

// JSON string escaping shared by every response builder.
std::string json_escape(const std::string& raw);

}  // namespace photon
