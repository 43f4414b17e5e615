#include "dynsched/serve/request.hpp"

#include <iomanip>
#include <sstream>

#include "dynsched/lp/model.hpp"
#include "dynsched/util/error.hpp"
#include "dynsched/util/journal.hpp"

namespace dynsched::serve {

namespace {

void putJob(util::PayloadWriter& w, const core::Job& job) {
  w.i64(job.id);
  w.i64(job.submit);
  w.u32(static_cast<std::uint32_t>(job.width));
  w.i64(job.estimate);
  w.i64(job.actualRuntime);
}

core::Job takeJob(util::PayloadReader& r) {
  core::Job job;
  job.id = r.i64();
  job.submit = r.i64();
  job.width = static_cast<NodeCount>(r.u32());
  job.estimate = r.i64();
  job.actualRuntime = r.i64();
  return job;
}

/// The solve-relevant request fields in a canonical byte order — shared by
/// the wire encoding and the fingerprint so the two can never drift apart.
void putRequestBody(util::PayloadWriter& w, const ScheduleRequest& request) {
  w.u32(static_cast<std::uint32_t>(request.machine.nodes));
  w.i64(request.now);
  w.u32(static_cast<std::uint32_t>(request.history.size()));
  for (const core::MachineHistory::Entry& e : request.history) {
    w.i64(e.time);
    w.u32(static_cast<std::uint32_t>(e.freeNodes));
  }
  w.u32(static_cast<std::uint32_t>(request.jobs.size()));
  for (const core::Job& job : request.jobs) putJob(w, job);
  w.u8(static_cast<std::uint8_t>(request.metric));
  w.f64(request.wallSeconds);
  w.i64(request.maxNodes);
}

}  // namespace

std::string encodeScheduleRequest(const ScheduleRequest& request) {
  util::PayloadWriter w;
  w.u64(request.clientRequestId);
  putRequestBody(w, request);
  return w.bytes();
}

ScheduleRequest decodeScheduleRequest(std::string_view payload) {
  util::PayloadReader r(payload);
  ScheduleRequest request;
  request.clientRequestId = r.u64();
  request.machine.nodes = static_cast<NodeCount>(r.u32());
  request.now = r.i64();
  request.history.resize(r.u32());
  for (core::MachineHistory::Entry& e : request.history) {
    e.time = r.i64();
    e.freeNodes = static_cast<NodeCount>(r.u32());
  }
  request.jobs.resize(r.u32());
  for (core::Job& job : request.jobs) job = takeJob(r);
  const std::uint8_t metric = r.u8();
  DYNSCHED_CHECK_MSG(core::metricFromIndex(metric, request.metric),
                     "schedule request: bad metric byte "
                         << static_cast<int>(metric));
  request.wallSeconds = r.f64();
  request.maxNodes = static_cast<long>(r.i64());
  DYNSCHED_CHECK_MSG(r.atEnd(),
                     "schedule request: " << r.remaining()
                                          << " trailing bytes");
  return request;
}

std::uint64_t requestFingerprint(const ScheduleRequest& request) {
  util::PayloadWriter w;
  putRequestBody(w, request);
  return util::fnv1a64(w.bytes().data(), w.bytes().size());
}

const char* responseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::Ok: return "ok";
    case ResponseStatus::Overloaded: return "overloaded";
    case ResponseStatus::Draining: return "draining";
    case ResponseStatus::Malformed: return "malformed";
    case ResponseStatus::Error: return "error";
  }
  return "?";
}

bool responseStatusFromIndex(std::uint8_t index, ResponseStatus& status) {
  if (index >= static_cast<std::uint8_t>(kResponseStatuses)) return false;
  status = static_cast<ResponseStatus>(index);
  return true;
}

std::string encodeScheduleResponse(const ScheduleResponse& response) {
  util::PayloadWriter w;
  w.u64(response.clientRequestId);
  w.u64(response.fingerprint);
  w.u8(static_cast<std::uint8_t>(response.status));
  w.boolean(response.cached);
  w.str(response.message);
  w.u8(static_cast<std::uint8_t>(response.rung));
  w.u8(static_cast<std::uint8_t>(response.stopReason));
  w.f64(response.gap);
  w.i64(response.timeScale);
  w.u8(static_cast<std::uint8_t>(response.bestPolicy));
  w.f64(response.policyValue);
  w.f64(response.solvedValue);
  w.f64(response.seconds);
  w.str(response.provenance);
  w.u32(static_cast<std::uint32_t>(response.schedule.size()));
  for (const PlacedJob& placed : response.schedule) {
    w.i64(placed.id);
    w.i64(placed.start);
    w.i64(placed.duration);
  }
  return w.bytes();
}

ScheduleResponse decodeScheduleResponse(std::string_view payload) {
  util::PayloadReader r(payload);
  ScheduleResponse response;
  response.clientRequestId = r.u64();
  response.fingerprint = r.u64();
  const std::uint8_t status = r.u8();
  DYNSCHED_CHECK_MSG(responseStatusFromIndex(status, response.status),
                     "schedule response: bad status byte "
                         << static_cast<int>(status));
  response.cached = r.boolean();
  response.message = r.str();
  const std::uint8_t rung = r.u8();
  DYNSCHED_CHECK_MSG(tip::solveRungFromIndex(rung, response.rung),
                     "schedule response: bad rung byte "
                         << static_cast<int>(rung));
  const std::uint8_t stop = r.u8();
  DYNSCHED_CHECK_MSG(util::cancelReasonFromIndex(stop, response.stopReason),
                     "schedule response: bad stop-reason byte "
                         << static_cast<int>(stop));
  response.gap = r.f64();
  response.timeScale = r.i64();
  const std::uint8_t policy = r.u8();
  DYNSCHED_CHECK_MSG(core::policyFromIndex(policy, response.bestPolicy),
                     "schedule response: bad policy byte "
                         << static_cast<int>(policy));
  response.policyValue = r.f64();
  response.solvedValue = r.f64();
  response.seconds = r.f64();
  response.provenance = r.str();
  response.schedule.resize(r.u32());
  for (PlacedJob& placed : response.schedule) {
    placed.id = r.i64();
    placed.start = r.i64();
    placed.duration = r.i64();
  }
  DYNSCHED_CHECK_MSG(r.atEnd(),
                     "schedule response: " << r.remaining()
                                           << " trailing bytes");
  return response;
}

std::string canonicalResponseText(const ScheduleResponse& response) {
  std::ostringstream os;
  os << "fingerprint " << std::hex << std::setfill('0') << std::setw(16)
     << response.fingerprint << std::dec << std::setfill(' ') << '\n';
  os << "status " << responseStatusName(response.status) << '\n';
  if (!response.message.empty()) os << "message " << response.message << '\n';
  if (response.status != ResponseStatus::Ok) return os.str();
  os << "rung " << tip::solveRungName(response.rung) << '\n';
  os << "stop " << util::cancelReasonName(response.stopReason) << '\n';
  os << "policy " << core::policyName(response.bestPolicy) << '\n';
  os << std::setprecision(12);
  os << "gap ";
  if (response.gap >= lp::kInf) {
    os << '-';  // policy fallback: no ILP incumbent, no gap
  } else {
    os << response.gap;
  }
  os << '\n';
  os << "timeScale " << response.timeScale << '\n';
  os << "policyValue " << response.policyValue << '\n';
  os << "solvedValue " << response.solvedValue << '\n';
  for (const PlacedJob& placed : response.schedule) {
    os << "job " << placed.id << " start " << placed.start << " duration "
       << placed.duration << '\n';
  }
  return os.str();
}

std::string encodeHealthStats(const HealthStats& stats) {
  util::PayloadWriter w;
  w.u64(stats.accepted);
  w.u64(stats.completed);
  w.u64(stats.shed);
  w.u64(stats.malformed);
  w.u64(stats.errors);
  w.u64(stats.cacheHits);
  w.u32(stats.queueDepth);
  w.u32(stats.inFlight);
  w.boolean(stats.draining);
  for (int i = 0; i < tip::kSolveRungs; ++i) w.u64(stats.rungCount[i]);
  w.f64(stats.p50Ms);
  w.f64(stats.p99Ms);
  w.u64(stats.recoveredAnswers);
  w.u64(stats.tornTails);
  w.u64(stats.droppedTailBytes);
  return w.bytes();
}

HealthStats decodeHealthStats(std::string_view payload) {
  util::PayloadReader r(payload);
  HealthStats stats;
  stats.accepted = r.u64();
  stats.completed = r.u64();
  stats.shed = r.u64();
  stats.malformed = r.u64();
  stats.errors = r.u64();
  stats.cacheHits = r.u64();
  stats.queueDepth = r.u32();
  stats.inFlight = r.u32();
  stats.draining = r.boolean();
  for (int i = 0; i < tip::kSolveRungs; ++i) stats.rungCount[i] = r.u64();
  stats.p50Ms = r.f64();
  stats.p99Ms = r.f64();
  stats.recoveredAnswers = r.u64();
  stats.tornTails = r.u64();
  stats.droppedTailBytes = r.u64();
  DYNSCHED_CHECK_MSG(r.atEnd(),
                     "health stats: " << r.remaining() << " trailing bytes");
  return stats;
}

}  // namespace dynsched::serve
