#include "verify/gate.hpp"

#include <fstream>
#include <optional>

#include "topology/topology.hpp"

namespace downup::verify {

using routing::DirectionMap;
using routing::TurnPermissions;
using routing::TurnSet;
using topo::Topology;

TurnPermissions unrestrictedCopy(const TurnPermissions& perms) {
  const Topology& topo = perms.topology();
  DirectionMap dirs(topo.channelCount());
  for (ChannelId c = 0; c < topo.channelCount(); ++c) dirs[c] = perms.dir(c);
  return TurnPermissions(topo, std::move(dirs), TurnSet::allAllowed());
}

bool OracleGate::audit(const OracleInput& input, const CaseContext& context) {
  audits_.fetch_add(1, std::memory_order_relaxed);

  OracleInput effective = input;
  std::optional<TurnPermissions> planted;
  if (options_.plantViolation) {
    // Audit the corrupted rule: the table (built against the real rule) no
    // longer matches it, so keep only the rule and state layers — the point
    // of planting is to prove the cycle detector and the dump path fire.
    planted.emplace(unrestrictedCopy(*input.perms));
    effective.perms = &*planted;
    effective.table = nullptr;
  }
  // Every audit with a table checks its steps rows too: the fixed-point
  // check costs the same order as the row check it runs beside.
  if (effective.table != nullptr) effective.deepDistanceCheck = true;

  const OracleReport report = runOracle(effective);

  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pointAudits_[context.point];
    if (!report.ok()) lastViolation_ = report;
  }
  if (report.ok()) return true;

  violations_.fetch_add(1, std::memory_order_relaxed);
  dumpCase(effective, report, context);
  return false;
}

void OracleGate::dumpCase(const OracleInput& input, const OracleReport& report,
                          const CaseContext& context) {
  if (options_.dumpPathPrefix.empty()) return;
  const std::uint64_t n = casesDumped_.fetch_add(1, std::memory_order_relaxed);
  if (n >= kMaxDumpedCases) {
    casesDumped_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  const std::string path =
      options_.dumpPathPrefix + ".case" + std::to_string(n) + ".jsonl";
  std::ofstream out(path);
  if (!out) {
    casesDumped_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  writeReplayCase(out, input, report, context);
  std::lock_guard<std::mutex> lock(mutex_);
  lastCasePath_ = path;
}

std::uint64_t OracleGate::auditsAt(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = pointAudits_.find(point);
  return it == pointAudits_.end() ? 0 : it->second;
}

std::string OracleGate::lastCasePath() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lastCasePath_;
}

OracleReport OracleGate::lastViolation() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lastViolation_;
}

}  // namespace downup::verify
