// OracleGate: the opt-in enforcement wrapper around runOracle().
//
// One gate instance is shared by every audit point in a process.  The
// points that remain are: "baseline" (a caller auditing a routing it built
// itself, as exp_adversarial and exp_recovery_curve do), "epoch_publish"
// (every FabricManager publish, the only audit of a published epoch) and
// the simulator's "mid_reconfig_quarantine" / "mid_reconfig_preswap"
// occupancy snapshots.  Every audit that supplies a table runs the full
// table check, steps rows included (OracleInput::deepDistanceCheck), at
// any fabric size: the steps check costs the same order as the row check
// it runs beside.  Audits may run concurrently (the simulations of a
// parallel sweep share one gate); a mutex guards the per-point verdict
// ledger.  On a violation the gate dumps a replayable oracle_case/1 JSONL
// witness (verify/replay.hpp).  It never mutates the audited structures,
// draws no RNG and never blocks a publish: enforcement is the caller's job
// (benches exit nonzero, the fabric records a kOracleViolation anomaly),
// so driven-mode determinism is preserved even under a failing gate.
//
// `plantViolation` is the built-in fault injection: instead of the real
// rule the gate audits an unrestricted copy (every turn allowed, blocks
// dropped) which has a cyclic dependency graph on any topology containing
// an undirected cycle.  CI uses it to prove the gate actually fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "verify/replay.hpp"

namespace downup::verify {

/// A copy of `perms` with every turn allowed and every per-node block
/// dropped (releases become irrelevant).  On any topology with an
/// undirected cycle the result has a cyclic CDG — a genuine planted
/// violation with a real witness, not a synthetic report.
routing::TurnPermissions unrestrictedCopy(const routing::TurnPermissions& perms);

class OracleGate {
 public:
  /// Violations beyond this many are counted but not dumped.
  static constexpr std::uint32_t kMaxDumpedCases = 8;

  struct Options {
    /// When non-empty, violations dump to `<prefix>.case<N>.jsonl`.
    std::string dumpPathPrefix;
    /// Fault injection: audit an unrestricted copy of each rule instead of
    /// the rule itself (see unrestrictedCopy).
    bool plantViolation = false;
  };

  explicit OracleGate(Options options) : options_(std::move(options)) {}
  OracleGate() : OracleGate(Options{}) {}

  OracleGate(const OracleGate&) = delete;
  OracleGate& operator=(const OracleGate&) = delete;

  /// Audits one snapshot; true = clean.  Thread-safe; read-only on the
  /// audited structures.
  bool audit(const OracleInput& input, const CaseContext& context);

  std::uint64_t audits() const noexcept {
    return audits_.load(std::memory_order_relaxed);
  }
  std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }
  std::uint64_t casesDumped() const noexcept {
    return casesDumped_.load(std::memory_order_relaxed);
  }
  /// Audits observed at one audit point ("baseline", "epoch_publish",
  /// "mid_reconfig_quarantine", ...).
  std::uint64_t auditsAt(std::string_view point) const;
  std::string lastCasePath() const;
  /// The last violating report (empty-default when none).
  OracleReport lastViolation() const;

 private:
  void dumpCase(const OracleInput& input, const OracleReport& report,
                const CaseContext& context);

  Options options_;
  mutable std::mutex mutex_;
  std::map<std::string, std::uint64_t, std::less<>> pointAudits_;
  std::string lastCasePath_;
  OracleReport lastViolation_;
  std::atomic<std::uint64_t> audits_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> casesDumped_{0};
};

}  // namespace downup::verify
