//===- support/FaultInjection.h - Deterministic fault points -----*- C++ -*-===//
///
/// \file
/// Named fault points threaded into the synthesis hot stages so tests can
/// force mid-flight budget expiry, search truncation, and parse failures
/// deterministically — without timing races or hostile inputs crafted per
/// test. A point is a no-op (one relaxed atomic load) until a test or the
/// DGGT_FAULTS environment spec arms it with a trigger:
///
///   - fire on the Nth hit (optionally on every Nth hit thereafter), or
///   - fire with a seeded probability per hit (reproducible sequences).
///
/// The call-site contract is defined where the point is consulted: the
/// BNF parser turns a firing into a parse error, the path search into a
/// truncated result, the synthesizers into a cancelled budget (observed
/// as a Timeout status). See DESIGN.md "Failure model and degradation
/// ladder" for the full point taxonomy.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_SUPPORT_FAULTINJECTION_H
#define DGGT_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace dggt {

namespace faults {
/// Canonical fault-point names. Arbitrary names are accepted by the
/// injector; these are the points the library consults.
inline constexpr std::string_view BnfParse = "bnf.parse";
inline constexpr std::string_view PathSearchVisit = "pathsearch.visit";
inline constexpr std::string_view EdgeToPathEdge = "edgetopath.edge";
inline constexpr std::string_view DggtMerge = "dggt.merge";
inline constexpr std::string_view HisynEnumerate = "hisyn.enumerate";
inline constexpr std::string_view ServiceTransient = "service.transient";
/// Data-plane point (see obs/HttpEndpoint): a firing reply point drops
/// the HTTP connection instead of writing the deferred response.
inline constexpr std::string_view DataplaneReply = "dataplane.reply";
} // namespace faults

/// Hit/fired counts of one fault point (see FaultInjector::
/// snapshotCounts); the observability exporter surfaces these as
/// dggt_fault_point_{hits,fired}_total{point=...}.
struct FaultPointCounts {
  std::string Point;
  uint64_t Hits = 0;
  uint64_t Fired = 0;
};

/// Process-wide registry of armed fault points. Thread-safe; the
/// unarmed fast path is lock-free.
class FaultInjector {
public:
  static FaultInjector &instance();

  /// Arms \p Point to fire on its \p Nth hit from now (1 = next hit).
  /// With \p Repeating, it fires on every Nth hit instead of once.
  void armNth(std::string_view Point, uint64_t Nth, bool Repeating = false);

  /// Arms \p Point to fire each hit with probability \p P, drawn from a
  /// generator seeded with \p Seed (same seed => same firing sequence).
  void armProbability(std::string_view Point, double P, uint64_t Seed = 1);

  /// Arms \p Point to fire on every hit.
  void armAlways(std::string_view Point) { armNth(Point, 1, true); }

  /// Disarms \p Point (its counters survive until reset()).
  void disarm(std::string_view Point);

  /// Disarms every point and clears all counters.
  void reset();

  /// Records a hit at \p Point and returns true if the armed trigger
  /// fires. Unarmed points only count hits when some point is armed.
  bool fires(std::string_view Point);

  /// Hits observed at \p Point since the last reset(). Hits are only
  /// counted while at least one point is armed (the unarmed fast path
  /// skips the registry entirely).
  uint64_t hits(std::string_view Point) const;

  /// Times \p Point actually fired since the last reset().
  uint64_t fired(std::string_view Point) const;

  /// Point-in-time hit/fired counts of every point the injector has
  /// seen since the last reset(), sorted by name (metrics export).
  std::vector<FaultPointCounts> snapshotCounts() const;

  /// Arms points from a spec string (the DGGT_FAULTS format):
  ///
  ///   spec    := entry (',' entry)*
  ///   entry   := point '=' trigger
  ///   trigger := 'always' | 'nth:' N | 'every:' N | 'prob:' P ['@' SEED]
  ///
  /// e.g. "dggt.merge=nth:3,pathsearch.visit=prob:0.01@42". Numbers go
  /// through the same strict parser as DGGT_TIMEOUT_MS. On a malformed
  /// spec nothing is armed, \p Error describes the problem, and false is
  /// returned.
  bool armFromSpec(std::string_view Spec, std::string &Error);

  /// True when any point is armed anywhere (relaxed load; see
  /// dggt::faultFires()).
  static bool anyArmed() {
    return ArmedPoints.load(std::memory_order_relaxed) != 0;
  }

private:
  struct Point {
    enum class Trigger { Disarmed, Nth, Probability } Kind = Trigger::Disarmed;
    uint64_t Nth = 0;
    bool Repeating = false;
    double P = 0.0;
    std::mt19937_64 Rng;
    uint64_t Hits = 0;      ///< Hits since this point was last (re)armed.
    uint64_t TotalHits = 0; ///< Hits since reset().
    uint64_t Fired = 0;
  };

  Point &pointFor(std::string_view Name);

  static std::atomic<unsigned> ArmedPoints;

  mutable std::mutex M;
  std::unordered_map<std::string, Point> Points;
};

/// Call-site helper: records a hit at \p Point and returns true if it
/// fires. Near-zero cost (one relaxed atomic load) while nothing is
/// armed, so it is safe inside the synthesis inner loops.
inline bool faultFires(std::string_view Point) {
  if (!FaultInjector::anyArmed())
    return false;
  return FaultInjector::instance().fires(Point);
}

} // namespace dggt

#endif // DGGT_SUPPORT_FAULTINJECTION_H
