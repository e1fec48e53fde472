//===- perfbench/src/Inputs.h - Frozen benchmark inputs ---------*- C++ -*-===//
///
/// \file
/// The benchmark's inputs as committed under perfbench/data: the two
/// hand-written datasets (cold workloads) and the served workloads'
/// query pool with its popularity slots. Everything a run varies comes
/// from its --seed through the samplers here, which are the benchmark's
/// own (not the program's), so a change to the program cannot change
/// what the benchmark sends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "eval/Workload.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One hand-written dataset query with its ground-truth codelet.
struct Case {
  uint32_t Domain = 0;
  uint32_t Index = 0;
  std::string Query;
  std::string GroundTruth;
};

/// One distinct query of the served pool. Expected is the hand-written
/// ground truth of the source case with whitespace removed; empty for
/// near-misses, whose correct answer is a clean failure.
struct PoolEntry {
  dggt::WorkloadKind Kind = dggt::WorkloadKind::Canonical;
  uint32_t Domain = 0;
  uint32_t CanonicalIndex = 0;
  std::string Text;
  std::string Expected;
  std::string Surface;

  bool expectOk() const { return Kind != dggt::WorkloadKind::NearMiss; }
};

/// A ground-truth case of the pool with its mutants, in popularity-rank
/// order within its domain.
struct Slot {
  uint32_t Domain = 0;
  uint32_t Entry = 0;
  std::vector<uint32_t> Synonyms;
  std::vector<uint32_t> NearMisses;
  std::vector<uint32_t> Refinements;
};

struct Inputs {
  std::vector<std::string> DomainNames;
  std::vector<Case> Cases;
  std::vector<PoolEntry> Pool;
  std::vector<Slot> Slots;
};

/// One element of a replayed stream (the WorkloadGenerator traffic mix).
struct StreamItem {
  uint32_t Pool = 0;
  uint32_t Session = NoSession;
  uint16_t Turn = 0;
  static constexpr uint32_t NoSession = 0xffffffffu;
};

/// Writes datasets.tsv and pool.tsv into \p Dir.
bool writeInputs(const std::string &Dir, const Inputs &In,
                 const std::string &Header, std::string &Error);
/// Reads and digest-checks datasets.tsv and pool.tsv from \p Dir.
bool readInputs(const std::string &Dir, Inputs &In, std::string &Error);

/// splitmix64, the benchmark's own PRNG.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  double nextDouble() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  uint64_t nextBelow(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

/// The first \p N items of the seed's stream over \p In's slots: Zipf
/// popularity over domains (s = 0.7) and over each domain's slots
/// (s = 1.0); 5% near-misses, 8% refinement sessions of 2-3 turns, and
/// 45% of positive arrivals replaced by a synonym mutant.
std::vector<StreamItem> drawStream(const Inputs &In, uint64_t Seed, size_t N);

/// FNV-1a over the stream's texts and session framing.
uint64_t streamDigest(const Inputs &In, const std::vector<StreamItem> &S);

/// Poisson arrival offsets (ns from replay start) at \p Qps.
std::vector<uint64_t> arrivalsNs(uint64_t Seed, size_t N, double Qps);

/// \p S with all whitespace removed (the comparison form of a codelet).
std::string normalized(const std::string &S);

/// FNV-1a 64 of \p Bytes continuing from \p H.
uint64_t fnv1a(const std::string &Bytes,
               uint64_t H = 0xcbf29ce484222325ull);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
