//===- perfbench/src/freeze_pool.cpp - Freezes the benchmark inputs -------===//
///
/// \file
/// One-off generator of the benchmark's committed inputs:
///
///   data/datasets.tsv  the two hand-written query datasets with their
///                      ground-truth codelets (the cold workloads' input);
///   data/pool.tsv      the served workloads' query pool, produced by
///                      dggt::WorkloadGenerator (eval/Workload.h) with its
///                      default options and zero-load verification, plus
///                      the popularity slots the stream draw samples.
///
/// Run it once (`cmake --build <dir> --target perfbench_freeze`, then
/// `<dir>/perfbench_freeze perfbench/data 1`); the benchmark afterwards
/// reads only the frozen files, so a regression in the generator or the
/// pipeline lowers `accuracy` instead of silently shrinking the pool.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "domains/Domain.h"
#include "eval/Workload.h"
#include "text/Tokenizer.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dggt;

namespace {

bool clean(const std::string &S) {
  return S.find('\t') == std::string::npos &&
         S.find('\n') == std::string::npos;
}

/// The refinement partners of each slot, recomputed with the
/// generator's rule (next verified cases of the same leading verb, at
/// most two, distinct text) so the frozen file can name each slot's
/// follow-up turns.
std::vector<std::vector<size_t>>
refinementPartners(const std::vector<std::string> &SlotTexts) {
  std::vector<std::vector<size_t>> Out(SlotTexts.size());
  for (size_t A = 0; A < SlotTexts.size(); ++A) {
    std::vector<Token> BaseToks = tokenize(SlotTexts[A]);
    for (size_t B = A + 1; B < SlotTexts.size() && Out[A].size() < 2; ++B) {
      std::vector<Token> PartToks = tokenize(SlotTexts[B]);
      if (BaseToks.empty() || PartToks.empty() ||
          BaseToks[0].Text != PartToks[0].Text ||
          SlotTexts[A] == SlotTexts[B])
        continue;
      Out[A].push_back(B);
    }
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: perfbench_freeze OUT_DIR SEED\n");
    return 2;
  }
  const std::string OutDir = argv[1];
  const uint64_t Seed = std::strtoull(argv[2], nullptr, 10);

  std::vector<std::unique_ptr<Domain>> Owned;
  Owned.push_back(makeTextEditingDomain());
  Owned.push_back(makeAstMatcherDomain());
  std::vector<const Domain *> Domains;
  for (const auto &D : Owned)
    Domains.push_back(D.get());

  // Datasets: hand-written queries and ground truth, verbatim.
  perfbench::Inputs In;
  for (uint32_t DI = 0; DI < Domains.size(); ++DI) {
    In.DomainNames.push_back(Domains[DI]->name());
    const std::vector<QueryCase> &Cases = Domains[DI]->queries();
    for (uint32_t CI = 0; CI < Cases.size(); ++CI)
      In.Cases.push_back({DI, CI, Cases[CI].Query, Cases[CI].GroundTruth});
  }

  WorkloadOptions WO;
  WO.Seed = Seed;
  WorkloadGenerator Gen(Domains, WO);
  const std::vector<WorkloadEntry> &Pool = Gen.pool();
  for (uint32_t I = 0; I < Pool.size(); ++I) {
    const WorkloadEntry &E = Pool[I];
    In.Pool.push_back({E.Kind, E.DomainIndex, E.CanonicalIndex, E.Text,
                       E.Expected, E.Surface});
  }

  // Rebuild the slot structure the generator keeps privately: a
  // canonical entry opens a slot, its synonym and near-miss mutants
  // follow it, and each domain's refinement entries come last, in slot
  // order, for the partners refinementPartners() names.
  for (uint32_t DI = 0; DI < Domains.size(); ++DI) {
    std::vector<perfbench::Slot> Slots;
    std::vector<std::string> SlotTexts;
    std::vector<uint32_t> Refinements;
    for (uint32_t I = 0; I < Pool.size(); ++I) {
      const WorkloadEntry &E = Pool[I];
      if (E.DomainIndex != DI)
        continue;
      switch (E.Kind) {
      case WorkloadKind::Canonical:
        Slots.push_back({DI, I, {}, {}, {}});
        SlotTexts.push_back(E.Text);
        break;
      case WorkloadKind::Synonym:
        Slots.back().Synonyms.push_back(I);
        break;
      case WorkloadKind::NearMiss:
        Slots.back().NearMisses.push_back(I);
        break;
      case WorkloadKind::Refinement:
        Refinements.push_back(I);
        break;
      }
    }
    size_t Next = 0;
    std::vector<std::vector<size_t>> Partners = refinementPartners(SlotTexts);
    for (size_t A = 0; A < Slots.size(); ++A)
      for (size_t B : Partners[A]) {
        if (Next >= Refinements.size() ||
            Pool[Refinements[Next]].Text != SlotTexts[B]) {
          std::fprintf(stderr, "freeze: refinement order mismatch\n");
          return 1;
        }
        Slots[A].Refinements.push_back(Refinements[Next++]);
      }
    if (Next != Refinements.size()) {
      std::fprintf(stderr, "freeze: unassigned refinement entries\n");
      return 1;
    }
    // Popularity rank: a seeded permutation of dataset order.
    SplitMix64 Rng(Seed ^ 0x72616e6b00000001ull); // "rank"
    for (size_t I = Slots.size(); I > 1; --I)
      std::swap(Slots[I - 1], Slots[Rng.nextBelow(I)]);
    In.Slots.insert(In.Slots.end(), Slots.begin(), Slots.end());
  }

  for (const perfbench::Case &C : In.Cases)
    if (!clean(C.Query) || !clean(C.GroundTruth)) {
      std::fprintf(stderr, "freeze: tab or newline in a dataset case\n");
      return 1;
    }
  for (const perfbench::PoolEntry &E : In.Pool)
    if (!clean(E.Text) || !clean(E.Expected) || !clean(E.Surface)) {
      std::fprintf(stderr, "freeze: tab or newline in a pool entry\n");
      return 1;
    }

  std::ostringstream Header;
  const WorkloadPoolStats &PS = Gen.poolStats();
  Header << "generator dggt::WorkloadGenerator seed " << Seed
         << " default WorkloadOptions, zero-load verified; pool "
         << PS.total() << " (canonical " << PS.Canonical << ", synonym "
         << PS.Synonym << ", refinement " << PS.Refinement << ", near-miss "
         << PS.NearMiss << "; dropped " << PS.DroppedCanonical
         << " canonical, " << PS.DroppedMutants << " mutants, "
         << PS.DroppedNearMisses << " near-misses)";
  std::string Error;
  if (!perfbench::writeInputs(OutDir, In, Header.str(), Error)) {
    std::fprintf(stderr, "freeze: %s\n", Error.c_str());
    return 1;
  }
  std::printf("%s\n", Header.str().c_str());
  return 0;
}
