//===- perfbench/src/Inputs.cpp - Frozen benchmark inputs ----------------===//

#include "Inputs.h"

#include <cctype>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace perfbench;
using dggt::WorkloadKind;

namespace {

constexpr const char *DatasetsFile = "/datasets.tsv";
constexpr const char *PoolFile = "/pool.tsv";

constexpr uint64_t StreamTag = 0x73747265616d0001ull;  // "stream"
constexpr uint64_t ArrivalTag = 0x6172726976650001ull; // "arrive"

/// Stream mix; the defaults of dggt::WorkloadOptions when the pool was
/// frozen.
constexpr double QueryZipfExponent = 1.0;
constexpr double DomainZipfExponent = 0.7;
constexpr double NearMissFraction = 0.05;
constexpr double SessionFraction = 0.08;
constexpr double SynonymFraction = 0.45;
constexpr unsigned MaxSessionTurns = 3;

const char *kindName(WorkloadKind K) {
  switch (K) {
  case WorkloadKind::Canonical:
    return "canonical";
  case WorkloadKind::Synonym:
    return "synonym";
  case WorkloadKind::Refinement:
    return "refinement";
  case WorkloadKind::NearMiss:
    return "near_miss";
  }
  return "?";
}

bool kindFromName(const std::string &S, WorkloadKind &K) {
  for (WorkloadKind C : {WorkloadKind::Canonical, WorkloadKind::Synonym,
                         WorkloadKind::Refinement, WorkloadKind::NearMiss})
    if (S == kindName(C)) {
      K = C;
      return true;
    }
  return false;
}

std::string joinList(const std::vector<uint32_t> &V) {
  if (V.empty())
    return "-";
  std::string Out;
  for (size_t I = 0; I < V.size(); ++I) {
    if (I)
      Out += ',';
    Out += std::to_string(V[I]);
  }
  return Out;
}

bool parseList(const std::string &S, std::vector<uint32_t> &Out) {
  Out.clear();
  if (S == "-")
    return true;
  std::istringstream In(S);
  std::string Item;
  while (std::getline(In, Item, ','))
    try {
      Out.push_back(static_cast<uint32_t>(std::stoul(Item)));
    } catch (...) {
      return false;
    }
  return !Out.empty();
}

std::vector<std::string> splitTabs(const std::string &Line) {
  std::vector<std::string> F;
  size_t Start = 0;
  while (true) {
    size_t Tab = Line.find('\t', Start);
    F.push_back(Line.substr(Start, Tab - Start));
    if (Tab == std::string::npos)
      return F;
    Start = Tab + 1;
  }
}

std::string hex64(uint64_t V) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, V);
  return Buf;
}

/// Writes \p Body (data lines) under a comment header carrying the
/// FNV-1a digest of the body.
bool writeFile(const std::string &Path, const std::string &Title,
               const std::string &Header, const std::string &Body,
               std::string &Error) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Error = "cannot write " + Path;
    return false;
  }
  Out << "# " << Title << "\n# " << Header << "\n# digest "
      << hex64(fnv1a(Body)) << "\n"
      << Body;
  return static_cast<bool>(Out);
}

/// Reads the data lines of \p Path and checks them against the digest
/// its header records.
bool readFile(const std::string &Path, std::vector<std::string> &Lines,
              std::string &Error) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::string Line, Body, Digest;
  while (std::getline(In, Line)) {
    if (Line.rfind("# digest ", 0) == 0) {
      Digest = Line.substr(9);
      continue;
    }
    if (!Line.empty() && Line[0] == '#')
      continue;
    Body += Line + "\n";
    Lines.push_back(Line);
  }
  if (Digest != hex64(fnv1a(Body))) {
    Error = Path + ": content digest " + hex64(fnv1a(Body)) +
            " does not match the recorded " + Digest;
    return false;
  }
  return true;
}

/// Zipf(s) over ranks 0..N-1 by inverse CDF.
class Zipf {
public:
  Zipf(size_t N, double S) {
    double Sum = 0;
    for (size_t K = 0; K < N; ++K) {
      Sum += std::pow(static_cast<double>(K + 1), -S);
      Cdf.push_back(Sum);
    }
    for (double &C : Cdf)
      C /= Sum;
    if (!Cdf.empty())
      Cdf.back() = 1.0;
  }
  size_t sample(Rng &R) const {
    double U = R.nextDouble();
    size_t Lo = 0, Hi = Cdf.size() - 1;
    while (Lo < Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Cdf[Mid] > U)
        Hi = Mid;
      else
        Lo = Mid + 1;
    }
    return Lo;
  }

private:
  std::vector<double> Cdf;
};

} // namespace

uint64_t perfbench::fnv1a(const std::string &Bytes, uint64_t H) {
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

std::string perfbench::normalized(const std::string &S) {
  std::string Out;
  for (unsigned char C : S)
    if (!std::isspace(C))
      Out.push_back(static_cast<char>(C));
  return Out;
}

bool perfbench::writeInputs(const std::string &Dir, const Inputs &In,
                            const std::string &Header, std::string &Error) {
  std::string Domains;
  for (size_t D = 0; D < In.DomainNames.size(); ++D)
    Domains += "domain\t" + std::to_string(D) + "\t" + In.DomainNames[D] + "\n";

  std::string Body = Domains;
  for (const Case &C : In.Cases)
    Body += "case\t" + std::to_string(C.Domain) + "\t" +
            std::to_string(C.Index) + "\t" + C.Query + "\t" + C.GroundTruth +
            "\n";
  if (!writeFile(Dir + DatasetsFile,
                 "perfbench datasets v1: hand-written queries and ground truth",
                 "source: domains/TextEditingQueries.cpp, "
                 "domains/AstMatcherQueries.cpp",
                 Body, Error))
    return false;

  Body = Domains;
  for (const PoolEntry &E : In.Pool)
    Body += std::string("entry\t") + kindName(E.Kind) + "\t" +
            std::to_string(E.Domain) + "\t" +
            std::to_string(E.CanonicalIndex) + "\t" + E.Text + "\t" +
            E.Expected + "\t" + E.Surface + "\n";
  for (const Slot &S : In.Slots)
    Body += "slot\t" + std::to_string(S.Domain) + "\t" +
            std::to_string(S.Entry) + "\t" + joinList(S.Synonyms) + "\t" +
            joinList(S.NearMisses) + "\t" + joinList(S.Refinements) + "\n";
  return writeFile(Dir + PoolFile,
                   "perfbench served-workload pool v1 (entry ids are line "
                   "order among entry lines)",
                   Header, Body, Error);
}

bool perfbench::readInputs(const std::string &Dir, Inputs &In,
                           std::string &Error) {
  std::vector<std::string> DatasetLines, PoolLines;
  if (!readFile(Dir + DatasetsFile, DatasetLines, Error) ||
      !readFile(Dir + PoolFile, PoolLines, Error))
    return false;
  auto Bad = [&](const std::string &Line) {
    Error = "malformed input line: " + Line.substr(0, 80);
    return false;
  };
  try {
    for (const std::string &Line : DatasetLines) {
      std::vector<std::string> F = splitTabs(Line);
      if (F[0] == "domain" && F.size() == 3)
        In.DomainNames.push_back(F[2]);
      else if (F[0] == "case" && F.size() == 5)
        In.Cases.push_back({static_cast<uint32_t>(std::stoul(F[1])),
                            static_cast<uint32_t>(std::stoul(F[2])), F[3],
                            F[4]});
      else
        return Bad(Line);
    }
    size_t PoolDomains = 0;
    for (const std::string &Line : PoolLines) {
      std::vector<std::string> F = splitTabs(Line);
      if (F[0] == "domain" && F.size() == 3) {
        if (PoolDomains >= In.DomainNames.size() ||
            In.DomainNames[PoolDomains++] != F[2])
          return Bad(Line);
      } else if (F[0] == "entry" && F.size() == 7) {
        PoolEntry E;
        if (!kindFromName(F[1], E.Kind))
          return Bad(Line);
        E.Domain = static_cast<uint32_t>(std::stoul(F[2]));
        E.CanonicalIndex = static_cast<uint32_t>(std::stoul(F[3]));
        E.Text = F[4];
        E.Expected = F[5];
        E.Surface = F[6];
        In.Pool.push_back(std::move(E));
      } else if (F[0] == "slot" && F.size() == 6) {
        Slot S;
        S.Domain = static_cast<uint32_t>(std::stoul(F[1]));
        S.Entry = static_cast<uint32_t>(std::stoul(F[2]));
        if (!parseList(F[3], S.Synonyms) || !parseList(F[4], S.NearMisses) ||
            !parseList(F[5], S.Refinements))
          return Bad(Line);
        In.Slots.push_back(std::move(S));
      } else {
        return Bad(Line);
      }
    }
  } catch (...) {
    Error = "malformed number in the input files";
    return false;
  }
  for (const Case &C : In.Cases)
    if (C.Domain >= In.DomainNames.size())
      return Bad(C.Query);
  for (const PoolEntry &E : In.Pool)
    if (E.Domain >= In.DomainNames.size())
      return Bad(E.Text);
  for (const Slot &S : In.Slots)
    for (const std::vector<uint32_t> *L :
         {&S.Synonyms, &S.NearMisses, &S.Refinements})
      for (uint32_t I : *L)
        if (I >= In.Pool.size() || S.Entry >= In.Pool.size())
          return Bad("slot index out of range");
  return true;
}

std::vector<StreamItem> perfbench::drawStream(const Inputs &In, uint64_t Seed,
                                              size_t N) {
  // Slots per domain in rank order (the file lists them that way).
  std::vector<std::vector<const Slot *>> ByDomain(In.DomainNames.size());
  for (const Slot &S : In.Slots)
    ByDomain[S.Domain].push_back(&S);
  std::vector<uint32_t> DomainRanks;
  std::vector<Zipf> QueryZipf;
  for (uint32_t D = 0; D < ByDomain.size(); ++D) {
    QueryZipf.emplace_back(ByDomain[D].size(), QueryZipfExponent);
    if (!ByDomain[D].empty())
      DomainRanks.push_back(D);
  }
  std::vector<StreamItem> Out;
  if (DomainRanks.empty())
    return Out;
  Zipf DomainZipf(DomainRanks.size(), DomainZipfExponent);
  Rng R(Seed ^ StreamTag);
  uint32_t NextSession = 0;
  auto Pick = [&](const Slot &S) -> uint32_t {
    if (!S.Synonyms.empty() && R.nextDouble() < SynonymFraction)
      return S.Synonyms[R.nextBelow(S.Synonyms.size())];
    return S.Entry;
  };
  Out.reserve(N);
  while (Out.size() < N) {
    uint32_t D = DomainRanks[DomainZipf.sample(R)];
    const Slot &S = *ByDomain[D][QueryZipf[D].sample(R)];
    double Class = R.nextDouble();
    if (Class < NearMissFraction && !S.NearMisses.empty()) {
      Out.push_back({S.NearMisses[R.nextBelow(S.NearMisses.size())],
                     StreamItem::NoSession, 0});
      continue;
    }
    if (Class < NearMissFraction + SessionFraction && !S.Refinements.empty()) {
      unsigned Turns =
          2 + static_cast<unsigned>(R.nextBelow(MaxSessionTurns - 1));
      uint32_t Session = NextSession++;
      Out.push_back({Pick(S), Session, 0});
      for (uint16_t T = 1; T < Turns && Out.size() < N; ++T)
        Out.push_back(
            {S.Refinements[R.nextBelow(S.Refinements.size())], Session, T});
      continue;
    }
    Out.push_back({Pick(S), StreamItem::NoSession, 0});
  }
  return Out;
}

uint64_t perfbench::streamDigest(const Inputs &In,
                                 const std::vector<StreamItem> &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (const StreamItem &Q : S) {
    H = fnv1a(In.Pool[Q.Pool].Text, H);
    H = fnv1a(std::to_string(Q.Session) + "/" + std::to_string(Q.Turn), H);
  }
  return H;
}

std::vector<uint64_t> perfbench::arrivalsNs(uint64_t Seed, size_t N,
                                            double Qps) {
  std::vector<uint64_t> Out;
  Out.reserve(N);
  Rng R(Seed ^ ArrivalTag);
  double Now = 0;
  for (size_t I = 0; I < N; ++I) {
    Now += -std::log1p(-R.nextDouble()) / Qps;
    Out.push_back(static_cast<uint64_t>(Now * 1e9));
  }
  return Out;
}
