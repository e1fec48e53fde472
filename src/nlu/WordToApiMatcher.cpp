//===- nlu/WordToApiMatcher.cpp - WordToAPI (step 3) ----------------------===//

#include "nlu/WordToApiMatcher.h"

#include "obs/Metrics.h"
#include "support/StringUtils.h"
#include "text/PorterStemmer.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <type_traits>

using namespace dggt;

//===----------------------------------------------------------------------===//
// ApiCandidateCache
//===----------------------------------------------------------------------===//

ApiCandidateCache::ApiCandidateCache(std::string CacheName,
                                     uint64_t ByteBudget)
    : Name(std::move(CacheName)), ByteBudget(std::max<uint64_t>(1, ByteBudget)) {}

std::string ApiCandidateCache::keyFor(const DepNode &Node) {
  // '\x1f' (ASCII unit separator) never appears in tokenized words, so
  // the join is unambiguous. Presence markers keep empty-vs-absent
  // optionals distinct.
  std::string K;
  K += static_cast<char>('0' + static_cast<int>(Node.Tag));
  K += '\x1f';
  K += Node.Word;
  for (const std::string &W : Node.Phrase) {
    K += '\x1f';
    K += W;
  }
  K += '\x1e';
  if (Node.Literal) {
    K += 'L';
    K += *Node.Literal;
  }
  K += '\x1e';
  if (Node.CasePrep) {
    K += 'C';
    K += *Node.CasePrep;
  }
  return K;
}

std::optional<std::vector<ApiCandidate>>
ApiCandidateCache::lookup(const std::string &Key) {
  static_assert(std::is_trivially_copyable_v<ApiCandidate>);
  std::optional<std::vector<ApiCandidate>> Out;
  {
    std::lock_guard<std::mutex> L(M);
    auto It = Table.find(Key);
    if (It != Table.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      Out = It->second->Value;
    }
  }
  if (obs::metricsEnabled()) {
    obs::registry()
        .counter(Out ? "dggt_wordcache_hits_total"
                     : "dggt_wordcache_misses_total",
                 {{"domain", Name}})
        .inc();
  }
  (Out ? Hits : Misses).fetch_add(1, std::memory_order_relaxed);
  return Out;
}

void ApiCandidateCache::insert(const std::string &Key,
                               const std::vector<ApiCandidate> &V) {
  uint64_t EntryBytes = sizeof(Entry) + Key.size() +
                        V.size() * sizeof(ApiCandidate) + 64;
  if (EntryBytes > ByteBudget)
    return;
  uint64_t Evicted = 0;
  {
    std::lock_guard<std::mutex> L(M);
    if (Table.count(Key))
      return; // Concurrent-compute race; values are identical.
    while (Bytes + EntryBytes > ByteBudget && !Lru.empty()) {
      Entry &Victim = Lru.back();
      Bytes -= Victim.Bytes;
      Table.erase(Victim.Key);
      Lru.pop_back();
      ++Evicted;
    }
    Lru.push_front(Entry{Key, V, EntryBytes});
    Table.emplace(Key, Lru.begin());
    Bytes += EntryBytes;
  }
  if (Evicted) {
    Evictions.fetch_add(Evicted, std::memory_order_relaxed);
    if (obs::metricsEnabled())
      obs::registry()
          .counter("dggt_wordcache_evictions_total", {{"domain", Name}})
          .inc(Evicted);
  }
}

void ApiCandidateCache::invalidateAll() {
  std::lock_guard<std::mutex> L(M);
  Table.clear();
  Lru.clear();
  Bytes = 0;
}

ApiCandidateCacheStats ApiCandidateCache::stats() const {
  ApiCandidateCacheStats St;
  St.Hits = Hits.load(std::memory_order_relaxed);
  St.Misses = Misses.load(std::memory_order_relaxed);
  St.Evictions = Evictions.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> L(M);
    St.Bytes = Bytes;
    St.Entries = Lru.size();
  }
  return St;
}

namespace {

/// Stems every identifier-split token of \p Text.
std::vector<std::string> stemTokens(std::string_view Text) {
  std::vector<std::string> Stems;
  for (const std::string &Word : split(Text, " \t,.;:()'\"-/")) {
    for (const std::string &Part : splitIdentifier(Word))
      Stems.push_back(porterStem(Part));
  }
  return Stems;
}

bool isNumeric(std::string_view S) {
  if (S.empty())
    return false;
  return std::all_of(S.begin(), S.end(), [](unsigned char C) {
    return std::isdigit(C) != 0;
  });
}

} // namespace

WordToApiMatcher::TokenInfo
WordToApiMatcher::tokenInfo(const std::string &Token) const {
  // Exactly the derivations Thesaurus::areSynonyms performs per call on
  // each side: lower-case, Porter re-stem, thesaurus groups (sorted and
  // deduped by groupsOf).
  TokenInfo Info;
  Info.Lower = toLower(Token);
  Info.Restem = porterStem(Info.Lower);
  Info.Groups = Syn.groupsOf(Info.Lower);
  return Info;
}

WordToApiMatcher::WordToApiMatcher(const ApiDocument &Doc, const Thesaurus &Syn,
                                   MatcherOptions Opts)
    : Doc(Doc), Syn(Syn), Opts(Opts) {
  Tokens.reserve(Doc.size());
  for (const ApiInfo &Api : Doc.apis()) {
    ApiTokens T;
    if (Api.NameWords.empty()) {
      for (const std::string &Part : splitIdentifier(Api.Name))
        T.NameStems.push_back(porterStem(Part));
    } else {
      for (const std::string &Word : Api.NameWords)
        T.NameStems.push_back(porterStem(toLower(Word)));
    }
    T.DescStems = stemTokens(Api.Description);
    for (const std::string &C : T.NameStems)
      T.NameInfo.push_back(tokenInfo(C));
    for (const std::string &C : T.DescStems)
      T.DescInfo.push_back(tokenInfo(C));
    Tokens.push_back(std::move(T));
  }
}

double WordToApiMatcher::scorePhrase(const std::vector<std::string> &Phrase,
                                     const ApiInfo &Api) const {
  int Index = Doc.indexOf(Api.Name);
  assert(Index >= 0 && "API not in this document");
  std::vector<PhraseWordInfo> Infos;
  Infos.reserve(Phrase.size());
  for (const std::string &Word : Phrase) {
    PhraseWordInfo W;
    W.Stem = porterStem(toLower(Word));
    W.Info = tokenInfo(W.Stem);
    Infos.push_back(std::move(W));
  }
  return scorePhraseInfos(Infos, static_cast<unsigned>(Index));
}

double
WordToApiMatcher::scorePhraseInfos(const std::vector<PhraseWordInfo> &Phrase,
                                   unsigned ApiIndex) const {
  const ApiTokens &T = Tokens[ApiIndex];
  const ApiInfo &Api = Doc.api(ApiIndex);

  auto Synonymous = [](const TokenInfo &A, const TokenInfo &B) {
    if (A.Lower == B.Lower || A.Restem == B.Restem)
      return true;
    auto IA = A.Groups.begin();
    auto IB = B.Groups.begin();
    while (IA != A.Groups.end() && IB != B.Groups.end()) {
      if (*IA == *IB)
        return true;
      if (*IA < *IB)
        ++IA;
      else
        ++IB;
    }
    return false;
  };

  auto SimilarityTo = [&](const PhraseWordInfo &W,
                          const std::vector<std::string> &Corpus,
                          const std::vector<TokenInfo> &Infos, double ExactW,
                          double SynW) {
    // Same scan as before: first exact stem hit wins outright, any
    // synonym hit scores SynW (once one is found, only the exact test
    // still matters — max(SynW, SynW) is SynW).
    double Best = 0.0;
    for (size_t I = 0; I < Corpus.size(); ++I) {
      if (Corpus[I] == W.Stem)
        return ExactW;
      if (Best == 0.0 && Synonymous(Infos[I], W.Info))
        Best = SynW;
    }
    return Best;
  };

  // Per query-word similarity: name hits dominate description hits.
  double Sum = 0.0;
  unsigned NameHits = 0, ExactNameHits = 0;
  for (const PhraseWordInfo &W : Phrase) {
    double NameSim = SimilarityTo(W, T.NameStems, T.NameInfo, 2.0, 1.6);
    double DescSim = SimilarityTo(W, T.DescStems, T.DescInfo, 1.0, 0.6);
    if (NameSim > 0)
      ++NameHits;
    if (NameSim >= 2.0)
      ++ExactNameHits;
    Sum += std::max(NameSim, DescSim);
  }
  if (Phrase.empty())
    return 0.0;
  double PerWord = Sum / static_cast<double>(Phrase.size());

  // Coverage bonus: fraction of the API's *name* matched by the phrase,
  // so "binary operator" prefers binaryOperator over operator-mentioning
  // APIs with long names.
  double Coverage =
      T.NameStems.empty()
          ? 0.0
          : static_cast<double>(NameHits) /
                static_cast<double>(T.NameStems.size());
  double Score = PerWord + 0.5 * Coverage;
  // Full-name bonus: the phrase *is* the API name ("end" -> END beats
  // ENDSWITH; "binary operator" -> binaryOperator beats hasOperatorName).
  if (ExactNameHits == Phrase.size() && Phrase.size() == T.NameStems.size())
    Score += 0.5;
  return Score + Api.Bias;
}

std::vector<ApiCandidate>
WordToApiMatcher::literalCandidates(const DepNode &Node) const {
  assert(Node.Literal && "literal node without payload");
  bool Numeric = isNumeric(*Node.Literal);
  std::vector<ApiCandidate> Out;
  for (size_t I = 0; I < Doc.size(); ++I) {
    const ApiInfo &Api = Doc.api(I);
    if (!Api.LiteralOnly)
      continue;
    bool KindOk = Api.Lit == LitKind::Any ||
                  (Numeric ? Api.Lit == LitKind::Number
                           : Api.Lit == LitKind::String);
    if (KindOk)
      Out.push_back({static_cast<unsigned>(I), 1.0});
  }
  return Out;
}

double WordToApiMatcher::contextBoost(const DepNode &Node,
                                      const ApiInfo &Api) const {
  double Boost = 0.0;
  // Argument-type affinity: a node carrying a literal payload prefers
  // APIs that accept a literal of that kind ("2 parameters" ->
  // parameterCountIs over hasParameter).
  if (Node.Literal && !Api.LiteralOnly) {
    bool Numeric = std::all_of(Node.Literal->begin(), Node.Literal->end(),
                               [](unsigned char C) {
                                 return std::isdigit(C) != 0;
                               });
    if (Api.Lit == LitKind::Any ||
        (Numeric ? Api.Lit == LitKind::Number
                 : Api.Lit == LitKind::String))
      Boost += 0.3;
  }
  if (Opts.LocativeNameWord.empty() || !Node.CasePrep)
    return Boost;
  static const char *Locatives[] = {"in", "inside", "within", "per", "of"};
  bool Locative = false;
  for (const char *L : Locatives)
    if (*Node.CasePrep == L)
      Locative = true;
  if (!Locative)
    return Boost;
  static const char *Unused = nullptr;
  (void)Unused;
  for (const std::string &W : Api.NameWords)
    if (W == Opts.LocativeNameWord)
      return Boost + Opts.LocativeBoost;
  return Boost;
}

std::vector<ApiCandidate>
WordToApiMatcher::candidatesForNode(const DepNode &Node) const {
  // Literal payload with a non-word surface: quoted strings and
  // standalone numbers map to literal pseudo-APIs.
  if (Node.Tag == Pos::Literal ||
      (Node.Tag == Pos::Number && Node.Literal && Node.Word == *Node.Literal))
    return literalCandidates(Node);

  // Stem the phrase and derive its synonym-lookup inputs once; the loop
  // below scores it against every API without re-stemming anything.
  std::vector<PhraseWordInfo> Infos;
  Infos.reserve(Node.Phrase.size());
  for (const std::string &Word : Node.Phrase) {
    PhraseWordInfo W;
    W.Stem = porterStem(toLower(Word));
    W.Info = tokenInfo(W.Stem);
    Infos.push_back(std::move(W));
  }

  std::vector<ApiCandidate> Scored;
  for (size_t I = 0; I < Doc.size(); ++I) {
    const ApiInfo &Api = Doc.api(I);
    if (Api.LiteralOnly)
      continue;
    double Score = scorePhraseInfos(Infos, static_cast<unsigned>(I)) +
                   contextBoost(Node, Api);
    if (Score >= Opts.MinScore)
      Scored.push_back({static_cast<unsigned>(I), Score});
  }
  if (Scored.empty())
    return Scored;

  // Deterministic order: score desc, then name asc.
  std::sort(Scored.begin(), Scored.end(),
            [&](const ApiCandidate &A, const ApiCandidate &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              return Doc.api(A.ApiIndex).Name < Doc.api(B.ApiIndex).Name;
            });

  double Best = Scored.front().Score;
  std::vector<ApiCandidate> Kept;
  for (const ApiCandidate &C : Scored) {
    if (C.Score < Best * Opts.RelativeCutoff)
      break;
    bool AtCap = Kept.size() >= Opts.MaxCandidates;
    // Keep ties at the cutoff so ambiguity is not broken arbitrarily.
    if (AtCap && C.Score < Kept.back().Score)
      break;
    Kept.push_back(C);
  }
  return Kept;
}

WordToApiMap WordToApiMatcher::mapGraph(const DependencyGraph &Graph,
                                        ApiCandidateCache *Cache,
                                        unsigned *CacheHits) const {
  WordToApiMap Map;
  Map.Candidates.reserve(Graph.size());
  unsigned Hits = 0;
  for (unsigned Id = 0; Id < Graph.size(); ++Id) {
    const DepNode &Node = Graph.node(Id);
    if (Cache) {
      std::string Key = ApiCandidateCache::keyFor(Node);
      if (std::optional<std::vector<ApiCandidate>> Hit = Cache->lookup(Key)) {
        Map.Candidates.push_back(std::move(*Hit));
        ++Hits;
        continue;
      }
      Map.Candidates.push_back(candidatesForNode(Node));
      Cache->insert(Key, Map.Candidates.back());
      continue;
    }
    Map.Candidates.push_back(candidatesForNode(Node));
  }
  if (CacheHits)
    *CacheHits = Hits;
  return Map;
}
