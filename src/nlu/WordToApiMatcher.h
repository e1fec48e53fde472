//===- nlu/WordToApiMatcher.h - WordToAPI (step 3) ----------------*- C++ -*-===//
///
/// \file
/// Step 3 of the HISyn pipeline: maps each node of the pruned dependency
/// graph to the APIs that may semantically match it, by NLU matching of
/// the node's phrase against the API names and descriptions (Section II).
/// Ambiguity is intentional and preserved — "start" maps to both START
/// and STARTFROM in the paper's Figure 3 — because downstream path search
/// and CGT minimization resolve it.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_NLU_WORDTOAPIMATCHER_H
#define DGGT_NLU_WORDTOAPIMATCHER_H

#include "nlp/DependencyGraph.h"
#include "nlu/ApiDocument.h"
#include "text/Thesaurus.h"

#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace dggt {

/// One candidate API for a dependency node.
struct ApiCandidate {
  unsigned ApiIndex; ///< Index into the ApiDocument.
  double Score;      ///< Higher is better; in [0, ~3].
};

/// The WordToAPI map: per dependency-node candidate lists, parallel to
/// the pruned graph's node ids.
struct WordToApiMap {
  std::vector<std::vector<ApiCandidate>> Candidates;

  const std::vector<ApiCandidate> &forNode(unsigned NodeId) const {
    return Candidates[NodeId];
  }
};

/// Tuning knobs of the matcher.
struct MatcherOptions {
  /// Keep at most this many candidates per node (ties at the cutoff are
  /// all kept, so ambiguity like {START, STARTFROM} survives).
  unsigned MaxCandidates = 4;
  /// Candidates scoring below BestScore * RelativeCutoff are dropped.
  double RelativeCutoff = 0.8;
  /// Minimum absolute score to be considered at all.
  double MinScore = 0.35;
  /// Semantic-role context: a node case-marked by a locative preposition
  /// ("in", "inside", "within", "per", "of") gets this bonus on APIs
  /// whose name contains LocativeNameWord. Empty disables the rule.
  /// TextEditing sets "scope" so "in every line" prefers LINESCOPE over
  /// LINETOKEN.
  std::string LocativeNameWord;
  double LocativeBoost = 0.5;
};

/// Point-in-time counters of one ApiCandidateCache.
struct ApiCandidateCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t Bytes = 0;
  uint64_t Entries = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Thread-safe LRU memo of candidatesForNode() results. The candidate
/// list for a dependency node is a pure function of the node's matching
/// inputs (word, phrase, POS tag, literal payload, case preposition)
/// given a fixed matcher — and one domain's matcher *is* fixed (document,
/// thesaurus and options are immutable after load) — so an exact-key hit
/// is bit-identical to rescoring. Natural-language queries against a
/// domain draw from a small vocabulary, which makes this the second-
/// biggest cross-query win after the path cache (WordToAPI is ~40% of
/// serial service time on the eval set).
///
/// One cache must only ever be used with one matcher; the service owns
/// one per domain, alongside that domain's PathCache.
class ApiCandidateCache {
public:
  /// \p Name labels the exported dggt_wordcache_* metrics (the owning
  /// domain's name); \p ByteBudget bounds the resident payload estimate.
  ApiCandidateCache(std::string Name, uint64_t ByteBudget);

  ApiCandidateCache(const ApiCandidateCache &) = delete;
  ApiCandidateCache &operator=(const ApiCandidateCache &) = delete;

  /// The cache key of \p Node: every DepNode field candidatesForNode()
  /// reads, separator-joined (field values never contain '\x1f').
  static std::string keyFor(const DepNode &Node);

  std::optional<std::vector<ApiCandidate>> lookup(const std::string &Key);
  void insert(const std::string &Key, const std::vector<ApiCandidate> &V);
  void invalidateAll();

  ApiCandidateCacheStats stats() const;

  /// The configured byte budget (fill ratio = stats().Bytes / budget).
  uint64_t byteBudget() const { return ByteBudget; }

private:
  std::string Name;
  uint64_t ByteBudget;
  struct Entry {
    std::string Key;
    std::vector<ApiCandidate> Value;
    uint64_t Bytes = 0;
  };
  mutable std::mutex M;
  std::list<Entry> Lru; ///< MRU front.
  std::unordered_map<std::string, std::list<Entry>::iterator> Table;
  uint64_t Bytes = 0;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Evictions{0};
};

/// NLU word/phrase -> API matcher.
class WordToApiMatcher {
public:
  WordToApiMatcher(const ApiDocument &Doc, const Thesaurus &Syn,
                   MatcherOptions Opts = {});

  /// Builds the WordToAPI map for every node of \p Graph.
  ///
  /// Literal nodes map to the document's literal-only pseudo-APIs of the
  /// matching kind; phrase nodes are scored against names (weight 2) and
  /// descriptions (weight 1) on Porter stems with thesaurus expansion.
  ///
  /// With a non-null \p Cache (which must be dedicated to this matcher),
  /// per-node candidate lists are memoized across queries. A non-null
  /// \p CacheHits receives the number of nodes this call answered from
  /// the cache (the cache's own stats are shared with other callers).
  WordToApiMap mapGraph(const DependencyGraph &Graph,
                        ApiCandidateCache *Cache = nullptr,
                        unsigned *CacheHits = nullptr) const;

  /// Scores a single phrase against a single API (exposed for tests and
  /// for the matcher ablation bench).
  double scorePhrase(const std::vector<std::string> &Phrase,
                     const ApiInfo &Api) const;

private:
  /// Precomputed synonym-lookup inputs of one token, exactly what
  /// Thesaurus::areSynonyms derives per call: the lower-cased form, its
  /// Porter re-stem, and the sorted thesaurus group ids. Hoisting them
  /// out of the per-(word, API) scoring loop is the matcher's main cost
  /// win; the comparison result is unchanged.
  struct TokenInfo {
    std::string Lower;
    std::string Restem;
    std::vector<unsigned> Groups;
  };
  /// One query-phrase word, pre-stemmed once per node instead of once
  /// per (node, API) pair.
  struct PhraseWordInfo {
    std::string Stem; ///< porterStem(toLower(word)) — the match key.
    TokenInfo Info;
  };

  std::vector<ApiCandidate> candidatesForNode(const DepNode &Node) const;
  /// Context bonus from the node's case-marking preposition.
  double contextBoost(const DepNode &Node, const ApiInfo &Api) const;
  std::vector<ApiCandidate> literalCandidates(const DepNode &Node) const;
  /// scorePhrase() against the pre-stemmed phrase, by document index.
  double scorePhraseInfos(const std::vector<PhraseWordInfo> &Phrase,
                          unsigned ApiIndex) const;
  TokenInfo tokenInfo(const std::string &Token) const;

  const ApiDocument &Doc;
  const Thesaurus &Syn;
  MatcherOptions Opts;

  /// Pre-tokenized, pre-stemmed API corpora (parallel to Doc indices).
  struct ApiTokens {
    std::vector<std::string> NameStems;
    std::vector<std::string> DescStems;
    std::vector<TokenInfo> NameInfo; ///< Parallel to NameStems.
    std::vector<TokenInfo> DescInfo; ///< Parallel to DescStems.
  };
  std::vector<ApiTokens> Tokens;
};

} // namespace dggt

#endif // DGGT_NLU_WORDTOAPIMATCHER_H
