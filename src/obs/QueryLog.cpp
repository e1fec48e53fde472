//===- obs/QueryLog.cpp - Wide-event per-query log ------------------------===//

#include "obs/QueryLog.h"

#include "obs/Export.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace dggt;
using namespace dggt::obs;

namespace {

std::atomic<size_t> QueryTextCap{256};

void appendNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

/// Length of the UTF-8 sequence led by \p Lead, or 0 when \p Lead is not
/// a valid lead byte.
size_t utf8SeqLen(unsigned char Lead) {
  if (Lead < 0x80)
    return 1;
  if ((Lead & 0xE0) == 0xC0)
    return Lead >= 0xC2 ? 2 : 0; // C0/C1 are overlong encodings.
  if ((Lead & 0xF0) == 0xE0)
    return 3;
  if ((Lead & 0xF8) == 0xF0)
    return Lead <= 0xF4 ? 4 : 0;
  return 0;
}

} // namespace

std::string dggt::obs::sanitizeQueryText(std::string_view Text,
                                         size_t CapBytes) {
  static const char Replacement[] = "\xef\xbf\xbd"; // U+FFFD
  static const char Ellipsis[] = "\xe2\x80\xa6";    // U+2026
  std::string Out;
  Out.reserve(Text.size() < CapBytes ? Text.size() : CapBytes);
  bool Truncated = false;
  size_t I = 0;
  while (I < Text.size()) {
    unsigned char Lead = static_cast<unsigned char>(Text[I]);
    size_t Len = utf8SeqLen(Lead);
    bool Valid = Len > 0 && I + Len <= Text.size();
    if (Valid)
      for (size_t J = 1; J < Len; ++J)
        if ((static_cast<unsigned char>(Text[I + J]) & 0xC0) != 0x80) {
          Valid = false;
          break;
        }
    const char *Piece = Valid ? Text.data() + I : Replacement;
    size_t PieceLen = Valid ? Len : sizeof(Replacement) - 1;
    if (Out.size() + PieceLen > CapBytes) {
      Truncated = true;
      break;
    }
    Out.append(Piece, PieceLen);
    I += Valid ? Len : 1;
  }
  if (Truncated)
    Out += Ellipsis;
  return Out;
}

std::string dggt::obs::sanitizeQueryText(std::string_view Text) {
  return sanitizeQueryText(Text, queryTextCapBytes());
}

size_t dggt::obs::queryTextCapBytes() {
  return QueryTextCap.load(std::memory_order_relaxed);
}

void dggt::obs::setQueryTextCapBytes(size_t CapBytes) {
  QueryTextCap.store(CapBytes == 0 ? 1 : CapBytes,
                     std::memory_order_relaxed);
}

std::string dggt::obs::queryLogRecordJson(const QueryLogRecord &R) {
  std::string Out;
  Out.reserve(256);
  Out += "{\"trace_id\":\"";
  Out += escapeJson(R.TraceId);
  Out += "\",\"domain\":\"";
  Out += escapeJson(R.Domain);
  Out += "\",\"query\":\"";
  Out += escapeJson(R.Query);
  Out += "\",\"outcome\":\"";
  Out += escapeJson(R.Outcome);
  Out += "\",\"rung\":\"";
  Out += escapeJson(R.Rung);
  Out += "\",\"gate\":\"";
  Out += escapeJson(R.Gate);
  Out += "\",\"attempts\":";
  Out += std::to_string(R.Attempts);
  Out += ",\"retries\":";
  Out += std::to_string(R.Retries);
  Out += ",\"queue_wait_ms\":";
  appendNumber(Out, R.QueueWaitMs);
  Out += ",\"stage_ms\":{";
  for (size_t I = 0; I < 4; ++I) {
    if (I)
      Out += ',';
    Out += '"';
    Out += QueryStageNames[I];
    Out += "\":";
    appendNumber(Out, R.StageMs[I]);
  }
  Out += "},\"total_ms\":";
  appendNumber(Out, R.TotalMs);
  Out += ",\"path_cache_hit\":";
  Out += R.PathCacheHit ? "true" : "false";
  Out += ",\"word_cache_hit\":";
  Out += R.WordCacheHit ? "true" : "false";
  Out += ",\"cost\":";
  Out += costCountersJson(R.Cost);
  Out += ",\"budget_ms\":";
  Out += std::to_string(R.BudgetMs);
  Out += ",\"trace_kept\":";
  Out += R.TraceKept ? "true" : "false";
  Out += ",\"ts\":";
  appendNumber(Out, R.WallSeconds);
  Out += '}';
  return Out;
}

QueryLog &QueryLog::instance() {
  // Intentionally leaked, like the metrics registry: records written
  // from static destructors must find a live log.
  static QueryLog *L = new QueryLog();
  return *L;
}

void QueryLog::configureRing(size_t Capacity) {
  std::lock_guard<std::mutex> Lk(M);
  if (Capacity == 0)
    Capacity = 1;
  // Re-linearize oldest-first, then keep the newest Capacity records.
  std::vector<std::shared_ptr<const QueryLogRecord>> Ordered;
  Ordered.reserve(Ring.size());
  if (!Wrapped) {
    Ordered = Ring;
  } else {
    for (size_t I = 0; I < Ring.size(); ++I)
      Ordered.push_back(Ring[(Next + I) % Ring.size()]);
  }
  if (Ordered.size() > Capacity)
    Ordered.erase(Ordered.begin(),
                  Ordered.begin() + (Ordered.size() - Capacity));
  Ring = std::move(Ordered);
  Cap = Capacity;
  Next = Ring.size() % Cap;
  Wrapped = Ring.size() == Cap;
}

size_t QueryLog::ringCapacity() const {
  std::lock_guard<std::mutex> Lk(M);
  return Cap;
}

bool QueryLog::setJsonlPath(const std::string &Path) {
  std::lock_guard<std::mutex> Lk(M);
  if (Path.empty()) {
    OwnedOut.reset();
    Out = nullptr;
    return true;
  }
  if (Path == "stderr") {
    OwnedOut.reset();
    Out = &std::cerr;
    return true;
  }
  if (Path == "stdout") {
    OwnedOut.reset();
    Out = &std::cout;
    return true;
  }
  auto File = std::make_unique<std::ofstream>(Path, std::ios::trunc);
  if (!*File)
    return false;
  OwnedOut = std::move(File);
  Out = OwnedOut.get();
  return true;
}

void QueryLog::record(QueryLogRecord R) {
  R.WallSeconds = std::chrono::duration<double>(
                      std::chrono::system_clock::now().time_since_epoch())
                      .count();
  auto Rec = std::make_shared<const QueryLogRecord>(std::move(R));
  std::lock_guard<std::mutex> Lk(M);
  ++Total;
  if (Ring.size() < Cap) {
    Ring.push_back(Rec);
    Next = Ring.size() % Cap;
  } else {
    Ring[Next] = Rec;
    Next = (Next + 1) % Cap;
    Wrapped = true;
    ++Overwritten;
  }
  if (Out) {
    *Out << queryLogRecordJson(*Rec) << '\n';
    Out->flush();
  }
}

std::vector<QueryLogRecord> QueryLog::snapshot() const {
  std::lock_guard<std::mutex> Lk(M);
  std::vector<QueryLogRecord> Snap;
  Snap.reserve(Ring.size());
  if (!Wrapped) {
    for (const auto &Rec : Ring)
      Snap.push_back(*Rec);
    return Snap;
  }
  for (size_t I = 0; I < Ring.size(); ++I)
    Snap.push_back(*Ring[(Next + I) % Ring.size()]);
  return Snap;
}

std::shared_ptr<const QueryLogRecord>
QueryLog::findByTraceId(std::string_view TraceId) const {
  std::lock_guard<std::mutex> Lk(M);
  // Newest-first so a reused ring slot resolves to the live record.
  for (size_t I = Ring.size(); I > 0; --I) {
    const auto &Rec =
        Wrapped ? Ring[(Next + I - 1) % Ring.size()] : Ring[I - 1];
    if (Rec && Rec->TraceId == TraceId)
      return Rec;
  }
  return nullptr;
}

uint64_t QueryLog::total() const {
  std::lock_guard<std::mutex> Lk(M);
  return Total;
}

uint64_t QueryLog::overwritten() const {
  std::lock_guard<std::mutex> Lk(M);
  return Overwritten;
}

void QueryLog::resetForTest() {
  std::lock_guard<std::mutex> Lk(M);
  Ring.clear();
  Next = 0;
  Wrapped = false;
  Total = 0;
  Overwritten = 0;
  OwnedOut.reset();
  Out = nullptr;
}
