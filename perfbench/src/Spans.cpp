//===- perfbench/src/Spans.cpp - In-memory span log ----------------------===//

#include "Spans.h"

#include <fstream>

using namespace perfbench;

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::ofstream Out(Path);
  if (!Out)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << "{\"id\":" << I << ",\"name\":\"" << S.Name
        << "\",\"parent\":" << S.Parent << ",\"query\":" << S.Query
        << ",\"start_ns\":" << S.StartNs << ",\"end_ns\":" << S.EndNs
        << "}\n";
  }
  return static_cast<bool>(Out);
}
