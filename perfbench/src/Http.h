//===- perfbench/src/Http.h - Loopback data-plane client --------*- C++ -*-===//
///
/// \file
/// The benchmark's HTTP client for POST /v1/synthesize: one blocking
/// loopback connection per request (the endpoint closes every
/// connection after one response), and just enough JSON reading to pull
/// the status and codelet out of the reply.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HTTP_H
#define PERFBENCH_HTTP_H

#include <cstdint>
#include <string>

namespace perfbench {

struct HttpReply {
  int Code = 0;       ///< HTTP status; 0 when the exchange failed.
  std::string Status; ///< The body's "status" field.
  std::string Codelet; ///< The body's "codelet" field (Ok only).
};

/// Posts one query to 127.0.0.1:\p Port and waits for the reply.
HttpReply postSynthesize(uint16_t Port, const std::string &Domain,
                         const std::string &Query, uint64_t BudgetMs);

/// The string value of \p Key in the flat JSON object \p Body, or "".
std::string jsonString(const std::string &Body, const std::string &Key);

} // namespace perfbench

#endif // PERFBENCH_HTTP_H
