//===- tests/LoopbackHttp.h - Raw loopback HTTP client ----------*- C++ -*-===//
///
/// \file
/// A minimal blocking HTTP/1.1 client over a raw loopback socket, shared
/// by the endpoint and entry-point suites. Raw on purpose: the server's
/// parser is strict, and a real HTTP library would quietly normalize
/// exactly the malformed inputs the endpoint tests need to send.
///
//===----------------------------------------------------------------------===//

#ifndef DGGT_TESTS_LOOPBACKHTTP_H
#define DGGT_TESTS_LOOPBACKHTTP_H

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <string>

namespace dggt::test {

/// One parsed HTTP response (enough structure for assertions).
struct Response {
  int Code = 0;        ///< 0 when the connection itself failed.
  std::string Head;    ///< Status line + headers.
  std::string Body;
};

/// Sends \p Bytes verbatim to 127.0.0.1:\p Port and reads to EOF (the
/// server closes after one response).
inline std::string rawExchange(uint16_t Port, const std::string &Bytes) {
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return "";
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    close(Fd);
    return "";
  }
  size_t Off = 0;
  while (Off < Bytes.size()) {
    ssize_t N = send(Fd, Bytes.data() + Off, Bytes.size() - Off, 0);
    if (N <= 0)
      break;
    Off += static_cast<size_t>(N);
  }
  std::string Out;
  char Buf[4096];
  ssize_t R;
  while ((R = read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(R));
  close(Fd);
  return Out;
}

inline Response parseResponse(const std::string &Raw) {
  Response Rep;
  if (Raw.size() < 12 || Raw.compare(0, 9, "HTTP/1.1 ") != 0)
    return Rep;
  Rep.Code = std::atoi(Raw.c_str() + 9);
  size_t HeadEnd = Raw.find("\r\n\r\n");
  if (HeadEnd == std::string::npos)
    return Rep;
  Rep.Head = Raw.substr(0, HeadEnd);
  Rep.Body = Raw.substr(HeadEnd + 4);
  return Rep;
}

inline Response get(uint16_t Port, const std::string &Target) {
  return parseResponse(rawExchange(
      Port, "GET " + Target + " HTTP/1.1\r\nHost: localhost\r\n\r\n"));
}

/// Frames one POST /v1/synthesize with a correct Content-Length.
inline std::string postFrame(const std::string &Body) {
  return "POST /v1/synthesize HTTP/1.1\r\nHost: localhost\r\n"
         "Content-Length: " +
         std::to_string(Body.size()) + "\r\n\r\n" + Body;
}

inline Response post(uint16_t Port, const std::string &Body) {
  return parseResponse(rawExchange(Port, postFrame(Body)));
}

} // namespace dggt::test

#endif // DGGT_TESTS_LOOPBACKHTTP_H
