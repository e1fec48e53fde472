//===- perfbench/src/Http.cpp - Loopback data-plane client ---------------===//

#include "Http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

std::string escape(const std::string &S) {
  std::string Out;
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out;
}

/// Owns one socket descriptor.
class Socket {
public:
  Socket() : Fd(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Socket() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  int fd() const { return Fd; }

private:
  int Fd;
};

bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

std::string perfbench::jsonString(const std::string &Body,
                                  const std::string &Key) {
  std::string Needle = "\"" + Key + "\":\"";
  size_t P = Body.find(Needle);
  if (P == std::string::npos)
    return "";
  std::string Out;
  for (size_t I = P + Needle.size(); I < Body.size(); ++I) {
    char C = Body[I];
    if (C == '"')
      return Out;
    if (C != '\\') {
      Out += C;
      continue;
    }
    if (++I >= Body.size())
      break;
    switch (Body[I]) {
    case 'n':
      Out += '\n';
      break;
    case 't':
      Out += '\t';
      break;
    case 'r':
      Out += '\r';
      break;
    case 'b':
      Out += '\b';
      break;
    case 'f':
      Out += '\f';
      break;
    case 'u':
      if (I + 4 < Body.size()) {
        unsigned long V = std::strtoul(Body.substr(I + 1, 4).c_str(),
                                       nullptr, 16);
        Out += V < 0x80 ? static_cast<char>(V) : '?';
        I += 4;
      }
      break;
    default:
      Out += Body[I];
    }
  }
  return "";
}

HttpReply perfbench::postSynthesize(uint16_t Port, const std::string &Domain,
                                    const std::string &Query,
                                    uint64_t BudgetMs) {
  HttpReply Reply;
  Socket S;
  if (S.fd() < 0)
    return Reply;
  int One = 1;
  ::setsockopt(S.fd(), IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(S.fd(), reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return Reply;

  std::string Body = "{\"query\":\"" + escape(Query) + "\",\"domain\":\"" +
                     escape(Domain) +
                     "\",\"budget_ms\":" + std::to_string(BudgetMs) + "}";
  std::string Request = "POST /v1/synthesize HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                        "Content-Type: application/json\r\nContent-Length: " +
                        std::to_string(Body.size()) +
                        "\r\nConnection: close\r\n\r\n" + Body;
  if (!sendAll(S.fd(), Request))
    return Reply;

  std::string Response;
  char Buf[4096];
  while (true) {
    ssize_t N = ::recv(S.fd(), Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Response.append(Buf, static_cast<size_t>(N));
  }
  // "HTTP/1.1 200 OK\r\n...\r\n\r\n{body}"
  if (Response.rfind("HTTP/1.", 0) != 0 || Response.size() < 12)
    return Reply;
  int Code = std::atoi(Response.c_str() + 9);
  size_t BodyAt = Response.find("\r\n\r\n");
  if (BodyAt == std::string::npos)
    return Reply;
  std::string JsonBody = Response.substr(BodyAt + 4);
  Reply.Code = Code;
  Reply.Status = jsonString(JsonBody, "status");
  Reply.Codelet = jsonString(JsonBody, "codelet");
  return Reply;
}
