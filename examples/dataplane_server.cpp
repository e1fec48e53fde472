//===- examples/dataplane_server.cpp - Query data-plane walkthrough -------===//
//
// Stands up the query data plane: one AsyncSynthesisService over both
// paper domains whose service owns the HTTP endpoint, so POST
// /v1/synthesize goes HttpEndpoint → AsyncSynthesisService →
// SynthesisService and answers with the service report:
//
//   ./dataplane_server --serve 30
//   curl -d '{"domain":"TextEditing","query":"sort all lines"}'
//        http://127.0.0.1:<announced port>/v1/synthesize
//
// Flags:
//   --port P          endpoint port (default 0 = ephemeral, announced)
//   --serve SECONDS   how long to serve before draining and exiting
//                     (default 30)
//
// DGGT_METRICS (qlog:, trace:, prof:, ...) configures observability as
// in every service process, and DGGT_FAULTS arms fault points as in the
// eval harness (e.g. `service.transient=every:2` retries every other
// ladder attempt). The `check-querylog` and `check-profile` build
// targets drive this binary end to end.
//
//===----------------------------------------------------------------------===//

#include "eval/Harness.h"
#include "service/AsyncSynthesisService.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

using namespace dggt;

int main(int argc, char **argv) {
  long Port = 0;
  int Seconds = 30;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (Arg == "--port" && I + 1 < argc)
      Port = std::atol(argv[++I]);
    else if (Arg == "--serve" && I + 1 < argc)
      Seconds = std::atoi(argv[++I]);
    else {
      std::fprintf(stderr, "usage: %s [--port P] [--serve SECONDS]\n",
                   argv[0]);
      return 2;
    }
  }
  if (Port < 0 || Port > 65535) {
    std::fprintf(stderr, "--port must be 0..65535\n");
    return 2;
  }

  applyHarnessFaultSpec();
  std::unique_ptr<Domain> TextEditing = makeTextEditingDomain();
  std::unique_ptr<Domain> AstMatcher = makeAstMatcherDomain();

  // The service owns the endpoint, and the async layer registers itself
  // as its POST /v1/synthesize, /statusz and health provider.
  AsyncOptions AO;
  AO.Workers = 2;
  AO.QueueCap = 64;
  AO.Service.HttpPort = static_cast<uint16_t>(Port);
  AsyncSynthesisService Service(AO);
  Service.addDomain(*TextEditing);
  Service.addDomain(*AstMatcher);
  if (!Service.service().endpoint()) {
    std::fprintf(stderr, "endpoint failed to start on port %ld\n", Port);
    return 1;
  }

  std::fprintf(stderr, "dataplane-server: serving %d s\n", Seconds);
  std::this_thread::sleep_for(std::chrono::seconds(Seconds));
  Service.drain();
  return 0;
}
