// presto_cell: the federation's per-process cell worker.
//
// Two bootstrap modes share one worker loop:
//
//   presto_cell <socket-fd> <ring-fd>
//                                    fork mode. A Federation with
//                                    cell_processes > 1 forks one per process
//                                    slot, passing its end of a socketpair
//                                    (doorbells and death) and the memfd of the
//                                    shared frame rings (the bytes; see
//                                    FrameRing in src/net/fed_wire.h). Never
//                                    run by hand.
//
//   presto_cell --listen <port>      socket mode. Binds 0.0.0.0:<port> (0 picks
//                [--once]            an ephemeral port), announces
//                                    `PRESTO_CELL_LISTENING <port>` on stdout,
//                                    and serves orchestrator connections — this
//                                    is what runs on the other machines named in
//                                    FederationConfig::cell_endpoints. --once
//                                    exits after the first connection ends.
//
// Everything else (config, hosted cells, stepping) arrives as fed_wire frames;
// see src/core/cell_worker.h for the protocol.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "src/core/cell_worker.h"
#include "src/net/fed_wire.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: presto_cell <socket-fd> <ring-fd>\n"
               "       presto_cell --listen <port> [--once]\n"
               "(fd mode is spawned by a presto Federation; --listen hosts\n"
               " cells for an orchestrator that lists this worker's address\n"
               " in FederationConfig::cell_endpoints)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 3 && std::strcmp(argv[1], "--listen") == 0) {
    bool once = false;
    if (argc == 4 && std::strcmp(argv[3], "--once") == 0) {
      once = true;
    } else if (argc != 3) {
      return Usage();
    }
    char* end = nullptr;
    const long port = std::strtol(argv[2], &end, 10);
    if (end == argv[2] || *end != '\0' || port < 0 || port > 65535) {
      std::fprintf(stderr, "presto_cell: bad listen port '%s'\n", argv[2]);
      return 2;
    }
    // 5s covers any real handshake while bounding a half-open or slow-loris
    // connector; the orchestrator's own connect deadline is typically longer.
    return presto::RunCellWorkerListenLoop(static_cast<uint16_t>(port),
                                           presto::Seconds(5), once);
  }
  if (argc != 3) {
    return Usage();
  }
  const int fd = std::atoi(argv[1]);
  const int ring_fd = std::atoi(argv[2]);
  // Refuse stdio and garbage ("0" from non-numeric input).
  if (fd <= 2 || ring_fd <= 2 || ring_fd == fd) {
    std::fprintf(stderr, "presto_cell: bad socket or ring fd '%s' '%s'\n", argv[1],
                 argv[2]);
    return 2;
  }
  auto ring = presto::FrameRing::Map(ring_fd);
  if (!ring.ok()) {
    std::fprintf(stderr, "presto_cell: %s\n", ring.status().message().c_str());
    return 1;
  }
  presto::FrameChannel channel(fd, std::move(*ring), presto::FrameRing::End::kWorker);
  presto::CellWorker worker(&channel);
  return worker.Serve();
}
