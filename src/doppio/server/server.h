//===- doppio/server/server.h - the doppiod connection manager ----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// doppiod: a multi-client server running *inside* the Doppio runtime.
/// §5.3 emulates only the client side of Unix sockets and leaves serving to
/// an external websockify process; Browsix (PAPERS.md) closed that gap by
/// hosting server sockets in the browser runtime, and this subsystem is the
/// equivalent here — the piece that turns the repo from a client-only
/// runtime into a client+server system the benchmarks can load-test.
///
/// The Server owns a ServerSocket and every accepted connection. Per
/// connection it runs the doppiod frame protocol (doppio/server/frame.h),
/// routes requests through a Router, enforces an idle timeout, and caps
/// concurrent connections with backpressure: at the cap it simply stops
/// accepting, so newcomers queue in the listen backlog and overflow into
/// ECONNREFUSED — never an unbounded connection table.
///
/// Graceful shutdown drains: the listener closes (new connects are
/// refused), idle connections close immediately, busy connections finish
/// their in-flight requests, every response reaches the wire before the FIN
/// (SimNet orders close after data), and the completion callback fires once
/// ServerStats.Active reaches zero. Both drain and destruction cancel the
/// idle-sweep timer, so a drained (or killed) server leaves zero pending
/// kernel work behind — the property a drained cluster shard's quiescence
/// check relies on (doppio/cluster/).
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SERVER_SERVER_H
#define DOPPIO_DOPPIO_SERVER_SERVER_H

#include "browser/env.h"
#include "doppio/server/frame.h"
#include "doppio/server/router.h"
#include "doppio/server/server_socket.h"
#include "doppio/server/stats.h"

#include <cstdint>
#include <map>
#include <memory>

namespace doppio {
namespace rt {
namespace server {

/// The doppiod connection manager.
class Server {
public:
  struct Config {
    uint16_t Port = 7000;
    /// Listen backlog: pending connections beyond this are refused.
    size_t Backlog = 16;
    /// Concurrent-connection cap; at the cap the server stops accepting
    /// (backpressure into the backlog).
    size_t MaxConnections = 256;
    /// Connections idle this long (no data, no request in flight) are
    /// closed by the sweep. 0 disables idle reaping.
    uint64_t IdleTimeoutNs = browser::msToNs(100);
  };

  explicit Server(browser::BrowserEnv &Env) : Server(Env, Config()) {}
  Server(browser::BrowserEnv &Env, Config Cfg);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Handler registration lives on the router.
  Router &router() { return Routes; }

  /// Starts listening. Returns false if the port is taken or the server is
  /// already running.
  bool start();

  bool isRunning() const { return Running; }

  /// Graceful shutdown: refuse new connects, drain in-flight requests,
  /// close every connection, then fire \p Done (immediately if already
  /// idle). Run the event loop to completion for the drain to happen.
  void shutdown(std::function<void()> Done = nullptr);

  /// Counter snapshot (merges the socket's refusal count). Assembled from
  /// this server's `server.*` registry cells; the service-time samples
  /// come back verbatim from the server.service_ns histogram, so p50/p99
  /// stay bit-identical to the pre-registry implementation.
  ServerStats stats() const;

  const Config &config() const { return Cfg; }
  ServerSocket &socket() { return Sock; }

private:
  struct Conn {
    uint64_t Id = 0;
    browser::TcpConnection *Tcp = nullptr;
    frame::Decoder Decode;
    uint64_t LastActiveNs = 0;
    uint32_t InFlight = 0;
    /// The wire protocol has no request ids, so pipelined responses must
    /// leave in request order even when handlers complete out of order:
    /// each request takes a sequence number, and a response that completes
    /// ahead of an earlier one waits in Ready until its turn.
    uint64_t NextSeq = 0;
    uint64_t NextToSend = 0;
    std::map<uint64_t, std::vector<uint8_t>> Ready;
  };

  enum class CloseReason { PeerClosed, Idle, Shutdown, ProtocolError };

  uint64_t nowNs() const;
  /// Resolves this server's registry cells under a claimed "server"
  /// prefix.
  void bindCells();
  void acceptNext();
  void onAccepted(browser::TcpConnection &T);
  void onData(uint64_t Id, std::vector<uint8_t> &&Data);
  void serveRequest(uint64_t Id, Conn &C, frame::ByteView Payload);
  void finishRequest(uint64_t Id, uint64_t Seq, uint64_t StartNs,
                     obs::SpanId Span, frame::Status St,
                     frame::ByteView Body);
  void closeConn(uint64_t Id, CloseReason Why);
  void armIdleSweep();
  void idleSweep();
  void maybeFinishShutdown();

  browser::BrowserEnv &Env;
  Config Cfg;
  ServerSocket Sock;
  Router Routes;
  obs::Counter *AcceptedC = nullptr;
  obs::Counter *RefusedC = nullptr;
  obs::Gauge *ActiveG = nullptr;
  obs::Counter *IdleClosedC = nullptr;
  obs::Counter *BytesInC = nullptr;
  obs::Counter *BytesOutC = nullptr;
  obs::Counter *RequestsServedC = nullptr;
  obs::Counter *RequestErrorsC = nullptr;
  /// Keeps exact samples: ServerStats::ServiceNs is served verbatim from
  /// here, so fig7's percentiles cannot move.
  obs::Histogram *ServiceNsH = nullptr;
  std::map<uint64_t, std::unique_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
  bool Running = false;
  bool AcceptArmed = false;
  bool Draining = false;
  /// Pending idle-sweep timer. TimerHandle::cancel covers both the heap
  /// entry and a sweep already promoted but not yet run.
  browser::TimerHandle Sweep;
  std::function<void()> OnDrained;
};

} // namespace server
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SERVER_SERVER_H
