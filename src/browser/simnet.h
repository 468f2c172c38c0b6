//===- browser/simnet.h - Simulated TCP network ------------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-simulation TCP network. "Native" endpoints (servers the browser
/// talks to: the websockify wrapper of §5.3, echo services in tests, and the
/// in-runtime doppiod server of doppio/server/) use this API directly;
/// browser-side JavaScript can only reach the network through the WebSocket
/// layer built on top. Data delivery is asynchronous through the event loop
/// with the profile's network latency.
///
/// Lifetime: connection pairs are owned by the fabric and reaped once both
/// endpoints have closed, so a long-running server does not accumulate dead
/// connections. Holders of TcpConnection pointers must therefore drop them
/// when the connection closes (locally or via the close handler); in-flight
/// deliveries keep the endpoint alive until they drain.
///
/// Close ordering: a close follows any bytes already in flight, like a TCP
/// FIN — the peer's close handler never fires before previously-sent data
/// has been delivered.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BROWSER_SIMNET_H
#define DOPPIO_BROWSER_SIMNET_H

#include "browser/event_loop.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace doppio {
namespace browser {

class SimNet;

/// One side of an established duplex byte-stream connection.
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
public:
  /// Receives each delivered chunk as an rvalue, so a receiver may adopt
  /// its storage; a handler taking `const std::vector<uint8_t> &` works
  /// unchanged.
  using DataHandler = std::function<void(std::vector<uint8_t> &&)>;
  using CloseHandler = std::function<void()>;

  /// Sends bytes to the peer; they arrive as a later event.
  void send(std::vector<uint8_t> Data);

  /// Registers the receive handler. Any data that arrived before a handler
  /// was registered is delivered immediately.
  void setOnData(DataHandler H);
  void setOnClose(CloseHandler H) { OnClose = std::move(H); }

  /// Closes both directions. The peer's close handler fires as an event,
  /// ordered after any data already in flight (FIN semantics).
  void close();

  bool isOpen() const { return Open; }

private:
  friend class SimNet;
  TcpConnection(SimNet &Net) : Net(Net) {}

  void deliver(std::vector<uint8_t> Data);
  void peerClosed();

  SimNet &Net;
  TcpConnection *Peer = nullptr;
  bool Open = true;
  /// Virtual due time of the last data event scheduled toward the peer;
  /// a close is delivered no earlier than this (FIN ordering).
  uint64_t LastSendDueNs = 0;
  DataHandler OnData;
  CloseHandler OnClose;
  std::deque<std::vector<uint8_t>> Undelivered;
};

/// The network fabric: a port space for listeners plus connection storage.
class SimNet {
public:
  SimNet(EventLoop &Loop, const CostModel &Costs)
      : Loop(Loop), Costs(Costs) {}

  using AcceptHandler = std::function<void(TcpConnection &)>;

  /// Starts a listener on \p Port. Returns false if the port is taken.
  bool listen(uint16_t Port, AcceptHandler OnAccept);

  /// Stops listening on \p Port. Connects already in flight observe the
  /// port as closed (connection refused).
  void unlisten(uint16_t Port) { Listeners.erase(Port); }

  bool isListening(uint16_t Port) const { return Listeners.count(Port); }

  /// Opens a connection to \p Port. \p Done receives the client-side
  /// connection, or null if nothing is listening (connection refused).
  /// A listener that closes the server-side connection from inside its
  /// accept handler also refuses: \p Done receives null (the backlog
  /// overflow path of doppio/server/server_socket.h).
  /// Both the accept and the completion run as later events.
  void connect(uint16_t Port, std::function<void(TcpConnection *)> Done);

  /// Removes connection pairs where both endpoints have closed. Runs
  /// automatically (as a scheduled task) after a pair finishes closing;
  /// exposed for tests. Returns the number of endpoints reaped.
  size_t reapClosed();

  /// Endpoints currently owned by the fabric (2 per live connection).
  size_t liveConnections() const { return Connections.size(); }

  /// Connection pairs ever established (accepted connects).
  uint64_t totalConnections() const { return TotalConnections; }

  EventLoop &loop() { return Loop; }
  const CostModel &costs() const { return Costs; }

private:
  friend class TcpConnection;

  /// Called by an endpoint that just closed; schedules a reap sweep once
  /// its pair is fully dead.
  void noteClosed(TcpConnection &C);
  void scheduleReap();

  EventLoop &Loop;
  const CostModel &Costs;
  std::map<uint16_t, AcceptHandler> Listeners;
  // Owned connection endpoints. Scheduled deliveries hold shared_ptr
  // copies, so reaping a pair never invalidates an event in flight.
  std::vector<std::shared_ptr<TcpConnection>> Connections;
  bool ReapScheduled = false;
  uint64_t TotalConnections = 0;
};

} // namespace browser
} // namespace doppio

#endif // DOPPIO_BROWSER_SIMNET_H
