//===- browser/simnet.cpp -------------------------------------------------==//

#include "browser/simnet.h"

#include <algorithm>

using namespace doppio;
using namespace doppio::browser;

void TcpConnection::send(std::vector<uint8_t> Data) {
  if (!Open || !Peer || Data.empty())
    return;
  uint64_t Latency =
      Net.Costs.NetLatencyNs + Net.Costs.XhrPerByteNs * Data.size();
  uint64_t NowNs = Net.Loop.clock().nowNs();
  // TCP is FIFO: a short message must not overtake an earlier long one
  // whose per-byte latency put its delivery later. Each send is due no
  // earlier than every send before it (and close() orders the FIN after
  // LastSendDueNs, so data never races the connection teardown either).
  uint64_t DueNs = std::max(LastSendDueNs, NowNs + Latency);
  LastSendDueNs = DueNs;
  // Wire delivery is an I/O completion: the kernel keeps FIFO order for
  // equal due times (heap ties break on insertion sequence).
  Net.Loop.postAfter(
      kernel::Lane::IoCompletion,
      [Dest = Peer->shared_from_this(), Data = std::move(Data)]() mutable {
        Dest->deliver(std::move(Data));
      },
      DueNs - NowNs);
}

void TcpConnection::setOnData(DataHandler H) {
  OnData = std::move(H);
  while (OnData && !Undelivered.empty()) {
    std::vector<uint8_t> Data = std::move(Undelivered.front());
    Undelivered.pop_front();
    OnData(std::move(Data));
  }
}

void TcpConnection::deliver(std::vector<uint8_t> Data) {
  if (!Open)
    return;
  if (!OnData) {
    Undelivered.push_back(std::move(Data));
    return;
  }
  OnData(std::move(Data));
}

void TcpConnection::close() {
  if (!Open)
    return;
  Open = false;
  if (Peer) {
    // FIN ordering: the close is delivered no earlier than the last data
    // event already scheduled toward the peer.
    uint64_t Delay = Net.Costs.NetLatencyNs;
    uint64_t NowNs = Net.Loop.clock().nowNs();
    if (LastSendDueNs > NowNs)
      Delay = std::max(Delay, LastSendDueNs - NowNs);
    Net.Loop.postAfter(kernel::Lane::IoCompletion,
                       [Dest = Peer->shared_from_this()] {
                         Dest->peerClosed();
                       },
                       Delay);
  }
  Net.noteClosed(*this);
}

void TcpConnection::peerClosed() {
  if (!Open)
    return;
  Open = false;
  if (OnClose)
    OnClose();
  Net.noteClosed(*this);
}

bool SimNet::listen(uint16_t Port, AcceptHandler OnAccept) {
  auto [It, Inserted] = Listeners.emplace(Port, std::move(OnAccept));
  return Inserted;
}

void SimNet::connect(uint16_t Port,
                     std::function<void(TcpConnection *)> Done) {
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [this, Port, Done = std::move(Done)] {
        auto It = Listeners.find(Port);
        if (It == Listeners.end()) {
          Done(nullptr);
          return;
        }
        auto ClientSide =
            std::shared_ptr<TcpConnection>(new TcpConnection(*this));
        auto ServerSide =
            std::shared_ptr<TcpConnection>(new TcpConnection(*this));
        ClientSide->Peer = ServerSide.get();
        ServerSide->Peer = ClientSide.get();
        Connections.push_back(ClientSide);
        Connections.push_back(ServerSide);
        ++TotalConnections;
        It->second(*ServerSide);
        // A listener that closed the connection inside its accept handler
        // refused it (e.g. accept-queue overflow): the client observes
        // ECONNREFUSED instead of an instantly-dead pipe.
        if (!ServerSide->isOpen()) {
          ClientSide->close();
          Done(nullptr);
          return;
        }
        Done(ClientSide.get());
      },
      Costs.NetLatencyNs);
}

size_t SimNet::reapClosed() {
  size_t Before = Connections.size();
  // Pairs die atomically: an endpoint is reapable only once its peer is
  // closed too, so no survivor is ever left with a dangling Peer pointer.
  std::erase_if(Connections, [](const std::shared_ptr<TcpConnection> &C) {
    return !C->Open && (!C->Peer || !C->Peer->Open);
  });
  return Before - Connections.size();
}

void SimNet::noteClosed(TcpConnection &C) {
  if (!C.Peer || !C.Peer->Open)
    scheduleReap();
}

void SimNet::scheduleReap() {
  if (ReapScheduled)
    return;
  ReapScheduled = true;
  // Deferred: the endpoints may still be on the call stack (a close handler
  // running inside a delivery event). Reaping is cleanup, so it rides the
  // lowest-priority lane — behind any pending deliveries and input.
  Loop.post(kernel::Lane::Background, [this] {
    ReapScheduled = false;
    reapClosed();
  });
}
