//===- doppio/cluster/fabric.cpp ------------------------------------------==//

#include "doppio/cluster/fabric.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace doppio;
using namespace doppio::cluster;
using browser::TcpConnection;

Fabric::~Fabric() = default;

TabId Fabric::attach(browser::BrowserEnv &Env) {
  auto T = std::make_unique<Tab>();
  T->Env = &Env;
  T->Id = static_cast<TabId>(Tabs.size());
  Tabs.push_back(std::move(T));
  return Tabs.back()->Id;
}

//===----------------------------------------------------------------------===//
// Endpoint
//===----------------------------------------------------------------------===//

void Fabric::Endpoint::send(std::vector<uint8_t> Data) {
  if (!Open)
    return;
  Mail M;
  M.K = Mail::Kind::Data;
  M.From = Tab;
  M.Link = Link;
  M.Data = std::move(Data);
  Fab.post(Peer, std::move(M));
}

void Fabric::Endpoint::setOnData(DataHandler H) {
  OnData = std::move(H);
  while (OnData && !Undelivered.empty()) {
    std::vector<uint8_t> D = std::move(Undelivered.front());
    Undelivered.pop_front();
    OnData(std::move(D));
  }
}

void Fabric::Endpoint::deliver(std::vector<uint8_t> Data) {
  if (!Open)
    return;
  if (OnData)
    OnData(std::move(Data));
  else
    Undelivered.push_back(std::move(Data));
}

void Fabric::Endpoint::close() {
  if (!Open)
    return;
  Open = false;
  Mail M;
  M.K = Mail::Kind::Close;
  M.From = Tab;
  M.Link = Link;
  Fab.post(Peer, std::move(M));
  Fab.reapEndpoint(Tab, Link);
}

//===----------------------------------------------------------------------===//
// Connect / control plane
//===----------------------------------------------------------------------===//

void Fabric::connect(TabId Src, TabId Dst, uint16_t Port,
                     std::function<void(Endpoint *)> Done) {
  assert(Src < Tabs.size() && Dst < Tabs.size());
  uint64_t Link = NextLink.fetch_add(1);
  Tabs[Src]->PendingConnects.emplace(Link, std::move(Done));
  Mail M;
  M.K = Mail::Kind::Connect;
  M.From = Src;
  M.Link = Link;
  M.Port = Port;
  post(Dst, std::move(M));
}

void Fabric::sendControl(TabId Src, TabId Dst, std::vector<uint8_t> Payload) {
  assert(Src < Tabs.size() && Dst < Tabs.size());
  Mail M;
  M.K = Mail::Kind::Control;
  M.From = Src;
  M.Data = std::move(Payload);
  post(Dst, std::move(M));
}

void Fabric::setControlHandler(
    TabId T, std::function<void(TabId, std::vector<uint8_t>)> H) {
  Tabs[T]->OnControl = std::move(H);
}

//===----------------------------------------------------------------------===//
// Mail transport
//===----------------------------------------------------------------------===//

void Fabric::post(TabId Dst, Mail M) {
  // Stamped with the *sender's* clock (post always runs on the sender's
  // thread): monotone per sender, so FIFO mailboxes preserve per-link byte
  // order and FIN-after-data across the crossing.
  M.StampNs =
      Tabs[M.From]->Env->clock().nowNs() + Cost.HopLatencyNs;
  MailInFlight.fetch_add(1);
  Tab &D = *Tabs[Dst];
  {
    std::lock_guard<std::mutex> Lock(D.MailMu);
    if (M.StampNs < D.MailFloorNs.load())
      D.MailFloorNs.store(M.StampNs);
    D.Mailbox.push_back(std::move(M));
  }
  // Counted after the floor covers the record: a horizon scan that saw
  // the sender's frontier rise past this send also sees the count move.
  Crossings.fetch_add(1);
  D.MailCv.notify_all();
}

size_t Fabric::pump(TabId T) {
  Tab &D = *Tabs[T];
  std::deque<Mail> Batch;
  {
    std::lock_guard<std::mutex> Lock(D.MailMu);
    Batch.swap(D.Mailbox);
  }
  uint64_t NowNs = D.Env->clock().nowNs();
  size_t N = Batch.size();
  while (!Batch.empty()) {
    Mail M = std::move(Batch.front());
    Batch.pop_front();
    // Deliver on this tab's IoCompletion lane no earlier than the stamp.
    // Stamps are monotone per sender and the kernel breaks due-time ties
    // by insertion order, so scheduling a batch preserves mailbox order.
    uint64_t DelayNs = M.StampNs > NowNs ? M.StampNs - NowNs : 0;
    D.Env->loop().postAfter(
        kernel::Lane::IoCompletion,
        [this, T, M = std::move(M)]() mutable {
          MailInFlight.fetch_sub(1);
          dispatch(T, std::move(M));
        },
        DelayNs);
  }
  return N;
}

bool Fabric::mailboxEmpty(TabId T) {
  Tab &D = *Tabs[T];
  std::lock_guard<std::mutex> Lock(D.MailMu);
  return D.Mailbox.empty();
}

void Fabric::settleMailFloor(TabId T) {
  Tab &D = *Tabs[T];
  std::lock_guard<std::mutex> Lock(D.MailMu);
  uint64_t Floor = UINT64_MAX;
  for (const Mail &M : D.Mailbox)
    Floor = std::min(Floor, M.StampNs);
  D.MailFloorNs.store(Floor);
}

bool Fabric::waitForMail(TabId T, uint64_t TimeoutUs) {
  Tab &D = *Tabs[T];
  std::unique_lock<std::mutex> Lock(D.MailMu);
  if (!D.Mailbox.empty())
    return true;
  D.MailCv.wait_for(Lock, std::chrono::microseconds(TimeoutUs));
  return !D.Mailbox.empty();
}

void Fabric::wakeAll() {
  for (auto &T : Tabs)
    T->MailCv.notify_all();
}

//===----------------------------------------------------------------------===//
// Dispatch (destination-tab side; runs on that tab's loop)
//===----------------------------------------------------------------------===//

void Fabric::dispatch(TabId T, Mail M) {
  Tab &D = *Tabs[T];
  switch (M.K) {
  case Mail::Kind::Connect:
    openGateway(T, M.From, M.Link, M.Port);
    break;

  case Mail::Kind::Accepted: {
    auto It = D.PendingConnects.find(M.Link);
    if (It == D.PendingConnects.end()) {
      // Connect abandoned meanwhile; tear the far side down again.
      Mail C;
      C.K = Mail::Kind::Close;
      C.From = T;
      C.Link = M.Link;
      post(M.From, std::move(C));
      break;
    }
    auto Done = std::move(It->second);
    D.PendingConnects.erase(It);
    auto Ep = std::unique_ptr<Endpoint>(new Endpoint(*this, T, M.From, M.Link));
    Endpoint *Raw = Ep.get();
    D.Links.emplace(M.Link, std::move(Ep));
    if (Done)
      Done(Raw);
    break;
  }

  case Mail::Kind::Refused: {
    auto It = D.PendingConnects.find(M.Link);
    if (It == D.PendingConnects.end())
      break;
    auto Done = std::move(It->second);
    D.PendingConnects.erase(It);
    if (Done)
      Done(nullptr);
    break;
  }

  case Mail::Kind::Data: {
    if (auto It = D.Links.find(M.Link); It != D.Links.end()) {
      It->second->deliver(std::move(M.Data));
      break;
    }
    if (auto It = D.Gateways.find(M.Link); It != D.Gateways.end()) {
      if (It->second.Tcp && It->second.Tcp->isOpen())
        It->second.Tcp->send(std::move(M.Data));
      break;
    }
    break; // Link died while the bytes were crossing: drop, like TCP.
  }

  case Mail::Kind::Close: {
    if (D.Gateways.count(M.Link)) {
      closeGateway(D, M.Link, /*FromPeer=*/true);
      break;
    }
    if (auto It = D.Links.find(M.Link); It != D.Links.end()) {
      Endpoint &Ep = *It->second;
      if (Ep.Open) {
        Ep.Open = false;
        if (Ep.OnClose)
          Ep.OnClose();
        reapEndpoint(T, M.Link);
      }
    }
    break;
  }

  case Mail::Kind::Control:
    if (D.OnControl)
      D.OnControl(M.From, std::move(M.Data));
    break;
  }
}

void Fabric::openGateway(TabId T, TabId From, uint64_t Link, uint16_t Port) {
  Tab &D = *Tabs[T];
  // The gateway rides a real SimNet connect into this tab, so listener
  // absence and backlog overflow inside the destination surface to the
  // originator as a refused cross-tab connect.
  D.Env->net().connect(Port, [this, T, From, Link](TcpConnection *Tcp) {
    Tab &D = *Tabs[T];
    if (!Tcp) {
      Mail M;
      M.K = Mail::Kind::Refused;
      M.From = T;
      M.Link = Link;
      post(From, std::move(M));
      return;
    }
    Gateway G;
    G.Tcp = Tcp;
    G.PeerTab = From;
    G.Link = Link;
    D.Gateways.emplace(Link, G);
    Tcp->setOnData([this, T, From, Link](std::vector<uint8_t> &&Data) {
      Mail M;
      M.K = Mail::Kind::Data;
      M.From = T;
      M.Link = Link;
      M.Data = std::move(Data);
      post(From, std::move(M));
    });
    Tcp->setOnClose([this, T, From, Link] {
      // Local server closed the connection: relay the FIN across.
      Tabs[T]->Gateways.erase(Link);
      Mail M;
      M.K = Mail::Kind::Close;
      M.From = T;
      M.Link = Link;
      post(From, std::move(M));
    });
    Mail M;
    M.K = Mail::Kind::Accepted;
    M.From = T;
    M.Link = Link;
    post(From, std::move(M));
  });
}

void Fabric::closeGateway(Tab &T, uint64_t Link, bool FromPeer) {
  auto It = T.Gateways.find(Link);
  if (It == T.Gateways.end())
    return;
  Gateway G = It->second;
  T.Gateways.erase(It);
  if (G.Tcp) {
    G.Tcp->setOnData(nullptr);
    G.Tcp->setOnClose(nullptr);
    G.Tcp->close(); // SimNet orders the FIN after in-flight data.
  }
  if (!FromPeer) {
    Mail M;
    M.K = Mail::Kind::Close;
    M.From = T.Id;
    M.Link = Link;
    post(G.PeerTab, std::move(M));
  }
}

void Fabric::reapEndpoint(TabId T, uint64_t Link) {
  // Deferred: the endpoint pointer may still be on the caller's stack
  // (close() from inside its own data handler).
  Tabs[T]->Env->loop().post(kernel::Lane::Background,
                            [this, T, Link] { Tabs[T]->Links.erase(Link); });
}
