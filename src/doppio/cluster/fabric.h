//===- doppio/cluster/fabric.h - Cross-tab SimNet fabric ---------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tab-to-tab extension of browser::SimNet (DESIGN.md §15). One
/// simulated tab is one BrowserEnv with its own event loop, virtual clock,
/// kernel, and SimNet port space; the paper stops there (§3.1: one page,
/// one event loop). Browsix (PAPERS.md) shows the scaling shape beyond it —
/// many isolated execution contexts cooperating over a shared substrate —
/// and this fabric is that substrate: it lets a socket in one tab connect
/// to a port in another tab's SimNet, so an entire doppiod server stack in
/// a shard tab is reachable from a balancer tab over the same
/// length-prefixed frame codec (browser/wire.h byte order throughout).
///
/// Mechanics: every attached tab owns a FIFO mailbox. A cross-tab
/// connection is a pair of endpoints joined by a link id — the originator's
/// Endpoint in the source tab, and a gateway in the destination tab that
/// holds a real SimNet TcpConnection obtained with SimNet::connect (so
/// backlog overflow in the destination tab surfaces as a refused cross-tab
/// connect, exactly like local ECONNREFUSED). Bytes ride Mail records
/// stamped with the sender's virtual send time plus the fabric hop latency;
/// delivery into the destination tab schedules on its kernel's IoCompletion
/// lane no earlier than the stamp. Because each sender's stamps are
/// monotone and each mailbox is FIFO, per-link byte order and FIN-after-
/// data ordering both survive the crossing.
///
/// The fabric is driven — mailboxes pumped into tab loops — by a driver
/// (doppio/cluster/driver.h): deterministic single-thread lockstep for
/// tests and virtual-clock figures, or one host thread per tab for the
/// fig7_cluster bench. All mailbox operations are mutex-guarded so both
/// drivers share one implementation; everything else in a tab stays
/// single-threaded on that tab's thread.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CLUSTER_FABRIC_H
#define DOPPIO_DOPPIO_CLUSTER_FABRIC_H

#include "browser/env.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace doppio {
namespace cluster {

/// Index of an attached tab within the fabric.
using TabId = uint32_t;

/// Cross-tab connection fabric over per-tab mailboxes.
class Fabric {
public:
  struct Costs {
    /// Virtual latency of one tab-to-tab crossing (a postMessage /
    /// SharedWorker hop in browser terms). Defaults to the SimNet TCP
    /// round-trip latency of the chrome profile.
    uint64_t HopLatencyNs = browser::usToNs(300);
  };

  Fabric() : Fabric(Costs()) {}
  explicit Fabric(Costs C) : Cost(C) {}
  ~Fabric();

  Fabric(const Fabric &) = delete;
  Fabric &operator=(const Fabric &) = delete;

  /// One side of an established cross-tab byte-stream connection. API
  /// mirrors browser::TcpConnection; lifetime mirrors it too — the fabric
  /// owns endpoints, and holders must drop their pointer once the link
  /// closes (locally or via the close handler).
  class Endpoint {
  public:
    /// Receives each chunk as an rvalue, like browser::TcpConnection.
    using DataHandler = std::function<void(std::vector<uint8_t> &&)>;
    using CloseHandler = std::function<void()>;

    /// Sends bytes toward the peer tab; they arrive there as a later
    /// event, no earlier than one fabric hop from now.
    void send(std::vector<uint8_t> Data);

    /// Registers the receive handler; bytes that crossed before a handler
    /// existed are delivered immediately.
    void setOnData(DataHandler H);
    void setOnClose(CloseHandler H) { OnClose = std::move(H); }

    /// Closes the link. The peer's close handler fires after any bytes
    /// already sent (FIN-after-data, like SimNet).
    void close();

    bool isOpen() const { return Open; }
    uint64_t linkId() const { return Link; }
    /// The tab this endpoint lives in / its peer's tab.
    TabId tab() const { return Tab; }
    TabId peerTab() const { return Peer; }

  private:
    friend class Fabric;
    Endpoint(Fabric &Fab, TabId Tab, TabId Peer, uint64_t Link)
        : Fab(Fab), Tab(Tab), Peer(Peer), Link(Link) {}

    void deliver(std::vector<uint8_t> Data);

    Fabric &Fab;
    TabId Tab;
    TabId Peer;
    uint64_t Link;
    bool Open = true;
    DataHandler OnData;
    CloseHandler OnClose;
    std::deque<std::vector<uint8_t>> Undelivered;
  };

  /// Attaches \p Env as the next tab. All attaches must happen before any
  /// driver runs.
  TabId attach(browser::BrowserEnv &Env);

  size_t tabCount() const { return Tabs.size(); }
  browser::BrowserEnv &env(TabId T) { return *Tabs[T]->Env; }

  /// Opens a cross-tab connection from tab \p Src to SimNet port \p Port
  /// in tab \p Dst. \p Done runs on \p Src's loop with the originator
  /// endpoint, or null when nothing listens there or the destination
  /// backlog overflowed (cross-tab ECONNREFUSED). Call on Src's thread.
  void connect(TabId Src, TabId Dst, uint16_t Port,
               std::function<void(Endpoint *)> Done);

  /// Delivers \p Payload to tab \p Dst's control handler — the cluster's
  /// control plane (drain/kill commands, shard stat snapshots), encoded
  /// with browser/wire.h helpers by the caller. Same stamping and FIFO
  /// guarantees as data mail.
  void sendControl(TabId Src, TabId Dst, std::vector<uint8_t> Payload);

  /// Registers tab \p T's control-plane handler (runs on T's loop).
  void setControlHandler(
      TabId T, std::function<void(TabId From, std::vector<uint8_t>)> H);

  /// Drains tab \p T's mailbox, scheduling each record on T's loop at its
  /// stamp. Must run on T's thread; drivers call this, user code never
  /// does. Returns the number of records moved.
  size_t pump(TabId T);

  /// True when no mail sits undelivered in any mailbox AND no pumped
  /// record is still awaiting dispatch in a tab loop. With all tab loops
  /// idle this means the whole cluster is quiescent.
  bool quiescent() const { return MailInFlight.load() == 0; }

  bool mailboxEmpty(TabId T);

  /// Earliest stamp among mail posted to tab \p T that its threaded driver
  /// has not yet covered with a published frontier; UINT64_MAX when there
  /// is none. pump() leaves it as it is: mail moved into the loop stays
  /// counted until settleMailFloor().
  uint64_t mailFloorNs(TabId T) const {
    return Tabs[T]->MailFloorNs.load();
  }

  /// Resets tab \p T's mail floor to the earliest stamp still in its
  /// mailbox. Call on T's thread, after publishing a frontier that covers
  /// everything pump() moved.
  void settleMailFloor(TabId T);

  /// Blocks until tab \p T has mail or \p TimeoutUs host-microseconds
  /// elapse (threaded driver's idle wait). Returns true if mail arrived.
  bool waitForMail(TabId T, uint64_t TimeoutUs);

  /// Wakes every tab blocked in waitForMail (driver shutdown).
  void wakeAll();

  /// Mail records ever sent across the fabric (data + control + link
  /// management). It counts a record once the record is in its mailbox, so
  /// the threaded driver uses it as the epoch of a horizon scan.
  uint64_t crossings() const { return Crossings.load(); }

  const Costs &costs() const { return Cost; }

private:
  struct Mail {
    enum class Kind : uint8_t { Connect, Accepted, Refused, Data, Close,
                                Control };
    Kind K = Kind::Data;
    TabId From = 0;
    uint64_t Link = 0;
    uint16_t Port = 0;
    /// Earliest virtual delivery time at the destination: sender's clock
    /// at send plus one hop.
    uint64_t StampNs = 0;
    std::vector<uint8_t> Data;
  };

  /// Gateway half of a link: the destination-tab side, bridging the link
  /// to a local SimNet TcpConnection.
  struct Gateway {
    browser::TcpConnection *Tcp = nullptr;
    TabId PeerTab = 0;
    uint64_t Link = 0;
  };

  struct Tab {
    browser::BrowserEnv *Env = nullptr;
    TabId Id = 0;
    // Mailbox (cross-thread: mutex-guarded).
    std::mutex MailMu;
    std::condition_variable MailCv;
    std::deque<Mail> Mailbox;
    /// See mailFloorNs(); written under MailMu.
    std::atomic<uint64_t> MailFloorNs{UINT64_MAX};
    // Everything below is touched only on this tab's thread.
    std::map<uint64_t, std::unique_ptr<Endpoint>> Links;
    std::map<uint64_t, Gateway> Gateways;
    std::map<uint64_t, std::function<void(Endpoint *)>> PendingConnects;
    std::function<void(TabId, std::vector<uint8_t>)> OnControl;
  };

  void post(TabId Dst, Mail M);
  void dispatch(TabId T, Mail M);
  void openGateway(TabId T, TabId From, uint64_t Link, uint16_t Port);
  void closeGateway(Tab &T, uint64_t Link, bool FromPeer);
  /// Defer-erases an originator endpoint once its link died (the pointer
  /// may still be on the caller's stack).
  void reapEndpoint(TabId T, uint64_t Link);

  Costs Cost;
  std::vector<std::unique_ptr<Tab>> Tabs;
  std::atomic<uint64_t> NextLink{1};
  std::atomic<uint64_t> Crossings{0};
  /// Mail sent but whose delivery event has not yet run.
  std::atomic<int64_t> MailInFlight{0};
};

} // namespace cluster
} // namespace doppio

#endif // DOPPIO_DOPPIO_CLUSTER_FABRIC_H
