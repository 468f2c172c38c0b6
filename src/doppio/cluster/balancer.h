//===- doppio/cluster/balancer.h - Front-end balancer tab --------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster's front-end tab (DESIGN.md §15): clients connect to one
/// SimNet port in the balancer tab; the balancer routes each connection to
/// a shard by consistent hash of the connection id (HashRing), opens a
/// cross-tab fabric link to that shard's doppiod port, and relays frames
/// both ways. Routing is connection-scoped, so the per-link FIFO guarantees
/// of SimNet and the fabric compose into end-to-end in-order responses.
///
/// The relay is frame-aware: the client-side stream is decoded so the
/// balancer can (a) count outstanding requests per connection — the basis
/// of clean draining, (b) serve "metrics" requests itself from its own
/// registry, where every shard's pushed ShardSnapshot is mirrored under a
/// claimed "shard" prefix (the aggregated cluster view), and (c) slot those
/// locally-answered responses into the connection's response order, so a
/// pipelined client still sees responses in request order.
///
/// Shard lifecycle, balancer-led:
///
///  - drain: the shard leaves the ring (new connections avoid it); each of
///    its connections stops forwarding, waits for outstanding responses,
///    closes its link (FIN after data), and re-routes to a surviving shard
///    with queued requests intact — zero lost requests. Once the last link
///    is gone the balancer sends Drain; the shard's doppiod then drains
///    only idle connections and reports DrainDone with its final stats.
///
///  - kill: abrupt. Outstanding requests on the dead shard get synthesized
///    Status::Error responses (the wire protocol has no request ids, so
///    errors must fill the response order's holes), links close, and
///    connections re-route immediately.
///
///  - saturation: a connection whose every ring candidate refuses (backlog
///    overflow in every shard tab) is refused at the front door and
///    counted (`balancer.refused_saturated`) — load the fleet visibly
///    cannot absorb, never a silent drop.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_CLUSTER_BALANCER_H
#define DOPPIO_DOPPIO_CLUSTER_BALANCER_H

#include "browser/env.h"
#include "doppio/cluster/fabric.h"
#include "doppio/cluster/hash_ring.h"
#include "doppio/cluster/shard.h"
#include "doppio/server/frame.h"

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>

namespace doppio {
namespace cluster {

namespace frame = rt::server::frame;

/// The front-end balancer: one tab, one listen port, a consistent-hash
/// ring of shards.
class Balancer {
public:
  struct Config {
    uint16_t Port = 7000;
    /// Concurrent client connections; beyond this the front door refuses.
    size_t MaxConnections = 1024;
    /// Engine compute charged per routed frame (hash + header inspection
    /// + copy) — the balancer's own cost on its virtual clock.
    uint64_t RouteComputeNs = browser::usToNs(2);
    size_t VNodesPerShard = 128;
  };

  Balancer(const browser::Profile &P, Fabric &Fab)
      : Balancer(P, Fab, Config()) {}
  Balancer(const browser::Profile &P, Fabric &Fab, Config Cfg);
  ~Balancer();

  Balancer(const Balancer &) = delete;
  Balancer &operator=(const Balancer &) = delete;

  /// Starts listening on the balancer tab's SimNet. False if the port is
  /// taken.
  bool start();

  TabId tab() const { return Tab; }
  uint16_t port() const { return Cfg.Port; }
  browser::BrowserEnv &env() { return Env; }
  const HashRing &ring() const { return Ring; }

  /// Registers a shard with the ring and claims its metric mirror prefix
  /// ("shard", "shard2", ... in registration order).
  void addShard(uint32_t Id, TabId ShardTab, uint16_t ShardPort);

  /// Balancer-led graceful drain (see file comment). \p Done fires on the
  /// balancer loop with the shard's final snapshot once DrainDone arrives.
  /// False if the shard is unknown or already draining/dead.
  bool drainShard(uint32_t Id,
                  std::function<void(const ShardSnapshot &)> Done = nullptr);

  /// Abrupt removal (see file comment). False if unknown or already dead.
  bool killShard(uint32_t Id);

  /// Outcome of one live migration (DESIGN.md §16), as reported by the
  /// MigrateDone control frame.
  struct MigrationResult {
    uint32_t SrcShard = 0;
    uint32_t DstShard = 0;
    bool Ok = false;
    rt::proc::Pid NewPid = 0;
    /// Virtual-time cost components of the guest's downtime: freeze on
    /// the source clock, revive on the destination clock (the fabric hop
    /// between them is Fabric::Costs::HopLatencyNs).
    uint64_t CaptureUs = 0;
    uint64_t RestoreUs = 0;
    uint64_t BlobBytes = 0;
    std::string Error;
  };

  /// Live-migrates process \p P from \p SrcShard to \p DstShard: the
  /// source checkpoints it (retrying until quiescent), kills the local
  /// copy, ships the blob over the fabric, and the destination revives
  /// it. \p Done fires on the balancer loop with the outcome. False if
  /// either shard is unknown or dead.
  bool migrateProcess(uint32_t SrcShard, uint32_t DstShard, rt::proc::Pid P,
                      std::function<void(const MigrationResult &)> Done);

  /// Completed migrations (registry-backed: `balancer.migrations`).
  uint64_t migrationsDone() const;

  /// Mirrors \p S into this tab's registry under the shard's claimed
  /// prefix. Normally fed by the control plane; exposed for tests.
  void noteSnapshot(const ShardSnapshot &S);

  /// Shards currently routable (on the ring).
  size_t liveShards() const { return Ring.size(); }

  /// Last mirrored snapshot per shard id (drained/killed shards keep
  /// their final record).
  const std::map<uint32_t, ShardSnapshot> &snapshots() const {
    return Snapshots;
  }

  struct Stats {
    uint64_t ConnsAccepted = 0;
    uint64_t ConnsRefused = 0;       // Front-door cap.
    uint64_t RefusedSaturated = 0;   // Every shard candidate refused.
    uint64_t Routed = 0;             // Upstream links established.
    uint64_t Rerouted = 0;           // Links moved off a drained/killed shard.
    uint64_t RequestsForwarded = 0;
    uint64_t ResponsesReturned = 0;
    uint64_t ErrorsSynthesized = 0;  // Kill-path Status::Error fills.
    uint64_t MetricsServed = 0;      // Served from the aggregated registry.
    std::vector<uint64_t> UpstreamRttNs; // Forward -> response, per request.
    std::vector<uint64_t> RouteNs;       // Accept -> upstream established.
  };
  Stats stats() const;

private:
  struct ShardInfo {
    uint32_t Id = 0;
    TabId Tab = 0;
    uint16_t Port = 0;
    std::string Prefix; // Claimed registry prefix for the mirror gauges.
    bool Draining = false;
    bool DrainSent = false;
    bool Dead = false;
    std::set<uint64_t> Conns; // Client conn ids currently linked here.
    std::function<void(const ShardSnapshot &)> OnDrained;
  };

  /// One response slot in a connection's in-order response queue.
  struct Slot {
    bool Ready = false;
    /// Encoded response frame, set when Ready. Local slots (metrics) are
    /// born ready; remote slots fill when the shard's response arrives or
    /// the kill path synthesizes an error.
    std::vector<uint8_t> Frame;
    /// Virtual time the request was forwarded upstream (remote slots).
    uint64_t ForwardedNs = 0;
    bool Local = false;
  };

  struct Conn {
    uint64_t Id = 0;
    browser::TcpConnection *Client = nullptr;
    Fabric::Endpoint *Upstream = nullptr;
    uint32_t ShardId = 0;
    bool HasShard = false;
    frame::Decoder FromClient;
    frame::Decoder FromShard;
    std::deque<Slot> Slots;
    /// Request frames decoded but not yet forwardable (no upstream yet,
    /// or the shard is draining out from under us).
    std::deque<std::vector<uint8_t>> PendingOut;
    /// Remaining ring candidates for the initial/re-route connect walk.
    std::vector<uint32_t> Candidates;
    size_t NextCandidate = 0;
    bool Rerouting = false;
    bool ClientClosed = false;
    uint64_t AcceptedNs = 0;
  };

  uint64_t nowNs() const;
  void bindCells();
  void onAccept(browser::TcpConnection &T);
  void onClientData(uint64_t Id, std::vector<uint8_t> &&Data);
  void onClientClosed(uint64_t Id);
  void onUpstreamData(uint64_t Id, std::vector<uint8_t> &&Data);
  void onUpstreamClosed(uint64_t Id);
  /// Starts a fresh candidate walk for \p C from a new ring snapshot.
  void beginWalk(Conn &C);
  /// Continues the candidate walk; refuses the client once exhausted.
  void connectUpstream(Conn &C);
  void bindUpstream(Conn &C, Fabric::Endpoint *Ep);
  /// Decodes newly buffered client bytes into slots / forwards.
  void pumpClient(Conn &C);
  void forwardPending(Conn &C);
  /// Sends every ready slot at the queue head to the client.
  void flushSlots(Conn &C);
  /// Serves a metrics request locally into a born-ready slot.
  std::vector<uint8_t> localMetricsResponse(const frame::Request &Req);
  /// Begins moving \p C off its (draining/dead) shard.
  void beginReroute(Conn &C, bool Abrupt);
  /// Completes a reroute once the conn is idle: close old link, rejoin
  /// the candidate walk on the current ring.
  void rerouteNow(Conn &C);
  void detachFromShard(Conn &C);
  /// Drops \p C entirely (client + upstream).
  void closeConn(uint64_t Id, bool RefusedSaturatedPath = false);
  /// Last link left a draining shard: send the Drain command.
  void maybeFinishDrain(uint32_t ShardId);
  void synthesizeErrors(Conn &C, const char *Why);

  browser::BrowserEnv Env;
  Fabric &Fab;
  Config Cfg;
  TabId Tab = 0;
  HashRing Ring;
  bool Running = false;
  std::map<uint32_t, ShardInfo> Shards;
  std::map<uint32_t, ShardSnapshot> Snapshots;
  std::map<uint64_t, std::unique_ptr<Conn>> Conns;
  uint64_t NextConnId = 1;
  /// In-flight migrations, keyed by the request id echoed through the
  /// Migrate/MigrateBlob/MigrateDone frames.
  std::map<uint64_t, std::function<void(const MigrationResult &)>>
      MigrationsInFlight;
  uint64_t NextMigrationId = 1;

  obs::Counter *ConnsAcceptedC = nullptr;
  obs::Counter *ConnsRefusedC = nullptr;
  obs::Counter *RefusedSaturatedC = nullptr;
  obs::Counter *RoutedC = nullptr;
  obs::Counter *ReroutedC = nullptr;
  obs::Counter *RequestsForwardedC = nullptr;
  obs::Counter *ResponsesReturnedC = nullptr;
  obs::Counter *ErrorsSynthesizedC = nullptr;
  obs::Counter *MetricsServedC = nullptr;
  obs::Counter *DrainsC = nullptr;
  obs::Counter *KillsC = nullptr;
  obs::Counter *MigrationsC = nullptr;
  obs::Counter *MigrationFailuresC = nullptr;
  obs::Gauge *LiveShardsG = nullptr;
  obs::Histogram *UpstreamRttNsH = nullptr;
  obs::Histogram *RouteNsH = nullptr;
};

} // namespace cluster
} // namespace doppio

#endif // DOPPIO_DOPPIO_CLUSTER_BALANCER_H
