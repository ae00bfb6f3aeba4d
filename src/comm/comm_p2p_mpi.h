#pragma once

#include <span>
#include <vector>

#include "comm/comm_base.h"
#include "comm/directions.h"
#include "comm/ghost_plan.h"
#include "comm/msg_codec.h"
#include "minimpi/world.h"

namespace lmp::comm {

/// The *naive MPI p2p* implementation of Fig. 6: the peer-to-peer
/// pattern (13/26 direct neighbor messages, Newton-halved ghost volume)
/// but spoken over the two-sided MPI stack instead of uTofu one-sided
/// primitives. The paper measures this variant to show that the pattern
/// alone is not enough — on 65K and 1.7M atoms it *loses* to MPI-3-stage
/// because of the per-message software overhead, which is what motivates
/// the uTofu rewrite (Sec. 3.2).
///
/// Functionally it must of course produce the same trajectory as every
/// other variant; the integration tests hold it to that. The pattern
/// itself (channels, shifts, send lists, migration) lives in the shared
/// GhostPlan; this class only moves the payloads over minimpi.
class CommP2pMpi final : public Comm {
 public:
  CommP2pMpi(const CommContext& ctx, minimpi::World& world);

  void setup() override;
  void exchange() override;
  void borders() override;
  void forward_positions() override;
  void reverse_forces() override;

  // md::GhostDataComm (EAM mid-pair scalar comm)
  void forward(double* per_atom) override;
  void reverse_add(double* per_atom) override;

 private:
  int tag_for(MsgKind kind, int receiver_dir) const {
    return static_cast<int>(kind) * 32 + receiver_dir;
  }
  /// Eager send: World::send copies the payload, so it may come straight
  /// from `f`/`per_atom` or from send_buf_, reused for every direction.
  void send_payload(MsgKind kind, int dir, std::span<const double> payload);
  /// A view of the (kind, dir) payload in recv_buf_, valid until the next
  /// recv_payload.
  std::span<const double> recv_payload(MsgKind kind, int dir);

  minimpi::World* world_;
  GhostPlan plan_;
  std::vector<double> send_buf_;
  std::vector<double> recv_buf_;
};

}  // namespace lmp::comm
