#pragma once

#include <array>
#include <memory>
#include <span>
#include <vector>

#include "comm/address_book.h"
#include "comm/comm_base.h"
#include "comm/dispatcher.h"
#include "comm/ghost_plan.h"
#include "comm/msg_codec.h"
#include "minimpi/world.h"
#include "tofu/utofu.h"

namespace lmp::comm {

/// Transport strategy for the 3-stage pattern: a combined send-toward-
/// channel / receive-on-channel operation between the two face partners
/// of a dimension. `channel` is dim*2 + side (0:-x 1:+x 2:-y 3:+y 4:-z
/// 5:+z); the received message is the one the opposite partner sent on
/// the same channel id.
///
/// Payloads move span-in, span-out through storage the transport owns:
///
///   * send_buffer() is the transport's own outgoing storage, sized in
///     setup() to `max_channel_doubles`. The caller packs the payload
///     there (the pack kernels check the bound) and sendrecv() sends its
///     first `n` doubles. sendrecv() leaves the storage as it was, so the
///     same payload can be sent again.
///   * sendrecv() returns a view of the partner's payload in the
///     transport's receive storage. It stays valid until the next
///     sendrecv() and must not be written through.
class BrickTransport {
 public:
  virtual ~BrickTransport() = default;

  /// Collective; `max_channel_doubles` bounds any single payload.
  virtual void setup(const CommContext& ctx, std::size_t max_channel_doubles) = 0;

  virtual std::span<double> send_buffer() = 0;

  virtual std::span<const double> sendrecv(MsgKind kind, int channel, int dst,
                                           int src, std::size_t n) = 0;
};

/// Two-sided transport over the minimpi stack — the *Ref* baseline. One
/// outgoing and one incoming buffer, kept across messages.
class MpiBrickTransport final : public BrickTransport {
 public:
  explicit MpiBrickTransport(minimpi::World& world) : world_(&world) {}
  void setup(const CommContext& ctx, std::size_t max_channel_doubles) override;
  std::span<double> send_buffer() override { return out_; }
  std::span<const double> sendrecv(MsgKind kind, int channel, int dst, int src,
                                   std::size_t n) override;

 private:
  minimpi::World* world_;
  int rank_ = 0;
  std::vector<double> out_;
  std::vector<double> in_;
};

/// One-sided transport over uTofu (paper's `utofu_3stage` variant): the
/// payload is packed into the registered send buffer behind a length
/// prefix (message combine, Sec. 3.5.1), put into the partner's
/// pre-registered round-robin ring buffer, and announced via the
/// piggyback descriptor word. The received view points into the ring
/// slot it landed in.
class UtofuBrickTransport final : public BrickTransport {
 public:
  UtofuBrickTransport(tofu::Network& net, AddressBook& book)
      : net_(&net), book_(&book) {}
  void setup(const CommContext& ctx, std::size_t max_channel_doubles) override;
  std::span<double> send_buffer() override {
    return {send_buf_.as_doubles() + 1, ring_doubles_ - 1};
  }
  std::span<const double> sendrecv(MsgKind kind, int channel, int dst, int src,
                                   std::size_t n) override;

 private:
  tofu::Network* net_;
  AddressBook* book_;
  std::unique_ptr<tofu::UtofuContext> utofu_;
  tofu::RegisteredBuffer send_buf_;
  std::array<tofu::RegisteredBuffer, kRingSlots> rings_[6];
  std::array<int, 6> ring_next_{};
  NoticeDispatcher dispatcher_;
  std::size_t ring_doubles_ = 0;
};

/// The LAMMPS default 3-stage ghost communication (paper Fig. 4): each
/// dimension exchanges with its two face partners in turn, and later
/// stages carry the ghosts of earlier ones, covering all 26 neighbors
/// with 6 messages at the price of strict stage ordering. The exchange
/// plan (channels, shifts, border selection, migration, sizing) lives in
/// GhostPlan; this class only drives its transport over that plan.
class CommBrick final : public Comm {
 public:
  CommBrick(const CommContext& ctx, std::unique_ptr<BrickTransport> transport);

  void setup() override;
  void exchange() override;
  void borders() override;
  void forward_positions() override;
  void reverse_forces() override;

  // md::GhostDataComm (EAM mid-pair scalar comm)
  void forward(double* per_atom) override;
  void reverse_add(double* per_atom) override;

 private:
  static int side_of(int channel) { return channel % 2; }

  std::unique_ptr<BrickTransport> transport_;
  GhostPlan plan_;
};

}  // namespace lmp::comm
