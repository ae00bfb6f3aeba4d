#include <gtest/gtest.h>

#include <utility>

#include "tofu/utofu.h"

namespace lmp::tofu {
namespace {

TEST(RegisteredBuffer, RegistersOnConstruction) {
  Network net(1);
  {
    RegisteredBuffer buf(net, 0, 256);
    EXPECT_TRUE(buf.valid());
    EXPECT_EQ(buf.size(), 256u);
    EXPECT_NE(buf.stadd(), 0u);
    EXPECT_EQ(net.stats().registrations.load(), 1u);
  }
  EXPECT_EQ(net.stats().deregistrations.load(), 1u);
}

TEST(RegisteredBuffer, MoveTransfersOwnership) {
  Network net(1);
  RegisteredBuffer a(net, 0, 64);
  const Stadd s = a.stadd();
  RegisteredBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.stadd(), s);
  EXPECT_EQ(net.stats().deregistrations.load(), 0u);
}

TEST(RegisteredBuffer, MoveAssignReleasesOld) {
  Network net(1);
  RegisteredBuffer a(net, 0, 64);
  RegisteredBuffer b(net, 0, 64);
  b = std::move(a);
  EXPECT_EQ(net.stats().deregistrations.load(), 1u);
}

TEST(RegisteredBuffer, ZeroSizeThrows) {
  Network net(1);
  EXPECT_THROW(RegisteredBuffer(net, 0, 0), std::invalid_argument);
}

TEST(UtofuContext, FreesVcqsOnDestruction) {
  Network net(1);
  {
    UtofuContext ctx(net, 0);
    ctx.create_vcq(0, 0);
  }
  // The CQ must be available again.
  EXPECT_NO_THROW(net.create_vcq(0, 0, 0));
}

TEST(UtofuContext, BufferFactory) {
  Network net(1);
  UtofuContext ctx(net, 0);
  RegisteredBuffer buf = ctx.make_buffer(128);
  EXPECT_TRUE(buf.valid());
  buf.as_doubles()[0] = 4.5;
  EXPECT_DOUBLE_EQ(buf.as_doubles()[0], 4.5);
}

}  // namespace
}  // namespace lmp::tofu
