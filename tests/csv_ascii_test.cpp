// Tests for the 2-D CAN ASCII renderer.
#include <gtest/gtest.h>

#include <sstream>

#include "src/can/ascii_art.hpp"

namespace soc {
namespace {

TEST(AsciiArt, RendersAllZonesWithLabels) {
  can::CanSpace space(2, Rng(31));
  for (std::uint32_t i = 0; i < 8; ++i) space.join(NodeId(i));
  const std::string art = can::render_ascii(space, 64, 20);
  // Structural smoke checks: borders exist, output is the right shape.
  EXPECT_NE(art.find('+'), std::string::npos);
  EXPECT_NE(art.find('|'), std::string::npos);
  EXPECT_NE(art.find('-'), std::string::npos);
  std::size_t lines = 0;
  for (const char c : art) lines += (c == '\n');
  EXPECT_EQ(lines, 21u);
  // At least some owner labels fit into their zones.
  bool any_digit = false;
  for (const char c : art) any_digit |= (c >= '0' && c <= '9');
  EXPECT_TRUE(any_digit);
}

TEST(AsciiArt, SingleNodeOwnsWholeSquare) {
  can::CanSpace space(2, Rng(32));
  space.join(NodeId(0));
  const std::string art = can::render_ascii(space, 16, 6);
  std::istringstream is(art);
  std::string first;
  std::getline(is, first);
  EXPECT_EQ(first.front(), '+');
  EXPECT_EQ(first.back(), '+');
}

}  // namespace
}  // namespace soc
