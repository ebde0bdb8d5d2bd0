// Parameterized sweep: every packet-fault primitive × both interception
// directions × several trigger points, validated by delivery accounting.
// This is the "large number of test cases without human intervention"
// workflow the paper advertises for regression testing.
#include <gtest/gtest.h>

#include "../engine/engine_test_util.hpp"

namespace vwire::core {
namespace {

using testing::EngineHarness;

struct MatrixCase {
  const char* fault;  ///< DROP / DELAY / DUP / MODIFY
  const char* dir;    ///< SEND / RECV
  int trigger;        ///< REQ value that arms the fault
};

// Names each case (e.g. DROP_RECV_at1) in place of gtest's raw-byte dump,
// so the discovered ctest names are the same on every build.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  *os << c.fault << '_' << c.dir << "_at" << c.trigger;
}

class FaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(FaultMatrix, DeliveryAccountingHolds) {
  const MatrixCase& c = GetParam();
  const int kRequests = 8;

  EngineHarness h;
  int replies = 0;
  h.udp[0]->bind(40000,
                 [&](net::Ipv4Address, u16, BytesView) { ++replies; });

  std::string fault_args;
  if (std::string(c.fault) == "DELAY") {
    fault_args = ", 20ms";
  } else if (std::string(c.fault) == "MODIFY") {
    fault_args = ", (42 1 0xff)";  // first payload byte; checksum left bad
  }
  char rule[256];
  std::snprintf(rule, sizeof rule,
                "  ((CNT = %d)) >> %s(udp_req, client, server, %s%s);\n",
                c.trigger, c.fault, c.dir, fault_args.c_str());
  std::string counter_dir = c.dir;  // count where the fault intercepts
  h.arm("SCENARIO matrix\n"
        "  CNT: (udp_req, client, server, " + counter_dir + ")\n" +
        "  (TRUE) >> ENABLE_CNTR(CNT);\n" + rule + "END\n");

  h.send_requests(kRequests, millis(5));
  h.run_for(millis(500));

  const std::string fault = c.fault;
  if (fault == "DROP") {
    // Exactly one request vanished.
    EXPECT_EQ(replies, kRequests - 1);
  } else if (fault == "DELAY") {
    // Everything arrives, one late.
    EXPECT_EQ(replies, kRequests);
  } else if (fault == "DUP") {
    // One extra echo.
    EXPECT_EQ(static_cast<int>(h.udp[1]->stats().rx_datagrams),
              kRequests + 1);
  } else if (fault == "MODIFY") {
    // The corrupted datagram fails its checksum at the server.
    EXPECT_EQ(replies, kRequests - 1);
    EXPECT_EQ(h.udp[1]->stats().rx_bad_checksum, 1u);
  }
  // The counter saw every request regardless of the fault's fate (counting
  // precedes injection, Fig 4b).
  EXPECT_EQ(h.counter("CNT"), kRequests);
}

INSTANTIATE_TEST_SUITE_P(
    AllFaultsBothDirections, FaultMatrix,
    ::testing::Values(MatrixCase{"DROP", "RECV", 1},
                      MatrixCase{"DROP", "RECV", 4},
                      MatrixCase{"DROP", "RECV", 8},
                      MatrixCase{"DROP", "SEND", 1},
                      MatrixCase{"DROP", "SEND", 5},
                      MatrixCase{"DELAY", "RECV", 2},
                      MatrixCase{"DELAY", "SEND", 3},
                      MatrixCase{"DUP", "RECV", 2},
                      MatrixCase{"DUP", "SEND", 6},
                      MatrixCase{"MODIFY", "RECV", 3},
                      MatrixCase{"MODIFY", "SEND", 7}));

// Drop-rate sweep: a window of consecutive drops of width W must remove
// exactly W echoes, whatever W.
class DropWindow : public ::testing::TestWithParam<int> {};

TEST_P(DropWindow, WidthMatchesLosses) {
  const int width = GetParam();
  EngineHarness h;
  int replies = 0;
  h.udp[0]->bind(40000,
                 [&](net::Ipv4Address, u16, BytesView) { ++replies; });
  char rule[160];
  std::snprintf(rule, sizeof rule,
                "  ((CNT >= 3) && (CNT <= %d)) >> "
                "DROP(udp_req, client, server, RECV);\n",
                2 + width);
  h.arm("SCENARIO w\n"
        "  CNT: (udp_req, client, server, RECV)\n"
        "  (TRUE) >> ENABLE_CNTR(CNT);\n" +
        std::string(rule) + "END\n");
  const int kRequests = 12;
  h.send_requests(kRequests, millis(2));
  h.run_for(millis(200));
  EXPECT_EQ(replies, kRequests - width);
  EXPECT_EQ(h.engine("server").stats().drops, static_cast<u64>(width));
}

INSTANTIATE_TEST_SUITE_P(Widths, DropWindow, ::testing::Values(1, 2, 5, 9));

}  // namespace
}  // namespace vwire::core
