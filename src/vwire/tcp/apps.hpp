// TCP workload applications used by the paper's experiments.
//
//  * BulkSink     — accepting side; counts delivered bytes (Fig 5/6/7).
//  * BulkSender   — sends a fixed number of bytes as fast as the window
//                   allows, or paced at an "offered data pumping rate"
//                   (the x-axis of Fig 7).
#pragma once

#include <functional>

#include "vwire/sim/timer.hpp"
#include "vwire/tcp/tcp_layer.hpp"

namespace vwire::tcp {

class BulkSink {
 public:
  BulkSink(TcpLayer& tcp, u16 port);

  u64 bytes_received() const { return bytes_; }
  u64 connections_accepted() const { return accepted_; }
  u64 connections_closed() const { return closed_; }
  /// Time the first/last payload byte arrived (throughput windows).
  TimePoint first_byte_at() const { return first_byte_at_; }
  TimePoint last_byte_at() const { return last_byte_at_; }

 private:
  TcpLayer& tcp_;
  u64 bytes_{0};
  u64 accepted_{0};
  u64 closed_{0};
  TimePoint first_byte_at_{};
  TimePoint last_byte_at_{};
};

class BulkSender {
 public:
  struct Params {
    net::Ipv4Address dst_ip;
    u16 dst_port{0};
    u16 src_port{0};          ///< 0 = ephemeral
    u64 total_bytes{1 << 20};  ///< 0 = run until stopped
    double offered_rate_bps{0.0};  ///< 0 = window-limited (as fast as possible)
    std::size_t chunk{8 * 1024};
    bool close_when_done{true};
    std::optional<TcpParams> tcp_params;  ///< per-connection overrides
  };

  BulkSender(TcpLayer& tcp, Params params);

  void start();
  void stop();  ///< stops offering data; closes if close_when_done

  bool finished() const { return finished_; }
  u64 offered_bytes() const { return offered_; }
  std::shared_ptr<TcpConnection> connection() { return conn_; }

  std::function<void()> on_complete;

 private:
  void pump();       // window-limited filling
  void paced_tick();  // rate-limited offering

  TcpLayer& tcp_;
  Params params_;
  std::shared_ptr<TcpConnection> conn_;
  sim::Timer pace_timer_;
  Duration pace_interval_{};
  u64 offered_{0};
  bool finished_{false};
  bool stopped_{false};
};

}  // namespace vwire::tcp
