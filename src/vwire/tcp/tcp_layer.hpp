// Per-node TCP: connection demultiplexing, listen/accept, segment I/O.
#pragma once

#include <functional>
#include <unordered_map>

#include "vwire/host/node.hpp"
#include "vwire/tcp/tcp_connection.hpp"

namespace vwire::tcp {

struct TcpLayerStats {
  u64 rx_segments{0};
  u64 rx_bad_checksum{0};
  u64 rx_no_connection{0};
  u64 resets_sent{0};
};

class TcpLayer {
 public:
  explicit TcpLayer(host::Node& node, TcpParams defaults = {});

  using AcceptFn = std::function<void(std::shared_ptr<TcpConnection>)>;

  /// Accepts incoming connections on `port`; `on_accept` runs as soon as
  /// the connection object exists (state SYN_RCVD) so callers can hook
  /// callbacks before it establishes.
  void listen(u16 port, AcceptFn on_accept);
  void stop_listening(u16 port);

  /// Active open.  `src_port` 0 picks an ephemeral port.
  std::shared_ptr<TcpConnection> connect(net::Ipv4Address dst, u16 dst_port,
                                         u16 src_port = 0);
  /// Active open with per-connection parameter overrides.
  std::shared_ptr<TcpConnection> connect(net::Ipv4Address dst, u16 dst_port,
                                         u16 src_port, TcpParams params);

  std::shared_ptr<TcpConnection> find(const ConnKey& key) const;
  std::size_t connection_count() const { return conns_.size(); }

  /// Visits every live connection (invariant checkers sample congestion
  /// state through here).  Do not open/close connections from `fn`.
  template <class Fn>
  void for_each_connection(Fn&& fn) const {
    for (const auto& [key, conn] : conns_) fn(*conn);
  }

  /// Mutable visitor for Byzantine fault injection (chaos kStateFault):
  /// lets state-corruption hooks reach live connections.  Do not
  /// open/close connections from `fn`; never use outside fault injection.
  template <class Fn>
  void for_each_connection_mut(Fn&& fn) {
    for (auto& [key, conn] : conns_) fn(*conn);
  }
  const TcpLayerStats& stats() const { return stats_; }
  host::Node& node() { return node_; }
  const TcpParams& defaults() const { return defaults_; }

 private:
  void on_ip(const net::Ipv4Header& ip, BytesView l4);
  void send_reset(net::Ipv4Address dst, const net::TcpHeader& cause);
  std::shared_ptr<TcpConnection> make_connection(const ConnKey& key,
                                                 const TcpParams& params);

  host::Node& node_;
  TcpParams defaults_;
  TcpLayerStats stats_;
  std::unordered_map<ConnKey, std::shared_ptr<TcpConnection>> conns_;
  std::unordered_map<u16, AcceptFn> listeners_;
  u16 next_ephemeral_{49152};
};

}  // namespace vwire::tcp
