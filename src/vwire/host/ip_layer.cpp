#include "vwire/host/ip_layer.hpp"

#include "vwire/host/node.hpp"
#include "vwire/util/logging.hpp"

namespace vwire::host {

void IpLayer::register_protocol(net::IpProto proto, ProtoHandler handler) {
  handlers_[static_cast<u8>(proto)] = std::move(handler);
}

void IpLayer::send(net::Ipv4Address dst, net::IpProto proto,
                   Bytes l4_bytes) {
  auto dst_mac = node_->resolve(dst);
  if (!dst_mac) {
    ++stats_.tx_no_route;
    VWIRE_WARN() << node_->name() << ": no route to " << dst.to_string();
    return;
  }
  Bytes frame(net::EthernetHeader::kSize + net::Ipv4Header::kSize +
                   l4_bytes.size());
  net::EthernetHeader{*dst_mac, node_->mac(),
                      static_cast<u16>(net::EtherType::kIpv4)}
      .write(frame);
  net::Ipv4Header ip;
  ip.total_length =
      static_cast<u16>(net::Ipv4Header::kSize + l4_bytes.size());
  ip.identification = next_ip_id_++;
  ip.protocol = static_cast<u8>(proto);
  ip.src = node_->ip();
  ip.dst = dst;
  ip.write(frame, net::EthernetHeader::kSize);
  std::copy(l4_bytes.begin(), l4_bytes.end(),
            frame.begin() + net::EthernetHeader::kSize + net::Ipv4Header::kSize);

  ++stats_.tx_packets;
  net::Packet pkt(std::move(frame));
  // Charge the sender-side kernel processing as latency before the frame
  // reaches the chain below.
  node_->simulator().after(node_->params().tx_stack_cost,
                           [this, pkt = std::move(pkt)]() mutable {
                             pass_down(std::move(pkt));
                           });
}

void IpLayer::receive_up(net::Packet pkt) {
  auto eth = pkt.ethernet();
  if (!eth || eth->ethertype != static_cast<u16>(net::EtherType::kIpv4)) {
    return;  // not ours; a layer below should have consumed it
  }
  // Frames addressed to another MAC can still reach us on a shared bus in
  // promiscuous situations; a normal stack ignores them.
  if (!eth->dst.is_broadcast() && !(eth->dst == node_->mac())) {
    ++stats_.rx_not_mine;
    return;
  }
  constexpr std::size_t ip_off = net::EthernetHeader::kSize;
  auto ip = net::Ipv4Header::read(pkt.view(), ip_off);
  if (!ip || !net::Ipv4Header::verify_checksum(pkt.view(), ip_off)) {
    ++stats_.rx_bad_checksum;
    return;
  }
  if (!(ip->dst == node_->ip())) {
    ++stats_.rx_not_mine;
    return;
  }
  if (pkt.size() < ip_off + ip->total_length ||
      ip->total_length < net::Ipv4Header::kSize) {
    ++stats_.rx_bad_checksum;  // malformed length counts as corrupt
    return;
  }
  auto it = handlers_.find(ip->protocol);
  if (it == handlers_.end()) {
    ++stats_.rx_no_handler;
    return;
  }
  ++stats_.rx_packets;

  const std::size_t l4_len = ip->total_length - net::Ipv4Header::kSize;
  net::Ipv4Header hdr = *ip;
  u8 proto = ip->protocol;
  auto deliver = [this, pkt = std::move(pkt), hdr, proto, l4_len] {
    auto handler_it = handlers_.find(proto);
    if (handler_it == handlers_.end()) return;
    handler_it->second(
        hdr, pkt.view().subspan(
                 net::EthernetHeader::kSize + net::Ipv4Header::kSize, l4_len));
  };
  // The largest per-packet capture on the hot path; it must not allocate.
  static_assert(sim::EventFn::stored_inline<decltype(deliver)>());
  node_->simulator().after(node_->params().rx_stack_cost, std::move(deliver));
}

}  // namespace vwire::host
