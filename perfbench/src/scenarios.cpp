#include <algorithm>

#include "vwire/chaos/fixtures.hpp"
#include "vwire/rether/rether_layer.hpp"
#include "vwire/tcp/tcp_layer.hpp"
#include "vwire/udp/echo.hpp"
#include "vwire/util/hex.hpp"
#include "vwire/util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace vwire;

namespace {

// ---- FSL shared by the Fig 7/8 workloads ---------------------------------

/// `total` filter entries; all but the last two are decoys that fail on
/// their first tuple, so a matching packet pays the full linear scan.  The
/// last two match UDP request/response or TCP data/ack.
std::string filter_table(int total, bool tcp) {
  std::string out = "FILTER_TABLE\n";
  for (int i = 0; i < total - 2; ++i) {
    out.append("  decoy").append(std::to_string(i)).append(": (34 2 ");
    out.append(to_hex(0x7100 + i, 4)).append("), (36 2 0x0001), (47 1 0x3f)\n");
  }
  if (tcp) {
    out +=
        "  TCP_fwd: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)\n"
        "  TCP_rev: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)\n";
  } else {
    out +=
        "  udp_req: (34 2 0x9c40), (36 2 0x0007), (23 1 0x11)\n"
        "  udp_rsp: (34 2 0x0007), (36 2 0x9c40), (23 1 0x11)\n";
  }
  return out + "END\n";
}

/// `actions` counter actions fired on every matched packet at both
/// receive sides; the RESET re-arms the edge so the rule fires per packet.
std::string per_packet_actions(const std::string& fwd, const std::string& rev,
                               const std::string& src, const std::string& dst,
                               int actions) {
  std::string out = "SCENARIO per_packet_load\n";
  out.append("  FWD: (").append(fwd).append(", ").append(src).append(", ");
  out.append(dst).append(", RECV)\n");
  out.append("  REV: (").append(rev).append(", ").append(dst).append(", ");
  out.append(src).append(", RECV)\n");
  out.append("  XF: (").append(dst).append(")\n");
  out.append("  XR: (").append(src).append(")\n");
  out += "  (TRUE) >> ENABLE_CNTR(FWD); ENABLE_CNTR(REV); "
         "ENABLE_CNTR(XF); ENABLE_CNTR(XR);\n";
  for (const auto& [cnt, x] :
       {std::pair{"FWD", "XF"}, std::pair{"REV", "XR"}}) {
    out.append("  ((").append(cnt).append(" > 0)) >> RESET_CNTR(");
    out.append(cnt).append(");");
    for (int i = 0; i < actions - 1; ++i) {
      out.append(" INCR_CNTR(").append(x).append(", 1);");
    }
    out += "\n";
  }
  return out + "END\n";
}

/// The paper's RLL: every data frame acked at once by a standalone ack.
TestbedConfig paper_config(std::uint64_t seed) {
  TestbedConfig cfg;
  cfg.rll.piggyback = false;
  cfg.rll.ack_every = 1;
  cfg.seed = seed;
  return cfg;
}

double p99_us(std::vector<Duration> samples) {
  std::vector<double> us;
  us.reserve(samples.size());
  for (Duration d : samples) us.push_back(d.micros_f());
  return percentile(std::move(us), 99);
}

// ---- tcp_bulk --------------------------------------------------------------

/// Paced bulk transfer at 100 Mbps offered.  Chunk sizes are drawn from
/// the seed; every stream byte encodes its offset, so the receiver detects
/// loss, duplication, reordering and corruption.
class TcpBulk final : public Scenario {
 public:
  explicit TcpBulk(std::uint64_t seed)
      : tb_(paper_config(seed)),
        rng_(Rng::derive(seed, "perfbench.tcp_bulk")),
        salt_(static_cast<u8>(seed)),
        pace_(tb_.simulator(), [this] { tick(); }) {
    tb_.add_node("node1");
    tb_.add_node("node2");
    tcp1_ = std::make_unique<tcp::TcpLayer>(tb_.node("node1"));
    tcp2_ = std::make_unique<tcp::TcpLayer>(tb_.node("node2"));
    tcp2_->listen(kPort, [this](std::shared_ptr<tcp::TcpConnection> conn) {
      conn->on_data = [this](BytesView data) { receive(data); };
    });
    buf_.resize(kMaxChunk);
  }

  Testbed& testbed() override { return tb_; }
  std::string script() override {
    return filter_table(25, /*tcp=*/true) + tb_.node_table_fsl() +
           per_packet_actions("TCP_fwd", "TCP_rev", "node1", "node2", 25);
  }
  std::string control_node() const override { return "node1"; }

  void start() override {
    conn_ = tcp1_->connect(tb_.node("node2").ip(), kPort, kSrcPort);
    conn_->on_established = [this] { tick(); };
  }
  void stop() override {
    stopped_ = true;
    pace_.cancel();
  }
  bool drained() const override { return received_ >= offered_; }
  std::uint64_t app_bytes() const override { return received_; }

  Outcome outcome() override {
    Outcome o;
    o.attempted = chunk_ends_.size();
    // A chunk fails if any of its bytes is missing or wrong.
    std::size_t err = 0;
    u64 begin = 0;
    for (u64 end : chunk_ends_) {
      while (err < error_offsets_.size() && error_offsets_[err] < begin) ++err;
      const bool corrupt =
          err < error_offsets_.size() && error_offsets_[err] < end;
      if (end > received_ || corrupt) ++o.failed;
      begin = end;
    }
    if (received_ > offered_) ++o.failed;  // bytes nobody sent
    if (const obs::Histogram* h =
            tb_.metrics().find_histogram("tcp.node1.rtt_us")) {
      o.rtt_p99_us = static_cast<double>(h->percentile(99));
    }
    return o;
  }

  void extra_counts(Counts& c) override {
    c.emplace_back("tcp.offered_bytes", offered_);
    c.emplace_back("tcp.pattern_errors", error_offsets_.size());
  }

 private:
  static constexpr u16 kPort = 16384;     // 0x4000, the filters' TCP port
  static constexpr u16 kSrcPort = 24576;  // 0x6000
  static constexpr std::size_t kMinChunk = 8 * 1024;
  static constexpr std::size_t kMaxChunk = 16 * 1024;
  static constexpr i64 kNsPerByte = 80;   // 100 Mbps offered

  u8 pattern(u64 offset) const {
    return static_cast<u8>((offset * 131 + 7 + salt_) & 0xff);
  }

  void tick() {
    if (stopped_) return;
    const auto size =
        static_cast<std::size_t>(rng_.range(kMinChunk, kMaxChunk));
    for (std::size_t i = 0; i < size; ++i) buf_[i] = pattern(offered_ + i);
    // What the send buffer refuses is lost offered load, as for an
    // application whose write() would block at this pumping rate.
    const std::size_t accepted =
        conn_->send(BytesView(buf_.data(), size));
    if (accepted > 0) {
      offered_ += accepted;
      chunk_ends_.push_back(offered_);
    }
    pace_.start(Duration{static_cast<i64>(size) * kNsPerByte});
  }

  void receive(BytesView data) {
    for (u8 b : data) {
      if (b != pattern(received_)) error_offsets_.push_back(received_);
      ++received_;
    }
  }

  Testbed tb_;
  Rng rng_;
  u8 salt_;
  sim::Timer pace_;
  std::unique_ptr<tcp::TcpLayer> tcp1_, tcp2_;
  std::shared_ptr<tcp::TcpConnection> conn_;
  Bytes buf_;
  std::vector<u64> chunk_ends_;
  std::vector<u64> error_offsets_;
  u64 offered_{0};
  u64 received_{0};
  bool stopped_{false};
};

// ---- udp_small -------------------------------------------------------------

/// Open-loop echo probes: minimum-size frames sent every 20-50 µs of
/// simulated time (gaps drawn from the seed), each carrying its id and a
/// payload derived from it so a wrong echo is caught.
class UdpSmall final : public Scenario {
 public:
  explicit UdpSmall(std::uint64_t seed)
      : tb_(paper_config(seed)),
        rng_(Rng::derive(seed, "perfbench.udp_small")),
        send_(tb_.simulator(), [this] { send_probe(); }) {
    tb_.add_node("client");
    tb_.add_node("server");
    client_ = std::make_unique<udp::UdpLayer>(tb_.node("client"));
    server_ = std::make_unique<udp::UdpLayer>(tb_.node("server"));
    echo_ = std::make_unique<udp::EchoServer>(*server_, kServerPort);
    client_->bind(kClientPort,
                  [this](net::Ipv4Address, u16, BytesView p) { on_reply(p); });
  }

  Testbed& testbed() override { return tb_; }
  std::string script() override {
    return filter_table(25, /*tcp=*/false) + tb_.node_table_fsl() +
           per_packet_actions("udp_req", "udp_rsp", "client", "server", 25);
  }
  std::string control_node() const override { return "client"; }

  void start() override { send_probe(); }
  void stop() override { send_.cancel(); }
  bool drained() const override { return replies_ >= sent_at_.size(); }
  std::uint64_t app_bytes() const override { return replies_ * kPayload; }

  Outcome outcome() override {
    Outcome o;
    o.attempted = sent_at_.size();
    std::vector<Duration> ok;
    for (Duration d : rtts_) {
      if (d.ns < 0) {
        ++o.failed;  // never echoed
      } else {
        ok.push_back(d);
      }
    }
    o.failed += bad_replies_;
    o.rtt_p99_us = p99_us(std::move(ok));
    return o;
  }

  void extra_counts(Counts& c) override {
    c.emplace_back("udp.replies", replies_);
    c.emplace_back("udp.bad_replies", bad_replies_);
  }

 private:
  static constexpr u16 kServerPort = 7;
  static constexpr u16 kClientPort = 40000;  // 0x9c40, the filters' port
  /// Pads the frame to Ethernet's 60-byte minimum (14 + 20 + 8 + 18).
  static constexpr std::size_t kPayload = 18;

  static u8 fill(u32 id, std::size_t i) {
    return static_cast<u8>((id * 7 + i * 13) & 0xff);
  }

  void send_probe() {
    const auto id = static_cast<u32>(sent_at_.size());
    u8 payload[kPayload];
    write_u32(BytesSpan(payload, kPayload), 0, id);
    for (std::size_t i = 4; i < kPayload; ++i) payload[i] = fill(id, i);
    sent_at_.push_back(tb_.simulator().now());
    rtts_.push_back(Duration{-1});
    client_->send(tb_.node("server").ip(), kServerPort, kClientPort,
                  BytesView(payload, kPayload));
    send_.start(micros(rng_.range(20, 50)));
  }

  void on_reply(BytesView p) {
    if (p.size() != kPayload) {
      ++bad_replies_;
      return;
    }
    const u32 id = read_u32(p, 0);
    bool intact = id < rtts_.size() && rtts_[id].ns < 0;
    for (std::size_t i = 4; intact && i < kPayload; ++i) {
      intact = p[i] == fill(id, i);
    }
    if (!intact) {
      ++bad_replies_;
      return;
    }
    rtts_[id] = tb_.simulator().now() - sent_at_[id];
    ++replies_;
  }

  Testbed tb_;
  Rng rng_;
  sim::Timer send_;
  std::unique_ptr<udp::UdpLayer> client_, server_;
  std::unique_ptr<udp::EchoServer> echo_;
  std::vector<TimePoint> sent_at_;
  std::vector<Duration> rtts_;  ///< -1 until echoed
  u64 replies_{0};
  u64 bad_replies_{0};
};

// ---- rether_ring -----------------------------------------------------------

/// Eight Rether members on the shared bus with the default stack.  Every
/// member sends best-effort echo requests to the member across the ring at
/// seed-drawn gaps and sizes; r2 also
/// sends a real-time stream under a reservation.  A sampler checks every
/// millisecond that at most one live member holds the current token.
class RetherRing final : public Scenario {
 public:
  explicit RetherRing(std::uint64_t seed)
      : tb_(config(seed)),
        rng_(Rng::derive(seed, "perfbench.rether_ring")),
        sampler_(tb_.simulator(), [this] { sample_holders(); }) {
    std::vector<net::MacAddress> ring;
    for (int i = 0; i < kMembers; ++i) {
      ring.push_back(
          tb_.add_node(std::string("r").append(std::to_string(i + 1))).mac());
    }
    for (int i = 0; i < kMembers; ++i) {
      host::Node& n = tb_.node(std::string("r").append(std::to_string(i + 1)));
      Member m;
      m.rether = static_cast<rether::RetherLayer*>(&n.add_layer(
          std::make_unique<rether::RetherLayer>(tb_.simulator(),
                                                rether::RetherParams{}, ring)));
      m.node = &n;
      m.udp = std::make_unique<udp::UdpLayer>(n);
      m.echo = std::make_unique<udp::EchoServer>(*m.udp, kEchoPort);
      for (u16 port : {kBestEffortPort, kRealTimePort}) {
        m.udp->bind(port, [this](net::Ipv4Address, u16, BytesView p) {
          on_reply(p);
        });
      }
      m.peer = (i + kMembers / 2) % kMembers;  // across the ring
      members_.push_back(std::move(m));
    }
    members_[kRtMember].rether->set_rt_classifier([](const net::Packet& pkt) {
      return pkt.size() > 36 && read_u16(pkt.view(), 34) == kRealTimePort;
    });
    for (int i = 0; i < kMembers; ++i) {
      senders_.push_back(std::make_unique<sim::Timer>(
          tb_.simulator(), [this, i] { send_best_effort(i); }));
    }
    rt_sender_ = std::make_unique<sim::Timer>(tb_.simulator(),
                                              [this] { send_real_time(); });
  }

  Testbed& testbed() override { return tb_; }
  std::string script() override {
    return std::string(
               "FILTER_TABLE\n"
               "  tr_token:     (12 2 0x9900), (14 2 0x0001)\n"
               "  tr_token_ack: (12 2 0x9900), (14 2 0x0010)\n"
               "END\n") +
           tb_.node_table_fsl() +
           "SCENARIO rether_ring\n"
           "  TokensTo2: (tr_token, r1, r2, RECV)\n"
           "  AcksTo1:   (tr_token_ack, r2, r1, RECV)\n"
           "  (TRUE) >> ENABLE_CNTR(TokensTo2); ENABLE_CNTR(AcksTo1);\n"
           "END\n";
  }
  std::string control_node() const override { return "r1"; }

  void start() override {
    for (int i = 0; i < kMembers; ++i) members_[i].rether->start(i == 0);
    members_[kRtMember].rether->request_reservation(2);
    for (auto& s : senders_) s->start(gap());
    rt_sender_->start(kRtPeriod);
    sampler_.start(millis(1));
  }
  void stop() override {
    for (auto& s : senders_) s->cancel();
    rt_sender_->cancel();
  }
  bool drained() const override { return replies_ >= sent_at_.size(); }
  std::uint64_t app_bytes() const override { return reply_bytes_; }

  Outcome outcome() override {
    Outcome o;
    o.attempted = sent_at_.size();
    std::vector<Duration> ok;
    for (Duration d : rtts_) {
      if (d.ns < 0) {
        ++o.failed;
      } else {
        ok.push_back(d);
      }
    }
    o.failed += bad_replies_ + split_brain_samples_;
    if (members_[kRtMember].rether->reservation_state() !=
        rether::ReservationState::kAdmitted) {
      ++o.failed;
    }
    o.rtt_p99_us = p99_us(std::move(ok));
    return o;
  }

  void extra_counts(Counts& c) override {
    u64 tokens = 0, token_sends = 0, acks = 0, rt = 0;
    for (const Member& m : members_) {
      const rether::RetherStats& s = m.rether->stats();
      tokens += s.tokens_received;
      token_sends += s.token_sends;
      acks += s.acks_received;
      rt += s.rt_sent;
    }
    c.emplace_back("rether.tokens_received", tokens);
    c.emplace_back("rether.token_sends", token_sends);
    c.emplace_back("rether.acks_received", acks);
    c.emplace_back("rether.rt_sent", rt);
    c.emplace_back("rether.holder_samples", holder_samples_);
    c.emplace_back("rether.split_brain_samples", split_brain_samples_);
  }

 private:
  static constexpr int kMembers = 8;
  static constexpr int kRtMember = 1;  // r2
  static constexpr u16 kEchoPort = 7;
  static constexpr u16 kBestEffortPort = 40000;
  static constexpr u16 kRealTimePort = 50001;
  static constexpr Duration kRtPeriod = millis(5);

  struct Member {
    host::Node* node{nullptr};
    rether::RetherLayer* rether{nullptr};
    std::unique_ptr<udp::UdpLayer> udp;
    std::unique_ptr<udp::EchoServer> echo;
    int peer{0};
  };

  static TestbedConfig config(std::uint64_t seed) {
    TestbedConfig cfg;
    cfg.medium = TestbedConfig::MediumKind::kSharedBus;
    cfg.seed = seed;
    return cfg;
  }

  /// Best-effort gap per member: 2-8 ms, well below ring capacity.
  Duration gap() { return micros(rng_.range(2000, 8000)); }

  void send(int from, int to, u16 port, std::size_t size) {
    const auto id = static_cast<u32>(sent_at_.size());
    Bytes payload(size);
    write_u32(payload, 0, id);
    for (std::size_t i = 4; i < size; ++i) {
      payload[i] = static_cast<u8>((id + i) & 0xff);
    }
    sent_at_.push_back(tb_.simulator().now());
    rtts_.push_back(Duration{-1});
    members_[from].udp->send(members_[to].node->ip(), kEchoPort, port,
                             BytesView(payload));
  }

  void send_best_effort(int i) {
    send(i, members_[i].peer, kBestEffortPort,
         static_cast<std::size_t>(rng_.range(64, 512)));
    senders_[i]->start(gap());
  }

  void send_real_time() {
    send(kRtMember, members_[kRtMember].peer, kRealTimePort, 200);
    rt_sender_->start(kRtPeriod);
  }

  void on_reply(BytesView p) {
    bool intact = p.size() >= 4;
    const u32 id = intact ? read_u32(p, 0) : 0;
    intact = intact && id < rtts_.size() && rtts_[id].ns < 0;
    for (std::size_t i = 4; intact && i < p.size(); ++i) {
      intact = p[i] == static_cast<u8>((id + i) & 0xff);
    }
    if (!intact) {
      ++bad_replies_;
      return;
    }
    rtts_[id] = tb_.simulator().now() - sent_at_[id];
    ++replies_;
    reply_bytes_ += p.size();
  }

  /// Uniqueness of the operational token: live holders of the highest
  /// token sequence.
  void sample_holders() {
    u32 max_seq = 0;
    for (const Member& m : members_) {
      if (!m.node->failed() && m.rether->holding_token()) {
        max_seq = std::max(max_seq, m.rether->token_seq());
      }
    }
    int holders = 0;
    for (const Member& m : members_) {
      if (!m.node->failed() && m.rether->holding_token() &&
          m.rether->token_seq() == max_seq) {
        ++holders;
      }
    }
    ++holder_samples_;
    if (holders > 1) ++split_brain_samples_;
    sampler_.start(millis(1));
  }

  Testbed tb_;
  Rng rng_;
  sim::Timer sampler_;
  std::vector<Member> members_;
  std::vector<std::unique_ptr<sim::Timer>> senders_;
  std::unique_ptr<sim::Timer> rt_sender_;
  std::vector<TimePoint> sent_at_;
  std::vector<Duration> rtts_;  ///< -1 until echoed
  u64 replies_{0};
  u64 reply_bytes_{0};
  u64 bad_replies_{0};
  u64 holder_samples_{0};
  u64 split_brain_samples_{0};
};

// ---- chaos trial replica ---------------------------------------------------

class ChaosReplica final : public Scenario {
 public:
  ChaosReplica(const chaos::Campaign& campaign, std::uint64_t index)
      : schedule_(campaign.schedule_for(index)),
        harness_(chaos::make_harness(
            campaign.config().fixture,
            derive_seed(schedule_.campaign_seed, "trial.workload", index))) {
    spec_ = harness_->make_spec(
        chaos::fsl_rules(schedule_, harness_->fsl_site()));
    harness_->testbed().medium().reseed(
        derive_seed(schedule_.campaign_seed, "trial.medium", index));
  }

  Testbed& testbed() override { return harness_->testbed(); }
  std::string script() override { return spec_.script; }
  std::string control_node() const override { return spec_.control_node; }
  void start() override { spec_.workload(); }
  void stop() override { harness_->quiesce(); }
  bool drained() const override { return true; }
  std::uint64_t app_bytes() const override {
    return harness_->testbed().medium().stats().bytes_delivered;
  }
  Outcome outcome() override {
    Outcome o;
    o.attempted = 1;
    Testbed& tb = harness_->testbed();
    for (const std::string& n : tb.node_names()) {
      if (const obs::Histogram* h =
              tb.metrics().find_histogram("rll." + n + ".rtt_us")) {
        o.rtt_p99_us =
            std::max(o.rtt_p99_us, static_cast<double>(h->percentile(99)));
      }
    }
    return o;
  }

 private:
  chaos::FaultSchedule schedule_;
  std::unique_ptr<chaos::TrialHarness> harness_;
  ScenarioSpec spec_;
};

}  // namespace

ScenarioFactory tcp_bulk(std::uint64_t seed) {
  return [seed] { return std::make_unique<TcpBulk>(seed); };
}
RepShape tcp_bulk_shape() { return {millis(30), millis(50), seconds(2)}; }

ScenarioFactory udp_small(std::uint64_t seed) {
  return [seed] { return std::make_unique<UdpSmall>(seed); };
}
RepShape udp_small_shape() { return {millis(10), millis(30), millis(50)}; }

ScenarioFactory rether_ring(std::uint64_t seed) {
  return [seed] { return std::make_unique<RetherRing>(seed); };
}
RepShape rether_ring_shape() {
  return {millis(30), millis(300), millis(500)};
}

ScenarioFactory chaos_replica(const chaos::Campaign& campaign,
                              std::uint64_t index) {
  return [&campaign, index] {
    return std::make_unique<ChaosReplica>(campaign, index);
  };
}
RepShape chaos_replica_shape() { return {{0}, millis(200), {0}}; }

}  // namespace perfbench
