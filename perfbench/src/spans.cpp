#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

using namespace vwire;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t now_ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

AllocCounts operator-(AllocCounts a, AllocCounts b) {
  return {a.calls - b.calls, a.bytes - b.bytes};
}

void operator+=(AllocCounts& a, AllocCounts b) {
  a.calls += b.calls;
  a.bytes += b.bytes;
}

/// The bucket a packet entering `layer` is charged to.
Bucket bucket_of(const host::Layer& layer) {
  const std::string_view n = layer.name();
  if (n == "nic") return Bucket::kPhyTx;
  if (n == "rll") return Bucket::kRll;
  if (n == "tap") return Bucket::kTrace;
  if (n == "vwctl") return Bucket::kControl;
  if (n == "vwire") return Bucket::kEngine;
  if (n == "rether") return Bucket::kRether;
  if (n == "ip") return Bucket::kStackAbove;
  return Bucket::kNone;
}

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(SpanRecorder& rec, Bucket b, const net::Packet& pkt)
      : rec_(rec),
        index_(b == Bucket::kNone || !rec.active()
                   ? SpanRecorder::kNoSpan
                   : rec.open(b, pkt.span(), pkt.parent_span())) {}
  ~SpanScope() { rec_.close(index_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint32_t index_;
};

}  // namespace

const char* bucket_name(Bucket b) {
  switch (b) {
    case Bucket::kSim: return "sim";
    case Bucket::kPhyTx: return "phy_tx";
    case Bucket::kRll: return "rll";
    case Bucket::kTrace: return "trace";
    case Bucket::kControl: return "control";
    case Bucket::kEngine: return "engine";
    case Bucket::kRether: return "rether";
    case Bucket::kStackAbove: return "stack_above";
    case Bucket::kNone: break;
  }
  return "none";
}

FrameSampler::FrameSampler(std::size_t max_frames, std::size_t max_frame_bytes)
    : max_frames_(max_frames),
      max_frame_bytes_(max_frame_bytes),
      data_(max_frames * max_frame_bytes) {
  lengths_.reserve(max_frames);
}

void FrameSampler::offer(const Bytes& frame) {
  if (lengths_.size() >= max_frames_) return;
  const std::size_t n = std::min(frame.size(), max_frame_bytes_);
  if (n > 0) {
    std::memcpy(&data_[lengths_.size() * max_frame_bytes_], frame.data(), n);
  }
  lengths_.push_back(n);
}

BytesView FrameSampler::frame(std::size_t i) const {
  return BytesView(&data_[i * max_frame_bytes_], lengths_[i]);
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity),
      created_ticks_(now_ticks()),
      created_ns_(now_ns()),
      engine_frames_(4096, 1600) {
  spans_.reserve(capacity);
}

double SpanRecorder::ns_per_tick() const {
  const std::int64_t ticks = now_ticks() - created_ticks_;
  return ticks > 0 ? static_cast<double>(now_ns() - created_ns_) /
                         static_cast<double>(ticks)
                   : 1.0;
}

std::uint32_t SpanRecorder::open(Bucket bucket, std::uint64_t pkt_span,
                                 std::uint64_t pkt_parent) {
  if (spans_.size() == capacity_) {
    if (open_ != kNoSpan) {
      ++overflowed_;
      return kNoSpan;
    }
    fold();
  }
  const auto index = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{now_ticks(), 0, 0, thread_allocs(), {}, {}, pkt_span,
                        pkt_parent, open_, bucket});
  open_ = index;
  return index;
}

void SpanRecorder::close(std::uint32_t index) {
  if (index == kNoSpan) return;
  Span& s = spans_[index];
  s.end = now_ticks();
  s.allocs = thread_allocs() - s.allocs_start;
  open_ = s.parent;
  if (s.parent != kNoSpan) {
    Span& p = spans_[s.parent];
    p.child += s.end - s.start;
    p.child_allocs += s.allocs;
  }
}

void SpanRecorder::fold() {
  for (const Span& s : spans_) {
    BucketTotals& t = totals_[static_cast<std::size_t>(s.bucket)];
    const std::int64_t self = s.end - s.start - s.child;
    t.self_ticks += static_cast<std::uint64_t>(self > 0 ? self : 0);
    t.self_allocs += s.allocs.calls - s.child_allocs.calls;
  }
  spans_.clear();
}

void SpanRecorder::reset() {
  spans_.clear();
  open_ = kNoSpan;
  totals_ = {};
  overflowed_ = 0;
  queue_depth_max_ = 0;
  engine_frames_.clear();
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "bucket,start_ns,dur_ns,self_ns,pkt_span,pkt_parent,"
                  "parent_index\n");
  const double k = ns_per_tick();
  auto ns = [k](std::int64_t ticks) {
    return static_cast<long long>(static_cast<double>(ticks) * k);
  };
  for (const Span& s : spans_) {
    std::fprintf(f, "%s,%lld,%lld,%lld,%llu,%llu,%lld\n",
                 bucket_name(s.bucket), ns(s.start - created_ticks_),
                 ns(s.end - s.start), ns(s.end - s.start - s.child),
                 static_cast<unsigned long long>(s.pkt_span),
                 static_cast<unsigned long long>(s.pkt_parent),
                 s.parent == kNoSpan ? -1LL : static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

void BoundaryShim::send_down(net::Packet pkt) {
  if (down_ == Bucket::kEngine && rec_.active()) {
    rec_.engine_frames().offer(pkt.bytes());
  }
  SpanScope span(rec_, down_, pkt);
  pass_down(std::move(pkt));
}

void BoundaryShim::receive_up(net::Packet pkt) {
  if (up_ == Bucket::kEngine && rec_.active()) {
    rec_.engine_frames().offer(pkt.bytes());
  }
  SpanScope span(rec_, up_, pkt);
  pass_up(std::move(pkt));
}

Shims splice_shims(Testbed& tb, SpanRecorder& rec) {
  Shims shims;
  for (const std::string& name : tb.node_names()) {
    host::Layer* lower = &tb.node(name).nic();
    while (host::Layer* upper = lower->upper()) {
      auto shim = std::make_unique<BoundaryShim>(rec, bucket_of(*lower),
                                                 bucket_of(*upper));
      shim->set_lower(lower);
      shim->set_upper(upper);
      lower->set_upper(shim.get());
      upper->set_lower(shim.get());
      shims.push_back(std::move(shim));
      lower = upper;
    }
  }
  return shims;
}

void step_until(sim::Simulator& sim, TimePoint until, SpanRecorder* rec) {
  bool reached = false;
  sim.at(until, [&reached] { reached = true; });
  if (rec == nullptr) {
    while (!reached && sim.step()) {
    }
    return;
  }
  while (!reached) {
    const std::uint32_t root = rec->open(Bucket::kSim, 0, 0);
    const bool stepped = sim.step();
    rec->close(root);
    rec->sample_queue_depth(sim.pending_events());
    if (!stepped) break;
  }
}

}  // namespace perfbench
