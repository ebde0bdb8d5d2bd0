// Layer-boundary spans recorded from outside the library.
//
// After a testbed's stacks are fully installed, splice_shims() puts a
// pass-through BoundaryShim between every adjacent pair of layers on every
// node (through the public Layer::set_lower/set_upper).  A shim opens a span
// when a packet crosses it and closes the span when the call returns, so a
// span covers the layer the packet enters and everything that layer calls
// synchronously.  step_until() adds a root span around each
// Simulator::step().  A layer's self time is its spans' duration minus the
// part covered by the spans nested in them; the root's self time is what
// the event queue, the medium and timer/application callbacks cost.
//
// Spans live in one preallocated buffer and are folded into per-layer
// totals whenever it fills and when a run ends, so recording never
// allocates.  Times are read from the CPU's time-stamp counter where there
// is one (a few ns per read) and converted to ns against steady_clock over
// the recorder's lifetime.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "vwire/core/api/testbed.hpp"

namespace perfbench {

/// Where a span's self time is charged.  kSim is the root span.
enum class Bucket : std::uint8_t {
  kSim,
  kPhyTx,
  kRll,
  kTrace,
  kControl,
  kEngine,
  kRether,
  kStackAbove,
  kNone,
};
inline constexpr std::size_t kBucketCount =
    static_cast<std::size_t>(Bucket::kNone);

/// Metric-name prefix of a bucket ("phy_tx", "engine", ...).
const char* bucket_name(Bucket b);

struct BucketTotals {
  std::uint64_t self_ticks{0};  ///< see SpanRecorder::ns_per_tick()
  std::uint64_t self_allocs{0};
};

/// Copies of the first frames that enter the engine layer, kept in one
/// flat preallocated buffer so sampling never allocates.
class FrameSampler {
 public:
  FrameSampler(std::size_t max_frames, std::size_t max_frame_bytes);

  void offer(const vwire::Bytes& frame);
  std::size_t size() const { return lengths_.size(); }
  vwire::BytesView frame(std::size_t i) const;
  void clear() { lengths_.clear(); }

 private:
  std::size_t max_frames_;
  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> data_;
  std::vector<std::size_t> lengths_;
};

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoSpan = 0xffffffffu;

  explicit SpanRecorder(std::size_t capacity);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Spans are recorded only while active.
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }

  std::uint32_t open(Bucket bucket, std::uint64_t pkt_span,
                     std::uint64_t pkt_parent);
  void close(std::uint32_t index);

  /// Folds every closed span into the per-bucket totals and empties the
  /// buffer.  Call with no span open.
  void fold();

  /// Clears totals, buffer and queue-depth samples.
  void reset();

  const BucketTotals& totals(Bucket b) const {
    return totals_[static_cast<std::size_t>(b)];
  }
  /// Nanoseconds per span clock tick, calibrated since construction.
  double ns_per_tick() const;
  double self_ns(Bucket b) const {
    return static_cast<double>(totals(b).self_ticks) * ns_per_tick();
  }

  /// Spans not recorded because one event filled the whole buffer.
  std::uint64_t overflowed() const { return overflowed_; }

  void sample_queue_depth(std::size_t depth) {
    if (depth > queue_depth_max_) queue_depth_max_ = depth;
  }
  std::size_t queue_depth_max() const { return queue_depth_max_; }

  FrameSampler& engine_frames() { return engine_frames_; }

  /// Writes the spans still in the buffer as CSV (one line per span:
  /// bucket, start, duration and self time in ns, packet span, parent
  /// packet span, enclosing span index).  Call before the final fold().
  bool write_csv(const std::string& path) const;

 private:
  struct Span {
    std::int64_t start;  ///< ticks
    std::int64_t end;
    std::int64_t child;  ///< ticks covered by direct children
    AllocCounts allocs_start;
    AllocCounts child_allocs;
    AllocCounts allocs;
    std::uint64_t pkt_span;
    std::uint64_t pkt_parent;
    std::uint32_t parent;
    Bucket bucket;
  };

  std::vector<Span> spans_;
  std::size_t capacity_;
  std::int64_t created_ticks_;
  std::int64_t created_ns_;
  std::uint32_t open_{kNoSpan};  ///< innermost open span
  bool active_{false};
  std::array<BucketTotals, kBucketCount> totals_{};
  std::uint64_t overflowed_{0};
  std::size_t queue_depth_max_{0};
  FrameSampler engine_frames_;
};

/// Pass-through layer that records a span for each packet crossing it.
/// `down` is charged for send_down (the layer below the shim), `up` for
/// receive_up (the layer above).
class BoundaryShim final : public vwire::host::Layer {
 public:
  BoundaryShim(SpanRecorder& rec, Bucket down, Bucket up)
      : rec_(rec), down_(down), up_(up) {}

  std::string_view name() const override { return "perfbench-shim"; }
  void send_down(vwire::net::Packet pkt) override;
  void receive_up(vwire::net::Packet pkt) override;

 private:
  SpanRecorder& rec_;
  Bucket down_;
  Bucket up_;
};

using Shims = std::vector<std::unique_ptr<BoundaryShim>>;

/// Splices a shim between every adjacent pair of layers on every node of
/// `tb`.  The returned shims must outlive all traffic on the testbed.
Shims splice_shims(vwire::Testbed& tb, SpanRecorder& rec);

/// Runs `sim` up to `until` one event at a time.  With a recorder each
/// event gets a root span and the queue depth is sampled.  Both modes run
/// exactly the same events (a sentinel event marks `until`), so traced and
/// untraced runs stay comparable count for count.
void step_until(vwire::sim::Simulator& sim, vwire::TimePoint until,
                SpanRecorder* rec);

}  // namespace perfbench
