#include "vwire/obs/provenance.hpp"

#include <memory>
#include <new>

namespace vwire::obs {

void ProvenanceRing::advance_frontier() {
  if (built_ == capacity_) {  // a full lap: wrap
    head_ = 0;
    return;
  }
  // Reserve without constructing: a ring that never fires never pays for
  // its slots, and one that fires a few times pays for a few.
  if (slots_ == nullptr) {
    slots_ = std::allocator<FiringRecord>{}.allocate(capacity_);
  }
  ::new (static_cast<void*>(slots_ + built_)) FiringRecord{};
  ++built_;
}

void ProvenanceRing::release() {
  if (slots_ == nullptr) return;
  std::destroy_n(slots_, built_);
  std::allocator<FiringRecord>{}.deallocate(slots_, capacity_);
  slots_ = nullptr;
  built_ = 0;
}

std::vector<FiringRecord> ProvenanceRing::collect() const {
  std::vector<FiringRecord> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest record: when the ring has wrapped, it sits at head_ (the slot
  // about to be overwritten next; head_ == capacity_ means slot 0); before
  // wrapping, slot 0.
  const std::size_t start = total_ > capacity_ ? head_ % capacity_ : 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(slots_[(start + i) % capacity_]);
  }
  return out;
}

}  // namespace vwire::obs
