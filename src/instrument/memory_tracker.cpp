#include "instrument/memory_tracker.hpp"

#include <algorithm>

namespace instrument {

void MemoryTracker::Allocate(const std::string& category, std::size_t bytes) {
  owner_.Check("instrument::MemoryTracker::Allocate");
  Cat& cat = categories_[category];
  cat.current += bytes;
  cat.peak = std::max(cat.peak, cat.current);
  current_ += bytes;
  peak_ = std::max(peak_, current_);
  if (category != kDeviceCategory) {
    host_current_ += bytes;
    host_peak_ = std::max(host_peak_, host_current_);
  }
}

void MemoryTracker::Release(const std::string& category, std::size_t bytes) {
  // Cross-rank buffer handoff detaches tracking *before* the bytes change
  // threads (Comm::SendBuffer), so Release is single-owner like Allocate.
  owner_.Check("instrument::MemoryTracker::Release");
  Cat& cat = categories_[category];
  cat.current = bytes > cat.current ? 0 : cat.current - bytes;
  current_ = bytes > current_ ? 0 : current_ - bytes;
  if (category != kDeviceCategory) {
    host_current_ = bytes > host_current_ ? 0 : host_current_ - bytes;
  }
}

std::size_t MemoryTracker::CurrentBytes(const std::string& category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.current;
}

std::size_t MemoryTracker::PeakBytes(const std::string& category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? 0 : it->second.peak;
}

std::map<std::string, std::size_t> MemoryTracker::ByCategory() const {
  std::map<std::string, std::size_t> out;
  for (const auto& [name, cat] : categories_) out[name] = cat.current;
  return out;
}

void MemoryTracker::Reset() {
  // Reset is an ownership handoff point (benches reuse trackers across
  // configurations): release the owner binding with the counters.
  owner_.Reset();
  categories_.clear();
  current_ = 0;
  peak_ = 0;
  host_current_ = 0;
  host_peak_ = 0;
}

}  // namespace instrument
